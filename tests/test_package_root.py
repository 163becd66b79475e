"""The package root exports what callers import from it, and nothing else."""

import re
import types
from pathlib import Path

import javascale

REPO = Path(__file__).resolve().parents[1]

# the names the benchmark and README's Library example import from the root
ROOT_NAMES = {
    "FactsArchive",
    "ProjectMetrics",
    "compute_metrics",
    "decorrelation_report",
    "diagnostics",
    "export_metrics_table",
    "extract_corpus",
    "extract_project",
    "fit_log_power",
    "predict",
    "read_metrics_table",
    "write_facts",
}

# `from javascale import a, b` or `from javascale import (a, b)`, also
# inside a string of code run with `python -c`
_ROOT_IMPORT = re.compile(r"from javascale import (\([^)]*\)|[\w, ]+)")


def root_imports(text: str) -> set[str]:
    found = (m.group(1).strip("()") for m in _ROOT_IMPORT.finditer(text))
    return {name.strip() for names in found for name in names.split(",") if name.strip()}


def test_the_root_exports_only_the_declared_names():
    public = {
        name
        for name, value in vars(javascale).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == ROOT_NAMES


def test_every_name_callers_import_from_the_root_resolves():
    texts = [path.read_text(encoding="utf-8") for path in sorted((REPO / "bench").glob("*.py"))]
    library = (REPO / "README.md").read_text(encoding="utf-8").split("## Library", 1)[1]
    example = library.split("```python", 1)[1].split("```", 1)[0]
    imported = set().union(*map(root_imports, [*texts, example]))
    for name in sorted(imported):
        namespace: dict = {}
        exec(f"from javascale import {name}", namespace)  # a module or a root name
    modules = {name for name in imported if isinstance(getattr(javascale, name), types.ModuleType)}
    assert imported - modules == ROOT_NAMES
