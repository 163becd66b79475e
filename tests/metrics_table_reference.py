"""Reference metrics-table reader: one checked ``ProjectMetrics`` per row.

A frozen copy of the ``read_metrics_table`` that ``javascale.store``
replaced with its column reader, kept so tests can check the two agree:
on every table, the same columns, or the same exception type and message.
"""

from __future__ import annotations

from pathlib import Path

from javascale.errors import ArchiveIntegrityError, DuplicateProjectError
from javascale.metrics import METRIC_COLUMNS, ProjectMetrics


def read_metrics_table(path: str | Path) -> list[ProjectMetrics]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ArchiveIntegrityError(f"{path}: not UTF-8 text: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ArchiveIntegrityError(f"{path}: empty metrics table")
    header = lines[0].split(",")
    if header != METRIC_COLUMNS:
        raise ArchiveIntegrityError(f"{path}: unexpected metrics table header")
    out: list[ProjectMetrics] = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(METRIC_COLUMNS):
            raise ArchiveIntegrityError(f"{path}: bad row {ln!r}")
        try:
            out.append(ProjectMetrics(cells[0], *map(int, cells[1:])))
        except ValueError as exc:
            raise ArchiveIntegrityError(f"{path}: bad row {ln!r}: {exc}") from exc
    DuplicateProjectError.check([m.project_id for m in out], f"{path}: duplicate project ids")
    return out
