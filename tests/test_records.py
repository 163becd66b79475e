"""The record types: construction by keyword with defaults, immutability of
the named tuples, and list defaults that no two instances share."""

import math
from array import array

import pytest

from javascale import extractor
from javascale.errors import DuplicateProjectError
from javascale.metrics import DEFAULT_JDK_PREFIXES, metric_columns
from javascale.normalize import DecorrelationReport, NormalizedColumns, WmcSummary
from javascale.pipeline import (
    DEFAULT_GRID,
    DEFAULT_TESTSETS,
    EvalSet,
    GridCell,
    RunConfig,
    RunResult,
)
from javascale.regression import Diagnostics, FitResult, ModelEval
from javascale.stats import Bin, BinSummary, WelchResult
from javascale.store import FactsArchive
from javascale.synth import SynthSpec

from conftest import facts_from_rows

NAMED_TUPLES = [
    FitResult(alpha=1.0, beta=1.1, k=1.0, r=0.9, r_squared=0.81, n=10),
    Diagnostics([], [], [], [], [], [], []),
    ModelEval("m1", "all", {"all": 0.5}),
    NormalizedColumns("methods", "classes", 1.0, [], [], []),
    DecorrelationReport("methods", "classes", 1.0, 10, 0.01, 0.02),
    WmcSummary(10, 2.0, 0.5, 0.1, 1.6, (1.4, 1.8), 0),
    WelchResult(1.0, 10.0, 0.3, False),
    Bin("< 20", -math.inf, 20.0, metric_columns([]), []),
    BinSummary("< 20", -math.inf, 20.0, 3, 0.1, 0.2, 10.0, 0),
    GridCell("m1", "methods", "classes"),
    EvalSet("all", "classes", 0, math.inf),
    SynthSpec(n_projects=5, x_range=(1, 10), true_alpha=1.0, true_beta=1.0),
    RunConfig(manifest="manifest.txt", out_dir="run"),
    RunResult(out_dir="run", stages=[], fit_rows=[]),
    FactsArchive(),
    facts_from_rows("p"),
]


@pytest.mark.parametrize("record", NAMED_TUPLES, ids=lambda r: type(r).__name__)
def test_named_tuple_refuses_assignment(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_keyword_construction_with_defaults():
    cfg = RunConfig(manifest="manifest.txt", out_dir="run")
    assert (cfg.manifest, cfg.out_dir) == ("manifest.txt", "run")
    assert cfg.jdk_prefixes == DEFAULT_JDK_PREFIXES
    assert (cfg.model_grid, cfg.testsets) == (DEFAULT_GRID, DEFAULT_TESTSETS)
    assert (cfg.normalize_beta, cfg.normalize_model, cfg.nrmse_space) == ("auto", "m5", "log")
    facts = facts_from_rows("p", sloc=3)
    assert (facts.project_id, facts.sloc, facts.parse_warning_count) == ("p", 3, 0)
    assert (facts.entities, facts.relations, facts.warnings) == ([], [], [])
    assert facts == facts_from_rows("p", [], [], 3) != facts_from_rows("p")
    assert FactsArchive(projects=[facts]).projects == [facts]
    assert FactsArchive().projects == []
    with pytest.raises(DuplicateProjectError):
        FactsArchive(projects=[facts, facts_from_rows("p")])
    spec = SynthSpec(n_projects=5, x_range=(1, 10), true_alpha=1.0, true_beta=1.2, seed=7)
    assert (spec.true_k, spec.noise_sigma, spec.seed, spec.y_metric) == (1.0, 0.0, 7, "methods")
    with pytest.raises(ValueError, match="^n_projects must be at least 1$"):
        SynthSpec(n_projects=0, x_range=(1, 10), true_alpha=1.0, true_beta=1.0)


def test_default_grid_is_not_shared_mutable_state():
    cfg = RunConfig(manifest="manifest.txt", out_dir="run")
    for default in (cfg.model_grid, cfg.testsets):
        with pytest.raises(AttributeError):
            default.append(None)


def _records():
    """One fresh instance of each mutable record, every argument made anew."""
    ref = extractor.TypeRef("int")
    syntax = extractor.FileSyntax("A.java", [], "", array("i"), array("i"), sloc=0)
    decl = extractor.TypeDecl("class", "A", 1)
    return [
        ref,
        extractor.FieldDecl("f", ref, 1),
        extractor.MethodDecl("m", None, [], [], 1),
        extractor.InitDecl(1),
        extractor.EnumConst("E", 1),
        decl,
        syntax,
        extractor._TypeInfo(decl, syntax, None),
    ]


def test_mutable_records_share_no_container():
    for first, second in zip(_records(), _records()):
        for name in type(first).__slots__:
            value = getattr(first, name)
            if isinstance(value, (list, dict)):
                assert value is not getattr(second, name), f"{type(first).__name__}.{name}"


def test_bin_repr_leaves_out_the_table():
    text = repr(Bin("< 20", -math.inf, 20.0, metric_columns([]), []))
    assert text == "Bin(label='< 20', low=-inf, high=20.0)"
