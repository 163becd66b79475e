"""Acceptance suite.

Each criterion prints one ``ACCEPTANCE n PASS/FAIL`` line (run with -s to
see them live).  Expected values are frozen reference parameters from a
historical large-corpus run together with the predictions recorded for
them, hand-computed oracles, or independent numeric oracles implemented
here (series expansions, adaptive quadrature, numpy normal equations).
"""

import math
import time
from pathlib import Path

import numpy as np

from javascale.extractor import extract_project
from javascale.facts import EntityKind, RelationKind
from javascale.metrics import metric_columns
from javascale.normalize import decorrelation_report, wmc_summary
from javascale.pipeline import (
    DEFAULT_GRID,
    fit_grid,
    load_config,
    run_pipeline,
)
from javascale.regression import (
    FitResult,
    evaluate_nrmse,
    fit_log_power,
    fit_robust_log_power,
    predict,
)
from javascale.stats import inverse_normal_cdf, student_t_cdf, welch_t_test
from javascale.synth import SplitMix64, SynthSpec, generate, pairs_to_metrics

from conftest import CORPUS_DIR, FOONUMBER_ROOT

# Reference models frozen from the historical 30,914-project corpus run,
# with the predictions recorded for them.
SLOC_MODEL = FitResult(3.5549, 1.0939, 1, 0.93, 0.87, 30914)
METHODS_MODEL = FitResult(1.0949, 1.1055, 1, 0.94, 0.89, 30914)
CALLS_MODEL = FitResult(1.64, 0.9971, 1, 0.94, 0.89, 30914)
INTERFACES_SQ_MODEL = FitResult(0.14, 0.083, 2, 0.72, 0.52, 30914)

# Criterion-3 synthetic corpus: methods-vs-classes law with log-space noise.
RECOVERY_SPEC = SynthSpec(
    n_projects=5000,
    x_range=(10, 10000),
    true_alpha=1.095,
    true_beta=1.1055,
    true_k=1,
    noise_sigma=0.5,
    seed=42,
)


def _report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_1_prediction_reproduction():
    start = time.perf_counter()
    checks = [
        (SLOC_MODEL, 10, 434, 0.005),
        (SLOC_MODEL, 100, 5391, 0.005),
        (SLOC_MODEL, 1000, 66923, 0.005),
        (METHODS_MODEL, 10, 38, 0.005),
        (METHODS_MODEL, 100, 486, 0.005),
        (METHODS_MODEL, 1000, 6195, 0.005),
        (CALLS_MODEL, 50, 255, 0.005),
        (CALLS_MODEL, 500, 2531, 0.005),
        (CALLS_MODEL, 5000, 25144, 0.005),
        (INTERFACES_SQ_MODEL, 10, 1.79, 0.02),
        (INTERFACES_SQ_MODEL, 100, 6.69, 0.02),
        (INTERFACES_SQ_MODEL, 1000, 60.4, 0.02),
    ]
    ok = True
    for model, x, expected, rel in checks:
        got = predict(model, x)
        if abs(got - expected) > rel * expected:
            ok = False
    elapsed = time.perf_counter() - start
    _report(
        1,
        f"12 reference predictions reproduced within tolerance in {elapsed * 1e3:.1f} ms",
        ok and elapsed < 0.1,
    )


def test_criterion_2_ols_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 80))
        xs = np.exp(rng.uniform(0.05, 9.0, n))
        ys = np.exp(rng.uniform(0.05, 9.0, n))
        fit = fit_log_power(xs, ys)
        t = np.log(xs)
        z = np.log(ys)
        design = np.column_stack([np.ones(n), t])
        coef, _, _, _ = np.linalg.lstsq(design, z, rcond=None)
        sse = float(np.sum((z - design @ coef) ** 2))
        sst = float(np.sum((z - z.mean()) ** 2))
        oracle = (float(coef[0]), float(coef[1]), 1.0 - sse / sst)
        for got, want in zip((fit.alpha, fit.beta, fit.r_squared), oracle):
            scale = max(1.0, abs(want))
            worst = max(worst, abs(got - want) / scale)
    elapsed = time.perf_counter() - start
    _report(
        2,
        f"100 random fits match the normal-equation oracle "
        f"(worst rel err {worst:.2e}) in {elapsed:.2f} s",
        worst < 1e-9 and elapsed < 1.0,
    )


def test_criterion_3_parameter_recovery():
    start = time.perf_counter()
    pairs = generate(RECOVERY_SPEC)
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    fit = fit_log_power(xs, ys)
    beta_ok = abs(fit.beta - RECOVERY_SPEC.true_beta) < 0.02
    alpha_ok = abs(fit.alpha - RECOVERY_SPEC.true_alpha) < 0.05
    # corrupt the 5% widest projects: high-leverage gross outliers
    order = sorted(range(len(xs)), key=lambda i: xs[i], reverse=True)
    bad = set(order[: len(xs) // 20])
    ys_out = [y * 100 if i in bad else y for i, y in enumerate(ys)]
    ols = fit_log_power(xs, ys_out)
    rob = fit_robust_log_power(xs, ys_out)
    robust_ok = abs(rob.beta - RECOVERY_SPEC.true_beta) <= abs(
        ols.beta - RECOVERY_SPEC.true_beta
    )
    elapsed = time.perf_counter() - start
    _report(
        3,
        f"beta err {abs(fit.beta - 1.1055):.4f} (<0.02), "
        f"alpha err {abs(fit.alpha - 1.095):.4f} (<0.05), robust beats OLS "
        f"under outliers ({abs(rob.beta - 1.1055):.3f} <= "
        f"{abs(ols.beta - 1.1055):.3f}) in {elapsed:.2f} s",
        beta_ok and alpha_ok and robust_ok and elapsed < 2.0,
    )


def _validation_corpus(seed: int) -> tuple[list[int], list[int]]:
    """Corpus whose law bends away from a single power law between the
    mid-size window and the extremes, the shape the subset-model grid is
    designed to detect.  Extremes follow the base law; the bands adjacent
    to them sit below it."""
    bands = [
        (1, 10, 0.0),
        (10, 50, -0.5),
        (50, 1000, 0.0),
        (1000, 3000, -0.5),
        (3000, 10000, 0.0),
    ]
    total_w = sum(math.log(hi / lo) for lo, hi, _ in bands)
    xs: list[int] = []
    ys: list[int] = []
    for band_index, (lo, hi, shift) in enumerate(bands):
        n = round(20000 * math.log(hi / lo) / total_w)
        spec = SynthSpec(
            n_projects=n,
            x_range=(lo, hi),
            true_alpha=1.095 + shift,
            true_beta=1.1055,
            noise_sigma=0.5,
            seed=seed * 1000003 + band_index,
        )
        for x, y in generate(spec):
            xs.append(x)
            ys.append(y)
    return xs, ys


def test_criterion_4_model_selection_workflow():
    start = time.perf_counter()
    # the eight-subset grid produces one fit row per model
    corpus = metric_columns(pairs_to_metrics(generate(RECOVERY_SPEC)))
    fitted = fit_grid(corpus, DEFAULT_GRID)
    rows_ok = len(fitted) == 8 and all(f.n >= 3 for _, f, _ in fitted)

    # mid-window training generalizes to the excluded extremes better than
    # the full-range baseline, across seeds
    wins = 0
    for seed in range(10):
        xs, ys = _validation_corpus(seed)
        def fit_range(lo, hi):
            sel = [(x, y) for x, y in zip(xs, ys) if lo <= x < hi]
            return fit_log_power([p[0] for p in sel], [p[1] for p in sel])
        full = fit_range(0, math.inf)
        mid = fit_range(50, 1000)
        vsmall = [(x, y) for x, y in zip(xs, ys) if x < 10]
        vlarge = [(x, y) for x, y in zip(xs, ys) if x > 3000]
        def nr(fit, data):
            return evaluate_nrmse(fit, [p[0] for p in data], [p[1] for p in data])
        if nr(mid, vsmall) <= nr(full, vsmall) and nr(mid, vlarge) <= nr(full, vlarge):
            wins += 1
    elapsed = time.perf_counter() - start
    _report(
        4,
        f"8 grid rows fitted; mid-range model beat the baseline on both "
        f"extremes in {wins}/10 seeds in {elapsed:.1f} s",
        rows_ok and wins >= 8 and elapsed < 30.0,
    )


def test_criterion_5_extraction_fidelity():
    facts = extract_project(FOONUMBER_ROOT, "p01_foonumber")
    entities = [(e.entity_id, e.fqn, e.kind) for e in facts.entities]
    entities_ok = entities == [
        (1, "foo", EntityKind.PACKAGE),
        (2, "foo.FooNumber", EntityKind.CLASS),
        (3, "foo.FooNumber.x", EntityKind.FIELD),
        (4, "foo.FooNumber.<init>", EntityKind.CONSTRUCTOR),
        (5, "foo.FooNumber.print", EntityKind.METHOD),
        (6, "foo.FooNumber.main", EntityKind.METHOD),
    ]
    fqn = {e.entity_id: e.fqn for e in facts.entities}
    rels = set()
    for r in facts.relations:
        target = fqn[r.target] if isinstance(r.target, int) else r.target
        rels.add((fqn[r.source], r.kind, target))
    required = [
        ("foo", RelationKind.CONTAINS, "foo.FooNumber"),
        ("foo.FooNumber", RelationKind.CONTAINS, "foo.FooNumber.x"),
        ("foo.FooNumber", RelationKind.CONTAINS, "foo.FooNumber.<init>"),
        ("foo.FooNumber", RelationKind.CONTAINS, "foo.FooNumber.print"),
        ("foo.FooNumber", RelationKind.CONTAINS, "foo.FooNumber.main"),
        ("foo.FooNumber.x", RelationKind.HOLDS, "java.lang.Integer"),
        ("foo.FooNumber.<init>", RelationKind.WRITES, "foo.FooNumber.x"),
        ("foo.FooNumber.print", RelationKind.READS, "foo.FooNumber.x"),
        ("foo.FooNumber.main", RelationKind.INSTANTIATES, "foo.FooNumber.<init>"),
        ("foo.FooNumber.main", RelationKind.CALLS, "foo.FooNumber.print"),
    ]
    relations_ok = all(r in rels for r in required) and any(
        s == "foo.FooNumber.print" and k is RelationKind.CALLS and t.endswith("println")
        for s, k, t in rels
    )
    _report(
        5,
        "sample listing yields the 6 expected entities, all 11 expected "
        f"relations, SLOC={facts.sloc}",
        entities_ok and relations_ok and facts.sloc == 11,
    )


def _erf_series(x: float) -> float:
    """Maclaurin series for erf, summed to float convergence."""
    total = 0.0
    term = x
    n = 0
    while True:
        contrib = term / (2 * n + 1)
        total += contrib
        if abs(contrib) < 1e-18 * max(1.0, abs(total)):
            break
        n += 1
        term *= -x * x / n
    return 2.0 / math.sqrt(math.pi) * total


def _normal_cdf_series(z: float) -> float:
    return 0.5 * (1.0 + _erf_series(z / math.sqrt(2.0)))


def _inverse_normal_series(p: float) -> float:
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _normal_cdf_series(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _t_pdf(x: float, df: float) -> float:
    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(
        df * math.pi
    )
    return c * (1 + x * x / df) ** (-(df + 1) / 2)


def _simpson(f, a, b, fa, fm, fb, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    whole = (b - a) / 6 * (fa + 4 * fm + fb)
    left = (m - a) / 6 * (fa + 4 * flm + fm)
    right = (b - m) / 6 * (fm + 4 * frm + fb)
    if depth <= 0 or abs(left + right - whole) < 15 * tol:
        return left + right + (left + right - whole) / 15
    return _simpson(f, a, m, fa, flm, fm, tol / 2, depth - 1) + _simpson(
        f, m, b, fm, frm, fb, tol / 2, depth - 1
    )


def _t_cdf_quadrature(t: float, df: float) -> float:
    f = lambda x: _t_pdf(x, df)
    a, b = (t, 0.0) if t < 0 else (0.0, t)
    integral = _simpson(f, a, b, f(a), f(0.5 * (a + b)), f(b), 1e-13, 40)
    return 0.5 + (integral if t >= 0 else -integral)


def test_criterion_6_statistics_correctness():
    res = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    welch_ok = (
        abs(res.t_statistic - (-1.0)) < 1e-12
        and abs(res.degrees_of_freedom - 8.0) < 1e-12
        and abs(res.p_value - 0.3466) < 1e-4
    )
    worst_inv = 0.0
    for i in range(1000):
        p = (i + 0.5) / 1000
        worst_inv = max(worst_inv, abs(inverse_normal_cdf(p) - _inverse_normal_series(p)))
    worst_t = 0.0
    for df in (1, 2, 5, 8, 30, 200):
        for t in (-4.0, -1.5, -0.5, 0.25, 1.0, 2.5, 6.0):
            worst_t = max(worst_t, abs(student_t_cdf(t, df) - _t_cdf_quadrature(t, df)))
    _report(
        6,
        f"welch t=-1 df=8 p~0.3466; inverse-normal worst err {worst_inv:.1e} "
        f"vs series oracle; t-CDF worst err {worst_t:.1e} vs quadrature",
        welch_ok and worst_inv < 1e-8 and worst_t < 1e-8,
    )


def test_criterion_7_decorrelation():
    corpus = metric_columns(pairs_to_metrics(generate(RECOVERY_SPEC)))
    matched = decorrelation_report(corpus, "methods", "classes", RECOVERY_SPEC.true_beta)
    naive = decorrelation_report(corpus, "methods", "classes", 1.0)
    _report(
        7,
        f"true-beta |pearson|={abs(matched.pearson_log):.4f} "
        f"|spearman|={abs(matched.spearman):.4f} (<0.05); "
        f"beta=1 pearson={naive.pearson_log:.3f} (>0.25)",
        abs(matched.pearson_log) < 0.05
        and abs(matched.spearman) < 0.05
        and naive.pearson_log > 0.25,
    )


def test_criterion_8_wmc_skewness():
    rng = SplitMix64(777)
    mu, sigma = 1.455, 0.63
    corpus = []
    from javascale.metrics import ProjectMetrics

    for i in range(20000):
        wmc = math.exp(mu + sigma * rng.next_normal())
        corpus.append(
            ProjectMetrics(
                project_id=f"w{i}",
                classes=1000,
                modules=1000,
                methods=max(1, round(wmc * 1000)),
            )
        )
    summary = wmc_summary(metric_columns(corpus))
    center_ok = abs(summary.linear_of_mean_log - 4.28) < 0.05
    lo, hi = summary.one_sd_interval
    interval_ok = abs(lo - 2.28) < 0.02 * 2.28 and abs(hi - 8.00) < 0.02 * 8.00
    skew_ok = summary.mean_linear > summary.linear_of_mean_log
    _report(
        8,
        f"exp(mean_log)={summary.linear_of_mean_log:.3f} (~4.28), "
        f"one-SD interval [{lo:.2f}, {hi:.2f}] (~[2.28, 8.00]), "
        f"linear mean {summary.mean_linear:.3f} strictly greater",
        center_ok and interval_ok and skew_ok,
    )


def test_criterion_9_end_to_end_determinism(tmp_path):
    import json

    start = time.perf_counter()
    template = json.loads(
        (Path(__file__).parent / "fixtures" / "pipeline_config.json").read_text()
    )
    template["manifest"] = str(CORPUS_DIR / "manifest.txt")
    bundles = []
    for name in ("one", "two"):
        cfg = dict(template)
        cfg["out_dir"] = str(tmp_path / name)
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        result = run_pipeline(load_config(cfg_path))
        bundles.append(
            {
                p.relative_to(result.out_dir).as_posix(): p.read_bytes()
                for p in sorted(result.out_dir.rglob("*"))
                if p.is_file()
            }
        )
    elapsed = time.perf_counter() - start
    identical = bundles[0] == bundles[1]
    _report(
        9,
        f"two pipeline runs over the 10-project corpus are byte-identical "
        f"({len(bundles[0])} files) in {elapsed:.2f} s",
        identical and elapsed < 10.0,
    )
