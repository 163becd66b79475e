import hashlib
import math
from itertools import permutations

import pytest

from javascale.errors import OutOfRangeError
from javascale.metrics import METRIC_COLUMNS
from javascale.regression import fit_log_power
from javascale.store import export_metrics_table
from javascale.synth import SplitMix64, SynthSpec, generate, generate_metrics


class TestSplitMix64:
    def test_known_sequence_from_seed_zero(self):
        rng = SplitMix64(0)
        # published SplitMix64 reference outputs for state 0
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_unit_open_interval(self):
        rng = SplitMix64(123)
        for _ in range(1000):
            u = rng.next_unit()
            assert 0.0 < u < 1.0

    def test_normal_moments(self):
        rng = SplitMix64(5)
        draws = [rng.next_normal() for _ in range(20000)]
        mean = sum(draws) / len(draws)
        var = sum((d - mean) ** 2 for d in draws) / (len(draws) - 1)
        assert mean == pytest.approx(0.0, abs=0.03)
        assert var == pytest.approx(1.0, abs=0.05)


class TestGenerate:
    def test_zero_noise_lands_on_the_curve(self):
        spec = SynthSpec(
            n_projects=50, x_range=(2, 5000), true_alpha=1.0, true_beta=1.1, seed=3
        )
        for x, y in generate(spec):
            assert x >= 2
            # x was rounded after sampling, so y must land in the image of
            # the curve over the pre-rounding window
            lo = math.exp(1.0) * (x - 0.5) ** 1.1
            hi = math.exp(1.0) * (x + 0.5) ** 1.1
            assert lo - 1 <= y <= hi + 1

    def test_determinism(self):
        spec = SynthSpec(
            n_projects=200, x_range=(1, 1000), true_alpha=1.0, true_beta=1.0,
            noise_sigma=0.5, seed=42,
        )
        assert generate(spec) == generate(spec)

    def test_different_seeds_differ(self):
        base = SynthSpec(
            n_projects=50, x_range=(1, 1000), true_alpha=1.0, true_beta=1.0,
            noise_sigma=0.5, seed=1,
        )
        other = SynthSpec(
            n_projects=50, x_range=(1, 1000), true_alpha=1.0, true_beta=1.0,
            noise_sigma=0.5, seed=2,
        )
        assert generate(base) != generate(other)

    def test_parameter_recovery(self):
        spec = SynthSpec(
            n_projects=2000, x_range=(10, 10000), true_alpha=1.095,
            true_beta=1.1055, noise_sigma=0.5, seed=42,
        )
        pairs = generate(spec)
        fit = fit_log_power([p[0] for p in pairs], [p[1] for p in pairs])
        assert fit.beta == pytest.approx(1.1055, abs=0.02)
        assert fit.alpha == pytest.approx(1.095, abs=0.05)

    def test_log_y_roughly_symmetric(self):
        spec = SynthSpec(
            n_projects=5000, x_range=(1, 10000), true_alpha=1.095,
            true_beta=1.1055, noise_sigma=0.5, seed=13,
        )
        logs = [math.log(y) for _, y in generate(spec) if y > 0]
        n = len(logs)
        mean = sum(logs) / n
        m2 = sum((v - mean) ** 2 for v in logs) / n
        m3 = sum((v - mean) ** 3 for v in logs) / n
        skew = m3 / m2**1.5
        assert abs(skew) < 0.1

    def test_rounding_floors_at_zero(self):
        spec = SynthSpec(
            n_projects=500, x_range=(1, 2), true_alpha=-3.0, true_beta=0.1,
            noise_sigma=1.0, seed=7,
        )
        for x, y in generate(spec):
            assert x >= 0 and y >= 0

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(n_projects=5, x_range=(0, 10), true_alpha=1, true_beta=1)
        with pytest.raises(ValueError):
            SynthSpec(
                n_projects=5, x_range=(1, 10), true_alpha=1, true_beta=1,
                noise_sigma=-1,
            )
        with pytest.raises(ValueError, match="^n_projects must be at least 1$"):
            SynthSpec(n_projects=0, x_range=(1, 10), true_alpha=1, true_beta=1)
        with pytest.raises(ValueError, match="^x_metric and y_metric are both 'classes'$"):
            SynthSpec(
                n_projects=5, x_range=(1, 10), true_alpha=1, true_beta=1,
                x_metric="classes", y_metric="classes",
            )


class TestGenerateMetrics:
    def test_rows_keep_record_invariants(self):
        spec = SynthSpec(
            n_projects=25, x_range=(1, 100), true_alpha=1.0, true_beta=1.1,
            noise_sigma=0.3, seed=21,
        )
        corpus = generate_metrics(spec)
        assert len(corpus) == 25
        ids = [pm.project_id for pm in corpus]
        assert len(set(ids)) == 25
        for pm in corpus:
            assert pm.modules == pm.classes + pm.interfaces

    def test_custom_metric_columns(self):
        spec = SynthSpec(
            n_projects=10, x_range=(10, 100), true_alpha=0.1176, true_beta=0.5641,
            seed=4, x_metric="sloc", y_metric="efferent_coupling",
        )
        corpus = generate_metrics(spec)
        for pm in corpus:
            assert pm.sloc >= 10
            assert pm.used_total == pm.used_internal + pm.used_jdk + pm.used_external


# every ordered pair of distinct metrics, each planted as x and y
METRIC_PAIRS = list(permutations(METRIC_COLUMNS[1:], 2))


def _pair_spec(x_metric: str, y_metric: str) -> SynthSpec:
    return SynthSpec(
        n_projects=200, x_range=(2, 2000), true_alpha=0.5, true_beta=1.0,
        noise_sigma=0.4, seed=7, x_metric=x_metric, y_metric=y_metric,
    )


def _holds_planted(spec: SynthSpec, rows) -> bool:
    planted = [(getattr(r, spec.x_metric), getattr(r, spec.y_metric)) for r in rows]
    return planted == generate(spec)


# sha256 over the metrics tables of the 166 pairs that hold their planted
# values and name no capped metric (dui, if_count), in METRIC_PAIRS order,
# each preceded by its "x~y" line
PLANTED_TABLES_SHA256 = "3dbaa59400dfaf16c9a8bab0c857c309e359ad836080a1534e0cd41267baac55"


class TestEveryMetricPair:
    def test_planted_tables_are_pinned(self, tmp_path):
        digest = hashlib.sha256()
        pinned = 0
        for x_metric, y_metric in METRIC_PAIRS:
            if {x_metric, y_metric} & {"dui", "if_count"}:
                continue
            spec = _pair_spec(x_metric, y_metric)
            try:
                rows = generate_metrics(spec)
            except ValueError:  # refused: pinned by the test below
                continue
            if not _holds_planted(spec, rows):
                continue
            export_metrics_table(rows, tmp_path / "t.csv")
            digest.update(f"{x_metric}~{y_metric}\n".encode())
            digest.update((tmp_path / "t.csv").read_bytes())
            pinned += 1
        assert pinned == 166
        assert digest.hexdigest() == PLANTED_TABLES_SHA256

    @pytest.mark.parametrize("x_metric, y_metric", METRIC_PAIRS)
    def test_each_pair_holds_its_planted_values_or_is_refused(self, x_metric, y_metric):
        spec = _pair_spec(x_metric, y_metric)
        try:
            rows = generate_metrics(spec)
        except OutOfRangeError as exc:
            assert str(exc).startswith(f"x_metric {x_metric!r} and y_metric {y_metric!r} ")
        else:
            assert _holds_planted(spec, rows)
