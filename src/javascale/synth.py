"""Seeded synthetic corpora with a known ground-truth scaling law.

The generator is built on SplitMix64 so corpora are bit-identical across
runs, machines, and implementations: every project draws one uniform for
its size and one for its noise, in that order.  Values are rounded to
integers (floored at zero) to behave like real metric counts.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import OutOfRangeError
from .metrics import CAPS, SUM_RULES, ProjectMetrics
from .stats import inverse_normal_cdf

_MASK64 = (1 << 64) - 1
ID_PREFIX = "synth"  # each row's id is this and its zero-padded index


class SplitMix64:
    """Minimal 64-bit-state PRNG; the increment/mix constants are the
    standard SplitMix64 ones."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        """Uniform draw strictly inside (0, 1)."""
        return ((self.next_u64() >> 11) + 0.5) * 2.0**-53

    def next_normal(self) -> float:
        return inverse_normal_cdf(self.next_unit())


class _SynthSpecRow(NamedTuple):
    n_projects: int
    x_range: tuple[float, float]  # log-uniform support
    true_alpha: float
    true_beta: float
    true_k: float = 1.0
    noise_sigma: float = 0.0
    seed: int = 0
    x_metric: str = "classes"
    y_metric: str = "methods"


class SynthSpec(_SynthSpecRow):
    """An immutable named tuple whose construction checks the settings."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        lo, hi = self.x_range
        if lo <= 0 or hi <= 0 or lo > hi:
            raise ValueError("x_range must be positive with lo <= hi")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if self.n_projects < 1:  # a metrics table holds at least one row
            raise ValueError("n_projects must be at least 1")
        if self.x_metric == self.y_metric:  # one column would hold y and lose x
            raise ValueError(f"x_metric and y_metric are both {self.x_metric!r}")
        return self


def _round_floor_zero(value: float) -> int:
    return max(int(math.floor(value + 0.5)), 0)


def generate(spec: SynthSpec) -> list[tuple[int, int]]:
    """Generate (x, y) metric pairs following the requested scaling law.

    x is log-uniform over ``x_range``; y follows
    ``exp(alpha + beta * (log x)^k + eps)`` with Normal(0, sigma) noise in
    log space.  Both are integer-rounded with a floor at zero.
    """
    rng = SplitMix64(spec.seed)
    lo, hi = spec.x_range
    log_lo = math.log(lo)
    log_hi = math.log(hi)
    pairs: list[tuple[int, int]] = []
    for _ in range(spec.n_projects):
        u_x = rng.next_unit()
        u_eps = rng.next_unit()
        x = math.exp(log_lo + u_x * (log_hi - log_lo))
        eps = spec.noise_sigma * inverse_normal_cdf(u_eps) if spec.noise_sigma else 0.0
        log_x = math.log(x)
        y = math.exp(spec.true_alpha + spec.true_beta * log_x**spec.true_k + eps)
        pairs.append((_round_floor_zero(x), _round_floor_zero(y)))
    return pairs


def pairs_to_metrics(
    pairs: list[tuple[int, int]],
    *,
    x_metric: str = "classes",
    y_metric: str = "methods",
) -> list[ProjectMetrics]:
    """Wrap raw (x, y) pairs as ProjectMetrics rows, planted through the row
    rules: a derived metric's value goes into its first part and a capped
    one raises its cap.  A pair whose x or y the rules then change in any
    row, such as a derived metric and one of its parts, is an OutOfRangeError."""
    first_part = {column: parts[0] for column, parts, _ in SUM_RULES}
    out: list[ProjectMetrics] = []
    width = len(str(max(len(pairs) - 1, 1)))
    for idx, (x, y) in enumerate(pairs):
        planted = {x_metric: x, y_metric: y}
        counts = {first_part.get(name, name): value for name, value in planted.items()}
        for name, cap in CAPS.items():
            if name in planted:
                counts[cap] = max(counts.get(cap, 0), planted[name])
        row = ProjectMetrics.derive(f"{ID_PREFIX}{idx:0{width}d}", **counts)
        for name, value in planted.items():
            if getattr(row, name) != value:
                raise OutOfRangeError(
                    f"x_metric {x_metric!r} and y_metric {y_metric!r} cannot both be planted:"
                    f" the row rules give {row.project_id} {name} {getattr(row, name)}, not {value}"
                )
        out.append(row)
    return out


def generate_metrics(spec: SynthSpec) -> list[ProjectMetrics]:
    return pairs_to_metrics(generate(spec), x_metric=spec.x_metric, y_metric=spec.y_metric)
