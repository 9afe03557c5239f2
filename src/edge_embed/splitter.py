"""Optimal division of one stream across parallel paths.

Sending z_k bits down a path with coefficient A_k (seconds per bit) takes
A_k * z_k seconds, and a transfer is done when its slowest branch is done.
The minimum of that bottleneck subject to sum(z) = s has a closed form:
every branch finishes at the same instant tau = s / sum(1/A_k), giving
z_k = tau / A_k. ``_equalize`` is its one copy: ``optimal_split`` and, on
the path catalog's terms, the embedders' stream mapping both call it. A
bisection search over tau is kept alongside as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .model import _FLOAT_MAX, _is_real, _sum_left


@dataclass(frozen=True)
class SplitProblem:
    """Path coefficients (s/bit, all finite > 0) and a stream size in bits, as floats."""

    coefficients: tuple[float, ...]
    stream_size: float

    def __post_init__(self):
        if not isinstance(self.coefficients, (tuple, list)) or not all(
            map(_is_real, (*self.coefficients, self.stream_size))
        ):
            raise ValidationError("path coefficients and stream size must be real numbers")
        if not self.coefficients:
            raise ValidationError("a split needs at least one path")
        # compared exactly first: float() of an int past the float range overflows
        if not all(abs(x) <= _FLOAT_MAX for x in (*self.coefficients, self.stream_size)):
            raise ValidationError("path coefficients and stream size must be finite")
        object.__setattr__(self, "coefficients", tuple(map(float, self.coefficients)))
        object.__setattr__(self, "stream_size", float(self.stream_size))
        if any(a <= 0 for a in self.coefficients):
            raise ValidationError("path coefficients must be > 0")
        if self.stream_size <= 0:
            raise ValidationError("stream size must be > 0 bits")


@dataclass(frozen=True)
class SplitSolution:
    """Per-path bit allocations and the common finishing time."""

    allocations: tuple[float, ...]
    bottleneck_time: float


def _equalize(
    coefficients: tuple[float, ...], bits: float, inv_sum: float, a_max: float, a_min: float
) -> tuple[float, tuple[float, ...]]:
    """``(tau, allocations)`` from the split's terms: ``inv_sum`` = sum(1/A_k)
    in order, and the largest and smallest A_k, which bound every allocation
    since division is monotone. Input no split accepts, nan terms included,
    raises SplitProblem's message; any other failure, the float-range one."""
    tau = bits / inv_sum
    if not (0.0 < tau < math.inf and 0.0 < tau / a_max and tau / a_min < math.inf):
        SplitProblem(coefficients, bits)  # raises for input no split accepts
        raise ValidationError(
            f"the split leaves the float range: tau = {tau!r} s, "
            f"smallest allocation {tau / a_max!r} bits"
        )
    return tau, tuple(tau / a for a in coefficients)


def optimal_split(problem: SplitProblem) -> SplitSolution:
    """Closed-form bottleneck-equalizing split.

    All branches finish at tau = s / sum(1/A_k); each path carries
    z_k = tau / A_k bits. Every allocation is strictly positive: a problem
    whose tau or some z_k over- or underflows raises ValidationError.
    """
    a = problem.coefficients
    inv_sum = _sum_left(1.0 / x for x in a)
    tau, allocations = _equalize(a, problem.stream_size, inv_sum, max(a), min(a))
    return SplitSolution(allocations=allocations, bottleneck_time=tau)


def bisection_oracle(problem: SplitProblem) -> float:
    """Minimal feasible bottleneck time found by binary search.

    A deadline tau is feasible when the paths can jointly move the whole
    stream by then, i.e. sum(tau / A_k) >= s. Feasibility is monotone in
    tau, so bisection over [0, s * min(A_k)] converges to the optimum.
    The search runs until the interval can no longer shrink in floating
    point, so it holds full precision at every scale.
    """
    s = problem.stream_size
    lo = 0.0
    hi = s * min(problem.coefficients)  # one path alone meets this deadline
    # stops once no float lies strictly between lo and hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        moved = 0.0  # bits the paths move by the deadline mid
        for a in problem.coefficients:
            moved += mid / a
        if moved >= s:  # mid is feasible
            hi = mid
        else:
            lo = mid
    return hi

