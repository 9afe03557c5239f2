"""Optimal division of one stream across parallel paths.

Sending z_k bits down a path with coefficient A_k (seconds per bit) takes
A_k * z_k seconds, and a transfer is done when its slowest branch is done.
The minimum of that bottleneck subject to sum(z) = s has a closed form:
every branch finishes at the same instant tau = s / sum(1/A_k), giving
z_k = tau / A_k. A bisection search over tau is kept alongside as an
independent check of the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class SplitProblem:
    """Path coefficients (s/bit, all finite > 0) and a stream size in bits."""

    coefficients: tuple[float, ...]
    stream_size: float

    def __post_init__(self):
        if not self.coefficients:
            raise ValidationError("a split needs at least one path")
        if not all(map(math.isfinite, (*self.coefficients, self.stream_size))):
            raise ValidationError("path coefficients and stream size must be finite")
        if any(a <= 0 for a in self.coefficients):
            raise ValidationError("path coefficients must be > 0")
        if self.stream_size <= 0:
            raise ValidationError("stream size must be > 0 bits")


@dataclass(frozen=True)
class SplitSolution:
    """Per-path bit allocations and the common finishing time."""

    allocations: tuple[float, ...]
    bottleneck_time: float


def optimal_split(problem: SplitProblem) -> SplitSolution:
    """Closed-form bottleneck-equalizing split.

    All branches finish at tau = s / sum(1/A_k); each path carries
    z_k = tau / A_k bits. Every allocation is strictly positive: a problem
    whose tau or some z_k over- or underflows raises ValidationError.
    """
    inv_sum = sum(1.0 / a for a in problem.coefficients)
    tau = problem.stream_size / inv_sum
    allocations = tuple(tau / a for a in problem.coefficients)
    if not all(0.0 < x < math.inf for x in (tau, *allocations)):
        raise ValidationError(
            f"the split leaves the float range: tau = {tau!r} s, "
            f"smallest allocation {min(allocations)!r} bits"
        )
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

