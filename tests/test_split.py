"""Stream-splitting tests: closed form vs. an independent bisection oracle."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edge_embed import (
    SplitProblem,
    ValidationError,
    bisection_oracle,
    optimal_split,
)

# ---------------------------------------------------------------------------
# hand-checked examples
# ---------------------------------------------------------------------------


def test_two_path_example():
    # coefficients 0.5 and 0.25 s/bit, 6 bits:
    # tau = 6 / (2 + 4) = 1.0; allocations 2 and 4 bits.
    sol = optimal_split(SplitProblem(coefficients=(0.5, 0.25), stream_size=6.0))
    assert sol.bottleneck_time == 1.0
    assert sol.allocations == (2.0, 4.0)


def test_single_path_degenerates_to_direct_transfer():
    sol = optimal_split(SplitProblem(coefficients=(0.125,), stream_size=16.0))
    assert sol.allocations == (16.0,)
    assert sol.bottleneck_time == 2.0


def test_equal_paths_split_evenly():
    sol = optimal_split(SplitProblem(coefficients=(0.5, 0.5, 0.5, 0.5), stream_size=8.0))
    assert sol.allocations == (2.0, 2.0, 2.0, 2.0)
    assert sol.bottleneck_time == 1.0


def test_bisection_oracle_matches_on_example():
    problem = SplitProblem(coefficients=(0.5, 0.25), stream_size=6.0)
    assert bisection_oracle(problem) == pytest.approx(1.0, rel=1e-9)
    # far below any absolute tolerance: the search still runs to float resolution
    tiny = SplitProblem(coefficients=(1e-20, 1e-20), stream_size=1.0)
    assert bisection_oracle(tiny) == optimal_split(tiny).bottleneck_time


@pytest.mark.parametrize(
    "coefficients, size",
    [((1e308, 1e308), 3.0), ((1e-300,), 1e-300)],
    ids=["start-overflows", "start-underflows"],
)
def test_bisection_oracle_rejects_a_start_outside_the_float_range(coefficients, size):
    # the search starts from size * min(A_k): 3e308 is inf and 1e-600 is 0,
    # where it returned that start as the bottleneck time
    with pytest.raises(ValidationError, match="^the bisection oracle leaves the float range$"):
        bisection_oracle(SplitProblem(coefficients, size))


def test_problem_validation():
    with pytest.raises(ValueError):
        SplitProblem(coefficients=(), stream_size=1.0)
    with pytest.raises(ValueError):
        SplitProblem(coefficients=(0.5, -0.1), stream_size=1.0)
    with pytest.raises(ValueError):
        SplitProblem(coefficients=(0.5,), stream_size=0.0)
    # bools, text, None, complex numbers and a bare number are not split
    # terms; an int past the float range is not finite, and a real whose
    # float is 0 is not > 0
    for coefficients, size, message in [
        ("12", 1.0, "real numbers"),
        ((1.0,), "5", "real numbers"),
        ((1.0,), None, "real numbers"),
        ((1 + 0j,), 1.0, "real numbers"),
        (3, 1.0, "real numbers"),
        ((True,), 2.0, "real numbers"),
        ((1.0,), True, "real numbers"),
        ((1.0,), 10**400, "finite"),
        ((Fraction(1, 10**400),), 1.0, "> 0"),
    ]:
        with pytest.raises(ValidationError, match=message):
            SplitProblem(coefficients, size)


def test_problem_stores_its_terms_as_floats():
    problem = SplitProblem([np.float64(0.5), 1, Fraction(1, 4)], 6)
    assert problem == SplitProblem((0.5, 1.0, 0.25), 6.0)
    assert all(type(x) is float for x in (*problem.coefficients, problem.stream_size))


def test_split_outside_float_range_is_rejected():
    # tau = 1e-300 s is fine, but the slow path's share underflows to 0 bits
    problem = SplitProblem(coefficients=(1e-300, 1e300), stream_size=1.0)
    with pytest.raises(ValidationError, match="leaves the float range"):
        optimal_split(problem)


# ---------------------------------------------------------------------------
# properties (derandomized: the suite stays reproducible run to run)
# ---------------------------------------------------------------------------

coeff_lists = st.lists(
    st.floats(min_value=1e-9, max_value=10.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=20,
)
sizes = st.floats(min_value=1e-3, max_value=1e8, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=200)
@given(coeffs=coeff_lists, size=sizes)
def test_split_conserves_and_equalizes(coeffs, size):
    problem = SplitProblem(coefficients=tuple(coeffs), stream_size=size)
    sol = optimal_split(problem)
    # every branch carries a positive share
    assert all(z > 0 for z in sol.allocations)
    # shares add back up to the stream
    assert sum(sol.allocations) == pytest.approx(size, rel=1e-9)
    # all branches finish at the bottleneck instant
    for a, z in zip(coeffs, sol.allocations):
        assert a * z == pytest.approx(sol.bottleneck_time, rel=1e-9)
    # never slower than pushing everything down the fastest path
    assert sol.bottleneck_time <= size * min(coeffs) * (1 + 1e-12)


@settings(derandomize=True, max_examples=200)
@given(coeffs=coeff_lists, size=sizes)
def test_closed_form_matches_full_precision_bisection(coeffs, size):
    problem = SplitProblem(coefficients=tuple(coeffs), stream_size=size)
    closed = optimal_split(problem).bottleneck_time
    searched = bisection_oracle(problem)
    assert searched == pytest.approx(closed, rel=1e-9)


@settings(derandomize=True, max_examples=100)
@given(coeffs=coeff_lists, size=sizes, extra=st.floats(min_value=1e-6, max_value=10.0))
def test_extra_path_strictly_helps(coeffs, size, extra):
    base = optimal_split(SplitProblem(tuple(coeffs), size)).bottleneck_time
    widened = optimal_split(SplitProblem(tuple(coeffs) + (extra,), size)).bottleneck_time
    assert widened < base


@settings(derandomize=True, max_examples=100)
@given(coeffs=coeff_lists, size=sizes, factor=st.floats(min_value=0.1, max_value=10.0))
def test_split_scales_linearly_with_stream_size(coeffs, size, factor):
    base = optimal_split(SplitProblem(tuple(coeffs), size))
    scaled = optimal_split(SplitProblem(tuple(coeffs), size * factor))
    assert scaled.bottleneck_time == pytest.approx(base.bottleneck_time * factor, rel=1e-9)

