import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from desirables import (
    Composed,
    DomainError,
    ImageError,
    Linear,
    LogShift,
    PhiPoly,
    PhiPower,
    PhiScale,
    PhiTable,
    PowerDiscounted,
    Sqrt,
    audit_admissibility,
)

from desirables._backend import GRID, _segment
from helpers import utility_zoo, reward_window


def test_power_discounted_alpha_zero_is_linear():
    assert PowerDiscounted(0.0).eval(5.0) == 5.0


def test_power_discounted_near_one_tracks_log_plus_one():
    # Exact limit of (x^(1-a) - a)/(1 - a) as a -> 1 is log(x) + 1; the
    # remaining error at a = 0.999 is about (1-a) * log(x)^2 / 2.
    u = PowerDiscounted(0.999)
    assert u.eval(7.0) == pytest.approx(2.947804660860087, abs=1e-12)
    for x in (0.5, 1.0, 7.0, 100.0):
        bound = 0.001 * math.log(x) ** 2 / 2 + 1e-6
        assert abs(u.eval(x) - (math.log(x) + 1.0)) <= bound * 1.1
    tight = PowerDiscounted(0.99999)
    for x in (0.5, 1.0, 7.0, 100.0):
        assert abs(tight.eval(x) - (math.log(x) + 1.0)) <= 1e-3


def test_power_discounted_fixed_point_at_one():
    for alpha in (0.0, 0.1, 0.5, 0.9, 0.999):
        assert PowerDiscounted(alpha).eval(1.0) == 1.0


def test_log_shift_eval():
    assert LogShift().eval(1000.0) == pytest.approx(math.log(1001.0), rel=1e-12)
    assert LogShift().eval(0.0) == 0.0
    assert Linear().eval(0.0) == 0.0


def test_inverse_examples():
    assert Linear().inverse(3.5) == 3.5
    assert LogShift().inverse(math.log(1001.0)) == pytest.approx(1000.0, abs=1e-7)
    assert Sqrt().inverse(10.0) == pytest.approx(100.0, rel=1e-12)


def test_alpha_to_zero_limit():
    u = PowerDiscounted(1e-9)
    for x in (0.5, 1.0, 10.0):
        assert abs(u.eval(x) - x) <= 1e-6


@pytest.mark.parametrize("make", [Linear, LogShift, Sqrt, lambda: PowerDiscounted(0.5)])
def test_monotone_on_random_pairs(make):
    u = make()
    rng = np.random.default_rng(1)
    lo, hi = reward_window(u)
    lo = max(lo, u.domain_lo + 1e-6)
    pairs = np.sort(rng.uniform(lo, hi, size=(1000, 2)), axis=1)
    keep = pairs[:, 0] < pairs[:, 1]
    for x1, x2 in pairs[keep]:
        assert u.eval(x1) < u.eval(x2)


def test_round_trip_all_kinds():
    rng = np.random.default_rng(2)
    for u in utility_zoo(rng):
        lo, hi = reward_window(u)
        xs = rng.uniform(max(lo, u.domain_lo + 1e-6), hi, size=1000)
        for x in xs:
            back = u.inverse(u.eval(float(x)))
            assert back == pytest.approx(x, rel=1e-10, abs=1e-12)


@given(st.floats(min_value=-0.999, max_value=1e6, allow_nan=False))
def test_log_shift_round_trip_hypothesis(x):
    u = LogShift()
    assert u.inverse(u.eval(x)) == pytest.approx(x, rel=1e-10, abs=1e-10)


@given(st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=0.0, max_value=0.99))
def test_power_discounted_round_trip_hypothesis(x, alpha):
    u = PowerDiscounted(alpha)
    assert u.inverse(u.eval(x)) == pytest.approx(x, rel=1e-9)


def test_audit_linear_all_flags():
    report = audit_admissibility(Linear(), grid_n=101)
    assert report.strictly_increasing
    assert report.zero_normalized is True
    assert report.image_interval
    assert report.violations == ()


def test_audit_power_discounted_zero_not_applicable():
    report = audit_admissibility(PowerDiscounted(0.5), grid_n=101)
    assert report.strictly_increasing
    assert report.zero_normalized is None
    assert report.grid_lo == pytest.approx(0.01)


def test_audit_flags_non_monotone_composition():
    bad = Composed(Linear(), PhiPoly((0.0, -1.0, 0.0, 1.0)))  # w^3 - w dips on (-1, 1)
    report = audit_admissibility(bad, grid_n=101, lo=-2.0, hi=2.0)
    assert not report.strictly_increasing
    assert not report.image_interval
    assert report.violations


def test_audit_grid_count_validated():
    with pytest.raises(ValueError):
        audit_admissibility(Linear(), grid_n=2)


@pytest.mark.parametrize("lo, hi", [(10.0, 0.0), (1.0, 1.0), (math.nan, 1.0)])
def test_audit_window_must_run_upwards(lo, hi):
    with pytest.raises(ValueError, match="need lo < hi"):
        audit_admissibility(Linear(), 5, lo=lo, hi=hi)


def test_domain_errors():
    with pytest.raises(DomainError):
        LogShift().eval(-1.0)
    with pytest.raises(DomainError):
        Sqrt().eval(-0.1)
    with pytest.raises(DomainError):
        PowerDiscounted(0.5).eval(0.0)


def test_image_errors():
    with pytest.raises(ImageError):
        Sqrt().inverse(-0.5)
    u = PowerDiscounted(0.5)
    with pytest.raises(ImageError):
        u.inverse(-1.0)  # image is (-alpha/(1-alpha), inf) = (-1, inf)
    assert u.inverse(-0.99) > 0


def test_composed_bisection_inverse():
    u = Composed(LogShift(), PhiTable((-2.0, -1.0, 0.0, 1.0, 3.0), (-5.0, -1.5, 0.0, 2.0, 4.0)))
    for x in (-0.5, 0.0, 0.3, 5.0, 120.0):
        assert u.inverse(u.eval(x)) == pytest.approx(x, rel=1e-9, abs=1e-9)
    cubic = Composed(LogShift(), PhiPoly((0.0, 1.0, 0.0, 2.0)))  # w + 2 w^3, increasing
    for x in (-0.9, -0.1, 0.0, 2.0, 40.0):
        assert cubic.inverse(cubic.eval(x)) == pytest.approx(x, rel=1e-9, abs=1e-9)


def test_phi_validation():
    with pytest.raises(ValueError):
        PhiScale(0.0)
    with pytest.raises(ValueError):
        PhiPower(-1.0)
    with pytest.raises(ValueError):
        PhiPoly((1.0, 2.0))  # constant term breaks phi(0) = 0
    with pytest.raises(ValueError):
        PhiTable((1.0, 2.0), (1.0, 2.0))  # does not bracket 0
    with pytest.raises(ValueError):
        PhiTable((-1.0, 1.0), (1.0, 2.0))  # phi(0) != 0
    with pytest.raises(ValueError):
        PowerDiscounted(1.0)


def test_phi_power_is_odd_and_increasing():
    phi = PhiPower(1.5)
    assert phi(0.0) == 0.0
    assert phi(-2.0) == -phi(2.0)
    xs = np.linspace(-3, 3, 41)
    vals = [phi(float(x)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# -- array evaluation ----------------------------------------------------------
def _array_zoo():
    table = PhiTable((-10.0, 0.0, 1.0, 5.0, 100.0), (-20.0, 0.0, 2.0, 6.0, 50.0))
    zoo = [Linear(), LogShift(), Sqrt(), PowerDiscounted(0.35)]
    for phi in (PhiScale(2.5), PhiPower(0.6), PhiPoly((0.0, 1.0, 0.1, 0.01)), table):
        zoo += [Composed(LogShift(), phi), Composed(Sqrt(), phi)]
    return zoo


def test_array_eval_matches_scalar_elementwise():
    x = np.concatenate([np.linspace(0.001, 3.0, 37), np.geomspace(3.0, 5e4, 40)]).reshape(7, 11)
    for u in _array_zoo():
        grid = u.eval(x)
        assert grid.shape == x.shape
        scalar = np.array([[u.eval(float(v)) for v in row] for row in x])
        # numpy's log1p/pow may differ from libm's in the last bits.
        np.testing.assert_allclose(grid, scalar, rtol=4e-15, atol=0.0, err_msg=repr(u))


def test_array_phi_table_extrapolates_like_scalar():
    table = PhiTable((-1.0, 0.0, 2.0), (-3.0, 0.0, 1.0))
    w = np.array([-50.0, -1.0, -0.5, 0.0, 1.0, 2.0, 2.0001, 80.0])
    assert table(w, GRID).tolist() == [table(float(v)) for v in w]


@st.composite
def table_knots(draw):
    # The knots of an identity PhiTable: strictly increasing, bracketing 0.
    below = draw(st.lists(st.floats(-1e6, 0.0), min_size=1, max_size=4))
    above = draw(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=4))
    xs = tuple(sorted({*below, *above}))
    assume(len(xs) >= 2)
    return PhiTable(xs, xs).xs


@given(table_knots(), st.data())
def test_scalar_segment_is_the_clipped_searchsorted_index(xs, data):
    w = data.draw(st.one_of(st.sampled_from(xs), st.floats(allow_nan=False)), label="w")
    expected = np.clip(np.searchsorted(xs, w, side="right") - 1, 0, len(xs) - 2)
    assert _segment(xs, w) == int(expected)
    # NaN, placed after every knot by searchsorted, is clipped to the last interval.
    nan_index = np.clip(np.searchsorted(xs, math.nan, side="right") - 1, 0, len(xs) - 2)
    assert _segment(xs, math.nan) == int(nan_index) == len(xs) - 2


def test_phi_table_maps_nan_to_nan_on_scalar_and_grid():
    table = PhiTable((-1.0, 0.0, 2.0), (-3.0, 0.0, 1.0))
    assert math.isnan(table(math.nan))
    assert math.isnan(table(np.array([math.nan]), GRID)[0])


def test_array_eval_names_first_reward_outside_domain():
    x = np.array([[4.0, 1.0], [-0.5, -3.0]])
    with pytest.raises(DomainError, match=r"sqrt: reward -0\.5 outside domain"):
        Sqrt().eval(x)
    with pytest.raises(DomainError, match=r"reward nan outside"):
        LogShift().eval(np.array([1.0, math.nan, -2.0]))


@pytest.mark.parametrize(
    "u, x",
    [
        (Composed(Linear(), PhiPower(400.0)), 10.0),  # the float power raises OverflowError
        (Composed(Linear(), PhiPoly((0.0, 1e300, 1e300))), 1e10),  # the sum reaches inf
    ],
    ids=["power", "poly"],
)
def test_eval_rejects_a_utility_that_is_not_finite(u, x):
    message = f"composed: utility of reward {x!r} is not finite"
    with pytest.raises(DomainError, match=re.escape(message)):
        u.eval(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        with pytest.raises(DomainError, match=re.escape(message)):
            u.eval(np.array([[1.0, 2.0], [x, 1.0]]))
    assert u.eval(np.array([1.0, 2.0])).tolist() == [u.eval(1.0), u.eval(2.0)]
