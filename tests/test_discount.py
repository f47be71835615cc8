import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from desirables import (
    DomainError,
    Exponential,
    GeneralizedHyperbolic,
    Hybrid,
    Hyperbolic,
    InverseLog,
    MissingArgument,
    PhiPoly,
    PhiPower,
    PhiScale,
    PhiTable,
    QuasiHyperbolic,
    ScaleDependent,
    StateDependent,
    TabulatedEta,
    UnknownState,
    check_scale_monotonicity,
    factor,
    uses_states,
)
from desirables import _backend


def _all_kinds():
    return [
        (Exponential(0.5), None, None),
        (Hyperbolic(0.5), None, None),
        (QuasiHyperbolic(0.7, 0.95), None, None),
        (GeneralizedHyperbolic(0.2, 2.0), None, None),
        (ScaleDependent(Exponential(1.0), InverseLog()), 100.0, None),
        (StateDependent({"s1": 0.05, "s2": 0.15}), None, "s1"),
        (Hybrid(0.5, Exponential(0.5), Hyperbolic(1.0)), None, None),
    ]


def test_factor_examples():
    assert Hyperbolic(0.5).factor(1.0) == pytest.approx(1 / 1.5, rel=1e-12)
    assert GeneralizedHyperbolic(0.2, 2.0).factor(5.0) == pytest.approx(0.25, abs=1e-15)
    assert Hybrid(0.5, Exponential(0.5), Hyperbolic(1.0)).factor(0.0) == 1.0
    assert StateDependent({"s1": 0.05}).factor(5.0, s="s1") == pytest.approx(
        math.exp(-0.25), rel=1e-12
    )


def test_normalized_to_one_at_time_zero():
    for d, x, s in _all_kinds():
        assert d.factor(0.0, x, s) == 1.0


def test_monotone_decay_random():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        kind = rng.integers(7)
        if kind == 0:
            d, x, s = Exponential(rng.uniform(0.05, 2)), None, None
        elif kind == 1:
            d, x, s = Hyperbolic(rng.uniform(0.05, 2)), None, None
        elif kind == 2:
            d, x, s = QuasiHyperbolic(rng.uniform(0.3, 1.0), rng.uniform(0.5, 0.99)), None, None
        elif kind == 3:
            d, x, s = GeneralizedHyperbolic(rng.uniform(0.05, 2), rng.uniform(0.2, 4)), None, None
        elif kind == 4:
            d, x, s = ScaleDependent(Exponential(rng.uniform(0.1, 2)), InverseLog()), rng.uniform(2, 500), None
        elif kind == 5:
            d, x, s = StateDependent({"a": rng.uniform(0.05, 1)}), None, "a"
        else:
            d, x, s = Hybrid(rng.uniform(0, 1), Exponential(rng.uniform(0.1, 1)), Hyperbolic(rng.uniform(0.1, 1))), None, None
        t1, t2 = sorted(rng.uniform(0, 30, size=2))
        f1, f2 = d.factor(t1, x, s), d.factor(t2, x, s)
        assert 0 < f2 <= f1 <= 1
        if t1 < t2:
            assert f2 < f1 or (isinstance(d, Hybrid) and d.lam in (0.0, 1.0))


def test_generalized_hyperbolic_nests_hyperbolic():
    k = 0.7
    gh, h = GeneralizedHyperbolic(k, 1.0), Hyperbolic(k)
    for t in np.linspace(0, 50, 101):
        assert abs(gh.factor(float(t)) - h.factor(float(t))) <= 1e-12


def test_hybrid_is_exact_convex_combination():
    d1, d2 = Exponential(0.5), Hyperbolic(1.0)
    for lam in (0.0, 0.25, 0.5, 1.0):
        hybrid = Hybrid(lam, d1, d2)
        for t in (0.0, 0.5, 1.0, 7.0):
            expected = lam * d1.factor(t) + (1 - lam) * d2.factor(t)
            assert hybrid.factor(t) == expected
    assert Hybrid(0.0, d1, d2).factor(3.0) == d2.factor(3.0)
    assert Hybrid(1.0, d1, d2).factor(3.0) == d1.factor(3.0)


def test_hyperbolic_is_not_translation_invariant():
    d = Hyperbolic(0.5)
    t, delta = 1.0, 1.0
    assert d.factor(t + delta) / d.factor(t) != pytest.approx(d.factor(delta), rel=1e-6)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Hyperbolic(0.0)
    with pytest.raises(ValueError):
        QuasiHyperbolic(0.0, 0.9)
    with pytest.raises(ValueError):
        QuasiHyperbolic(0.7, 1.0)  # delta = 1 excluded by construction
    with pytest.raises(ValueError):
        GeneralizedHyperbolic(0.2, 0.0)
    with pytest.raises(ValueError):
        Hybrid(1.5, Exponential(0.1), Hyperbolic(0.1))
    with pytest.raises(ValueError):
        StateDependent({"s1": 0.0})
    with pytest.raises(ValueError):
        InverseLog(1.0)
    with pytest.raises(ValueError):
        TabulatedEta((1.0, 2.0), (0.5, -0.1))
    with pytest.raises(DomainError):
        Exponential(0.5).factor(-1.0)


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize(
    "cls, args",
    [
        (Exponential, (INF,)),
        (Exponential, (NAN,)),
        (Hyperbolic, (INF,)),
        (GeneralizedHyperbolic, (INF, 1.0)),
        (GeneralizedHyperbolic, (0.5, INF)),
        (StateDependent, ({"s1": 0.1, "s2": INF},)),
        (StateDependent, ({"s1": NAN},)),
        (InverseLog, (INF,)),
        (TabulatedEta, ((1.0, INF), (0.5, 0.7))),
        (TabulatedEta, ((1.0, 2.0), (0.5, INF))),
        (TabulatedEta, ((NAN,), (0.5,))),
        (PhiScale, (INF,)),
        (PhiScale, (NAN,)),
        (PhiPower, (INF,)),
        (PhiPoly, ((0.0, NAN),)),
        (PhiPoly, ((0.0, 1.0, -INF),)),
        (PhiTable, ((-INF, INF), (-1.0, 1.0))),
        (PhiTable, ((-1.0, 1.0), (-INF, 1.0))),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else repr(v),
)
def test_constructors_reject_non_finite_parameters(cls, args):
    # Each of these used to construct and then evaluate to NaN.
    with pytest.raises(ValueError, match="finite"):
        cls(*args)


@pytest.mark.parametrize(
    "cls, xs, ys, message",
    [
        (TabulatedEta, (), (), "table needs matching nonempty x/y sequences"),
        (TabulatedEta, (1.0, NAN), (0.5,), "table needs matching nonempty x/y sequences"),
        (TabulatedEta, (1.0, INF), (0.5, 0.7), "table values must be finite"),
        (TabulatedEta, (2.0, 1.0), (0.5, 0.7), "table x values must be strictly increasing"),
        (TabulatedEta, (1.0, 2.0), (0.5, 0.0), "eta values must be positive"),
        (PhiTable, (0.0,), (0.0,), "table needs matching x/y sequences of length >= 2"),
        (PhiTable, (-1.0, 1.0), (-1.0, NAN, 1.0), "table needs matching x/y sequences of length >= 2"),
        (PhiTable, (-1.0, 1.0), (-INF, 1.0), "table values must be finite"),
        (PhiTable, (1.0, -1.0), (-1.0, 1.0), "table x values must be strictly increasing"),
        (PhiTable, (-1.0, 1.0), (1.0, -1.0), "table y values must be strictly increasing"),
        (PhiTable, (1.0, 2.0), (1.0, 2.0), "table must bracket 0 with phi(0) = 0"),
    ],
)
def test_tables_reject_bad_knots_with_their_messages(cls, xs, ys, message):
    # The size check comes first, then the checks both tables share, then each
    # table's own.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(xs, ys)


@pytest.mark.parametrize("base", [1.0 + 2**-40, 1.5, 2.0, math.e, 10.0, 1e300])
def test_inverse_log_value_is_one_over_math_log_bit_for_bit(base):
    rng = np.random.default_rng(7)
    eta = InverseLog(base)
    xs = [1.0 + 2**-52, 1.0 + 1e-9, 1.5, 10.0, 1e300, sys.float_info.max, INF, 7, 10**400]
    xs += np.exp(rng.uniform(1e-12, 700.0, 500)).tolist()
    for x in xs:
        assert eta.value(x).hex() == (1.0 / math.log(x, base)).hex()
        if isinstance(x, float):
            expected = -1.0 / (x * math.log(base) * math.log(x, base) ** 2)
            assert eta.derivative(x).hex() == expected.hex()


def test_nesting_depth_limit():
    d = Exponential(0.1)
    for _ in range(7):
        d = Hybrid(0.5, d, Hyperbolic(0.1))
    with pytest.raises(ValueError):
        Hybrid(0.5, d, Hyperbolic(0.1))


def test_missing_arguments_and_unknown_state():
    scale = ScaleDependent(Exponential(1.0), InverseLog())
    with pytest.raises(MissingArgument):
        scale.factor(1.0)
    with pytest.raises(DomainError):
        scale.factor(1.0, x=0.5)  # inverse-log eta needs x > 1
    state = StateDependent({"s1": 0.05})
    with pytest.raises(MissingArgument):
        state.factor(1.0)
    with pytest.raises(UnknownState):
        state.factor(1.0, s="s9")


def test_state_rate_lookup_and_messages():
    state = StateDependent({"s2": 0.15, "s1": 0.05})
    assert state.rate("s1") == 0.05 and state.rate("s2") == 0.15
    assert state.factor(2.0, s="s2") == math.exp(-0.15 * 2.0)
    for bad in ("s9", None, ["s1"]):
        with pytest.raises(UnknownState) as info:
            state.rate(bad)
        assert str(info.value) == f"state {bad!r} not in rate map ['s1', 's2']"
    with pytest.raises(UnknownState, match=r"^state 's9' not in rate map \['s1', 's2'\]$"):
        state.factor(1.0, s="s9")
    with pytest.raises(MissingArgument, match="^state-dependent discounting needs a state label$"):
        state.factor(1.0)


@pytest.mark.parametrize(
    "rates, label",
    [
        ({1: 0.1, "1": 0.2}, "1"),
        ({"s1": 0.1, 2.5: 0.3, "2.5": 0.3}, "2.5"),
        ([("a", 0.1), ("a", 0.2)], "a"),  # a repeat among the pairs themselves
    ],
)
def test_state_labels_that_collide_after_str_are_rejected(rates, label):
    # Labels are stored as str(key); two keys with one label would leave
    # ``rates`` listing the label twice while ``factor`` uses one of the rates.
    with pytest.raises(ValueError, match=f"^state label {label!r} appears more than once"):
        StateDependent(rates)


def test_scale_monotonicity_trivial_at_time_zero():
    d = ScaleDependent(Exponential(1.0), InverseLog())
    report = check_scale_monotonicity(d, [0.0], [2.0, 10.0, 1500.0])
    assert report.passed


def test_scale_monotonicity_matches_brute_force_signs():
    # Independent route: eta' by central differences on eta itself, then the
    # sign of 1 + eta'(x) x ln D(t) evaluated directly at each grid point.
    d = ScaleDependent(Exponential(1.0), InverseLog())
    t_grid = [0.5, 1.0, 2.0]
    x_grid = [2.0, 10.0, 100.0, 1500.0]
    expected = set()
    for t in t_grid:
        for x in x_grid:
            h = 1e-7 * x
            eta = lambda z: 1.0 / math.log10(z)
            deriv = (eta(x + h) - eta(x - h)) / (2 * h)
            if 1.0 + deriv * x * math.log(math.exp(-t)) <= 0:
                expected.add((t, x))
    report = check_scale_monotonicity(d, t_grid, x_grid)
    assert {(t, x) for t, x, _ in report.violations} == expected
    assert report.passed == (not expected)


def test_scale_monotonicity_constant_eta_always_passes():
    d = ScaleDependent(Exponential(2.0), TabulatedEta((1.0,), (0.6,)))
    report = check_scale_monotonicity(d, [0.5, 5.0, 50.0], [2.0, 20.0, 200.0])
    assert report.passed


def test_scale_monotonicity_detects_violations():
    # eta(x) = x with exponential base: 1 + x * (-t) fails once x t > 1.
    eta = TabulatedEta((0.1, 10.0), (0.1, 10.0))
    d = ScaleDependent(Exponential(1.0), eta)
    report = check_scale_monotonicity(d, [0.5, 2.0], [0.4, 4.0])
    failed = {(t, x) for t, x, _ in report.violations}
    assert failed == {(0.5, 4.0), (2.0, 4.0)}
    assert not report.passed


@pytest.mark.parametrize(
    "eta, violations",
    [
        (InverseLog(), []),  # eta' < 0: the criterion tends to +inf
        (TabulatedEta((1.0,), (0.6,)), []),  # eta' = 0: the criterion stays 1
        (TabulatedEta((1.0, 100.0), (0.1, 10.0)), [(1.0, 10.0, -math.inf)]),
    ],
)
def test_scale_monotonicity_when_the_base_factor_underflows(eta, violations):
    # exp(-800) underflows to 0.0, so ln D(t) is taken in its limit, -inf.
    d = ScaleDependent(Exponential(800.0), eta)
    assert d.base.factor(1.0) == 0.0
    report = check_scale_monotonicity(d, [1.0], [10.0])
    assert list(report.violations) == violations
    assert report.passed == (not violations)


def test_scale_monotonicity_rejects_out_of_domain_grid():
    d = ScaleDependent(Exponential(1.0), InverseLog())
    with pytest.raises(DomainError):
        check_scale_monotonicity(d, [1.0], [0.5, 10.0])


def test_paper_rounding_rounds_primitive_factors():
    gh = GeneralizedHyperbolic(0.2, 2.0)
    assert gh.factor(2.0, round_factors=True) == 0.51
    assert gh.factor(4.0, round_factors=True) == 0.31
    assert gh.factor(5.0, round_factors=True) == 0.25
    assert GeneralizedHyperbolic(0.2, 0.5).factor(5.0, round_factors=True) == 0.71


def test_paper_rounding_hybrid_combines_rounded_components():
    hybrid = Hybrid(0.5, Exponential(0.5), Hyperbolic(1.0))
    # Components round to 0.61 and 0.50; the mixture is not re-rounded.
    assert hybrid.factor(1.0, round_factors=True) == pytest.approx(0.555, abs=1e-15)


def test_uses_states_recurses():
    assert uses_states(StateDependent({"s1": 0.1}))
    assert uses_states(Hybrid(0.5, Exponential(0.1), StateDependent({"s1": 0.1})))
    assert uses_states(ScaleDependent(StateDependent({"s1": 0.1}), InverseLog()))
    assert not uses_states(Hybrid(0.5, Exponential(0.1), Hyperbolic(0.1)))


def test_module_level_factor_helper():
    assert factor(Hyperbolic(0.5), 2.0) == pytest.approx(0.5)


@given(
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=0.0, max_value=50.0),
)
def test_hyperbolic_bounds_and_decay_hypothesis(k, t1, t2):
    d = Hyperbolic(k)
    lo, hi = sorted((t1, t2))
    assert 0 < d.factor(hi) <= d.factor(lo) <= 1


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=20.0),
)
def test_hybrid_stays_between_components_hypothesis(lam, t):
    d1, d2 = Exponential(0.5), Hyperbolic(1.0)
    mixed = Hybrid(lam, d1, d2).factor(t)
    lo, hi = sorted((d1.factor(t), d2.factor(t)))
    assert lo - 1e-15 <= mixed <= hi + 1e-15


# -- array factors: _factor under the GRID backend, as reversal_scan runs it ----
def _grid(d, t, x=None, s=None, rounded=False):
    return d._factor(t, x, s, rounded, _backend.GRID)


def _grid_kinds():
    """Every regime with per-payment rewards and states for a 3-payment grid."""
    x = np.array([5.0, 120.0, 2000.0])
    states = ["s1", "s2", "s1"]
    state = StateDependent({"s1": 0.05, "s2": 0.15})
    return [
        (Exponential(0.5), x, None),
        (Hyperbolic(0.5), x, None),
        (QuasiHyperbolic(0.7, 0.95), x, None),
        (GeneralizedHyperbolic(0.2, 2.0), x, None),
        (ScaleDependent(Hyperbolic(0.3), InverseLog(10.0)), x, None),
        (ScaleDependent(Exponential(0.2), TabulatedEta((1.0, 100.0), (1.5, 0.5))), x, None),
        (state, x, states),
        (Hybrid(0.3, Hybrid(0.5, Exponential(0.1), state), QuasiHyperbolic(0.8, 0.9)), x, states),
    ]


@pytest.mark.parametrize("rounded", [False, True])
def test_array_factor_matches_scalar_per_cell(rounded):
    t = np.array([0.0, 0.25, 1.0, 3.5, 17.0, 60.0])[:, None] + np.array([0.0, 1.0, 2.5])[None, :]
    for d, x, states in _grid_kinds():
        grid = _grid(d, t, x, states, rounded)
        assert grid.shape == t.shape
        for (i, j), value in np.ndenumerate(grid):
            s = None if states is None else states[j]
            scalar = d.factor(float(t[i, j]), float(x[j]), s, round_factors=rounded)
            # numpy's exp/pow may differ from libm's in the last bits.
            assert value == pytest.approx(scalar, rel=4e-15, abs=0.0), (d, i, j)


def test_array_factor_takes_one_reward_or_state_for_all_columns():
    t = np.linspace(0.0, 10.0, 11)
    d = ScaleDependent(Exponential(1.0), InverseLog(10.0))
    assert _grid(d, t, 100.0) == pytest.approx([d.factor(float(v), 100.0) for v in t], rel=1e-15)
    s = StateDependent({"s1": 0.05})
    assert _grid(s, t, s="s1") == pytest.approx([s.factor(float(v), s="s1") for v in t], rel=1e-15)


def test_array_factor_keeps_scalar_errors():
    t = np.zeros((2, 2))
    with pytest.raises(MissingArgument):
        _grid(ScaleDependent(Exponential(1.0), InverseLog()), t)
    with pytest.raises(DomainError, match="outside eta domain"):
        _grid(ScaleDependent(Exponential(1.0), InverseLog()), t, np.array([5.0, 0.5]))
    with pytest.raises(MissingArgument):
        _grid(StateDependent({"s1": 0.1}), t, None, ["s1", None])
    with pytest.raises(UnknownState):
        _grid(StateDependent({"s1": 0.1}), t, None, ["s1", "s9"])


@pytest.mark.parametrize("bad", [math.nan, -math.inf, -1.0])
def test_delay_must_be_nonnegative_and_is_named(bad):
    for d, x, s in _all_kinds():
        with pytest.raises(DomainError, match=f"delay must be nonnegative, got {bad!r}"):
            d.factor(bad, x, s)
        # factor takes one delay; the grid's delays are checked by reversal_scan.
        with pytest.raises(TypeError):
            d.factor(np.array([[0.0, 1.0], [bad, -2.0]]), x, s)


def _delay_with_factor(k, target):
    """A delay at which Hyperbolic(k) returns exactly ``target`` (unrounded)."""
    t = (1.0 / target - 1.0) / k
    for _ in range(200):
        value = Hyperbolic(k).factor(t)
        if value == target:
            return t
        t = math.nextafter(t, math.inf if value > target else 0.0)
    raise AssertionError(f"no delay gives {target!r}")


def test_paper_rounding_on_arrays_uses_python_round():
    # np.round gives 0.02, 0.08 and 0.5 for the first three; Python's round,
    # which rounds the exact binary value, gives 0.01, 0.07 and 0.49.  0.125
    # is an exact tie, rounded half to even by both.
    targets = [0.015, 0.075, 0.495, 0.125]
    assert [round(v, 2) for v in targets] == [0.01, 0.07, 0.49, 0.12]
    assert list(np.round(targets, 2)) != [0.01, 0.07, 0.49, 0.12]
    d = Hyperbolic(0.5)
    t = np.array([_delay_with_factor(0.5, v) for v in targets])
    scalar = [d.factor(float(v), round_factors=True) for v in t]
    assert scalar == [0.01, 0.07, 0.49, 0.12]
    assert _grid(d, t, rounded=True).tolist() == scalar
    # Every two-decimal halfway point in (0, 1], and a dense sweep of delays.
    halves = np.array([(2 * i + 1) / 200 for i in range(100)])
    t = np.concatenate([(1.0 / halves - 1.0) / 0.5, np.linspace(0.0, 400.0, 20001)])
    for spec in (d, Hybrid(0.5, Exponential(0.05), d), QuasiHyperbolic(0.7, 0.95)):
        grid = _grid(spec, t, rounded=True).tolist()
        assert grid == [spec.factor(float(v), round_factors=True) for v in t]


# -- TabulatedEta.value against np.interp ---------------------------------------
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _tables_and_points(draw):
    xs = sorted(set(draw(st.lists(_FINITE, min_size=1, max_size=6))))
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    ys = draw(st.lists(positive, min_size=len(xs), max_size=len(xs)))
    knots = list(xs)
    beside = [math.nextafter(v, side) for v in xs for side in (-math.inf, math.inf)]
    ends = [xs[0] - 1.0, xs[-1] + 1.0, 2 * xs[0] - xs[-1], 2 * xs[-1] - xs[0]]
    between = [0.5 * (a + b) for a, b in zip(xs, xs[1:])]
    special = [math.inf, -math.inf, math.nan, 0.0, -0.0]
    drawn = draw(st.lists(st.floats(), max_size=8))
    return TabulatedEta(tuple(xs), tuple(ys)), knots + beside + ends + between + special + drawn


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_tables_and_points())
def test_tabulated_eta_value_is_np_interp_bit_for_bit(case):
    eta, points = case
    for x in points:
        got = eta.value(x)
        with np.errstate(all="ignore"):  # tables spanning more than the largest float overflow
            want = float(np.interp(x, eta.xs, eta.ys))
        assert type(got) is float
        assert got.hex() == want.hex() or (math.isnan(got) and math.isnan(want)), (x, got, want)


@pytest.mark.parametrize(
    "xs, ys, x, want",
    [
        ((2.0,), (0.6,), math.nan, 0.6),  # one entry: np.interp gives its y even at NaN
        ((1.0, 3.0), (1.0, 2.0), math.nan, math.nan),
        # x1 - x0 overflows to inf, so slope * (x - x0) is 0 * inf: np.interp
        # retries from the right knot.
        ((-1.5e308, 1.5e308), (1.0, 2.0), 1.4e308, 2.0),
    ],
)
def test_tabulated_eta_value_at_nan_and_in_a_table_wider_than_the_largest_float(xs, ys, x, want):
    got = TabulatedEta(xs, ys).value(x)
    assert got == want or (math.isnan(got) and math.isnan(want))
