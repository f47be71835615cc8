import copy
import gc
import itertools
import math
import pickle
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from desirables import (
    Composed,
    DatedPayment,
    DesirablesError,
    DiscountSpec,
    DomainError,
    Exponential,
    Hybrid,
    Hyperbolic,
    GeneralizedHyperbolic,
    InverseLog,
    Linear,
    LogShift,
    MissingArgument,
    PaymentSchedule,
    PhiPoly,
    PhiPower,
    PhiScale,
    PhiTable,
    PowerDiscounted,
    Preference,
    QuasiHyperbolic,
    ScaleDependent,
    Sqrt,
    StateDependent,
    TabulatedEta,
    UnknownState,
    Utility,
    check_scale_monotonicity,
    compare,
    effective_utility,
    reversal_scan,
    schedule_value,
    shift_schedule,
    uses_states,
)
from desirables import _backend, intertemporal
from desirables._backend import SCALAR
from oracles import scan_by_compare, scan_grid_sums, schedule_value_by_payment


def sched(*pairs, label=""):
    return PaymentSchedule(tuple(DatedPayment(a, t) for a, t in pairs), label=label)


def test_effective_utility_hyperbolic_log():
    u, d = LogShift(), Hyperbolic(0.5)
    assert effective_utility(u, d, 1200, 6) == pytest.approx(math.log(301), rel=1e-12)
    assert effective_utility(u, d, 1000, 0) == pytest.approx(math.log(1001), rel=1e-12)


def test_effective_utility_quasi_hyperbolic_sqrt():
    u, d = Sqrt(), QuasiHyperbolic(0.7, 0.95)
    assert effective_utility(u, d, 120, 13) == pytest.approx(6.566638028358073, abs=1e-9)
    assert effective_utility(u, d, 100, 0) == 10.0


def test_effective_utility_zero_reward():
    assert effective_utility(Linear(), Hyperbolic(1.0), 0.0, 3.0) == 0.0


def test_effective_utility_state_dependent():
    u = Linear()
    d = StateDependent({"s1": 0.05, "s2": 0.15})
    v = effective_utility(u, d, 1000, 3, "s2")
    assert v == pytest.approx(1000 * math.exp(-0.45), rel=1e-12)
    assert v == pytest.approx(637.628, abs=5e-4)


def test_schedule_value_generalized_hyperbolic():
    u, d = Linear(), GeneralizedHyperbolic(0.2, 2.0)
    option_a = sched((100.0, 0.0), (120.0, 5.0))
    assert schedule_value(u, d, option_a) == 130.0  # 0.25 factor is exact
    option_b = sched((110.0, 2.0), (150.0, 4.0))
    assert schedule_value(u, d, option_b) == pytest.approx(102.41874527588813, abs=1e-9)
    assert schedule_value(u, d, option_b, round_factors=True) == pytest.approx(102.6, abs=1e-9)


def test_schedule_value_zero_payment():
    for u in (Linear(), LogShift()):
        assert schedule_value(u, Hyperbolic(1.0), sched((0.0, 4.0))) == 0.0


def test_schedule_value_permutation_invariant():
    rng = np.random.default_rng(16)
    u, d = LogShift(), Hyperbolic(0.3)
    pays = [(float(a), float(t)) for a, t in zip(rng.uniform(1, 50, 6), rng.uniform(0, 9, 6))]
    base = schedule_value(u, d, sched(*pays))
    for _ in range(5):
        rng.shuffle(pays)
        assert schedule_value(u, d, sched(*pays)) == pytest.approx(base, rel=1e-12)


def test_compare_near_term_and_distant_projects():
    u, d = LogShift(), Hyperbolic(0.5)
    assert compare(u, d, sched((1000, 0)), sched((1200, 1))) is Preference.A
    assert compare(u, d, sched((1000, 5)), sched((1200, 6))) is Preference.B
    assert compare(u, d, sched((1000, 0)), sched((1000, 0))) is Preference.INDIFFERENT


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_compare_and_scan_reject_a_negative_or_non_finite_tol(tol):
    u, d, a, b = LogShift(), Hyperbolic(0.5), sched((1000, 0)), sched((1200, 1))
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        compare(u, d, a, b, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        reversal_scan(u, d, a, b, [0, 5], tol=tol)


def test_reversal_scan_hyperbolic_projects():
    u, d = LogShift(), Hyperbolic(0.5)
    res = reversal_scan(u, d, sched((1000, 0)), sched((1200, 1)), [0, 5])
    assert res.trace == ((0.0, Preference.A), (5.0, Preference.B))
    assert res.baseline is Preference.A
    assert res.first_flip == 5.0

    # On the dense grid the arithmetic crosses earlier: an exact tie at a
    # shift of 3 (both payoffs discount to 400) and a strict flip at 4.
    dense = reversal_scan(u, d, sched((1000, 0)), sched((1200, 1)), range(6))
    prefs = dict(dense.trace)
    assert prefs[3.0] is Preference.INDIFFERENT
    assert prefs[4.0] is Preference.B
    assert dense.first_flip == 4.0


def test_scan_result_reversed_is_whether_a_flip_was_found():
    a, b, shifts = sched((100, 0)), sched((110, 1)), [0, 5, 10]
    hyperbolic = reversal_scan(Linear(), Hyperbolic(0.5), a, b, shifts)
    assert [p for _, p in hyperbolic.trace] == [Preference.A, Preference.A, Preference.B]
    assert hyperbolic.first_flip == 10.0 and hyperbolic.reversed is True
    exponential = reversal_scan(Linear(), Exponential(0.01), a, b, shifts)
    assert {p for _, p in exponential.trace} == {Preference.B}
    assert exponential.first_flip is None and exponential.reversed is False


def test_reversal_scan_quasi_hyperbolic_savings():
    u, d = Sqrt(), QuasiHyperbolic(0.7, 0.95)
    plan_a = sched((100, 0), label="A")
    plan_b = sched((120, 1), label="B")
    res = reversal_scan(u, d, plan_a, plan_b, [0, 12])
    assert res.trace[0][1] is Preference.A
    assert res.trace[1][1] is Preference.B
    assert res.first_flip == 12.0


def test_reversal_scan_hybrid_mixture():
    u = Linear()
    d = Hybrid(0.5, Exponential(0.5), Hyperbolic(1.0))
    a0, b0 = sched((1000, 0)), sched((1500, 1))
    assert schedule_value(u, d, b0) == pytest.approx(829.897994784475, abs=1e-6)
    res = reversal_scan(u, d, a0, b0, [0, 10])
    assert res.trace == ((0.0, Preference.A), (10.0, Preference.B))
    assert res.first_flip == 10.0
    va10 = schedule_value(u, d, shift_schedule(a0, 10))
    vb10 = schedule_value(u, d, shift_schedule(b0, 10))
    assert va10 == pytest.approx(48.823518954088186, abs=1e-9)
    assert vb10 == pytest.approx(65.56507857884804, abs=1e-9)


def test_exponential_linear_never_reverses():
    rng = np.random.default_rng(17)
    u = Linear()
    for _ in range(100):
        d = Exponential(float(rng.uniform(0.05, 1.0)))
        a = sched(*[(float(x), float(t)) for x, t in zip(rng.uniform(1, 100, 3), rng.uniform(0, 8, 3))])
        b = sched(*[(float(x), float(t)) for x, t in zip(rng.uniform(1, 100, 3), rng.uniform(0, 8, 3))])
        shifts = np.sort(rng.uniform(0, 20, 5))
        res = reversal_scan(u, d, a, b, shifts)
        assert res.first_flip is None


def test_magnitude_effect_qualitative_pattern():
    # Base-10 inverse-log eta: immediate wins at the small scale, delayed at
    # the large scale.
    u = Linear()
    d = ScaleDependent(Exponential(1.0), InverseLog(10.0))
    small = compare(u, d, sched((10, 0)), sched((15, 1)))
    large = compare(u, d, sched((1000, 0)), sched((1500, 1)))
    assert small is Preference.A
    assert large is Preference.B


def test_monotone_in_amount():
    rng = np.random.default_rng(18)
    regimes = [
        (Exponential(0.3), None),
        (Hyperbolic(0.5), None),
        (QuasiHyperbolic(0.7, 0.95), None),
        (GeneralizedHyperbolic(0.4, 1.5), None),
        (StateDependent({"s1": 0.1}), "s1"),
    ]
    utilities = [Linear(), LogShift(), Sqrt()]
    for _ in range(1000):
        d, s = regimes[int(rng.integers(len(regimes)))]
        u = utilities[int(rng.integers(len(utilities)))]
        t = float(rng.uniform(0, 10))
        x1, x2 = np.sort(rng.uniform(0.1, 100, 2))
        if x1 == x2:
            continue
        assert effective_utility(u, d, x1, t, s) < effective_utility(u, d, x2, t, s)


def test_scale_monotonicity_agrees_with_effective_utility():
    d = ScaleDependent(Exponential(1.0), InverseLog(10.0))
    t_grid = [0.5, 1.0, 2.0]
    x_grid = [2.0, 10.0, 100.0, 1500.0]
    report = check_scale_monotonicity(d, t_grid, x_grid)
    assert report.passed
    u = Linear()
    for t in t_grid:
        vals = [effective_utility(u, d, x, t) for x in x_grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_schedule_dominance():
    rng = np.random.default_rng(19)
    u, d = LogShift(), Hyperbolic(0.4)
    for _ in range(50):
        times = rng.uniform(0, 10, 4)
        base = rng.uniform(1, 20, 4)
        extra = rng.uniform(0, 5, 4)
        a = sched(*zip(base + extra, times))
        b = sched(*zip(base, times))
        assert schedule_value(u, d, a) >= schedule_value(u, d, b)


def test_quasi_hyperbolic_indicator_is_exact():
    u, d = Linear(), QuasiHyperbolic(0.5, 0.9)
    assert effective_utility(u, d, 10.0, 0.0) == 10.0
    assert effective_utility(u, d, 10.0, 1e-12) < 6.0  # any positive delay takes the bias hit


def test_states_required_and_warned():
    u = Linear()
    with pytest.raises(MissingArgument):
        schedule_value(u, StateDependent({"s1": 0.1}), sched((10, 1)))
    labeled = PaymentSchedule((DatedPayment(10, 1, "s1"),), label="x")
    with pytest.warns(UserWarning, match="state-independent"):
        schedule_value(u, Exponential(0.1), labeled)


def test_payment_validation():
    with pytest.raises(ValueError):
        DatedPayment(10.0, -1.0)
    with pytest.raises(ValueError):
        PaymentSchedule(())
    with pytest.raises(ValueError):
        shift_schedule(sched((1, 0)), -2.0)
    with pytest.raises(ValueError):
        reversal_scan(Linear(), Exponential(0.1), sched((1, 0)), sched((1, 0)), [])


def test_domain_error_propagates():
    # Discounted reward can still breach the utility domain.
    with pytest.raises(DomainError):
        effective_utility(LogShift(), Exponential(0.1), -5.0, 0.0)


def test_schedule_value_names_the_failing_payment():
    # The error keeps its type and names the first payment that raised.
    with pytest.raises(DomainError, match=r"^payment 1 \(amount=-3, t=0\): log_shift: reward"):
        schedule_value(LogShift(), Exponential(0.1), sched((5, 0), (-3, 0), (-4, 1)))
    sd = StateDependent({"s1": 0.1})
    both = PaymentSchedule((DatedPayment(1, 0, "s1"), DatedPayment(2, 1.5, "s2")))
    with pytest.raises(UnknownState, match=r"^payment 1 \(amount=2, t=1\.5\): state 's2'"):
        schedule_value(Linear(), sd, both)


def test_non_finite_delays_are_rejected_where_they_enter():
    with pytest.raises(ValueError, match="payment time must be nonnegative, got nan"):
        DatedPayment(10.0, math.nan)
    with pytest.raises(ValueError, match="got -inf"):
        DatedPayment(10.0, -math.inf)
    with pytest.raises(ValueError, match="shift must be nonnegative, got nan"):
        shift_schedule(sched((1, 0)), math.nan)
    for shifts in ([0.0, math.nan, 2.0], [math.nan], [1.0, -math.inf]):
        bad = [s for s in shifts if not s >= 0][0]
        with pytest.raises(ValueError, match=f"shifts must be nonnegative, got {bad!r}"):
            reversal_scan(LogShift(), Hyperbolic(0.5), sched((10, 0)), sched((12, 1)), shifts)
    # schedule_value and compare skip the delay check only because of these.
    for bad in (-1.0, -5e-324, math.nan):
        with pytest.raises(ValueError, match=f"payment time must be nonnegative, got {bad!r}"):
            DatedPayment(10.0, bad)
        for d in (Hyperbolic(0.5), StateDependent({"s1": 0.1})):
            with pytest.raises(DomainError, match=f"delay must be nonnegative, got {bad!r}"):
                d.factor(bad, 10.0, "s1")
            with pytest.raises(DomainError, match=f"delay must be nonnegative, got {bad!r}"):
                effective_utility(LogShift(), d, 10.0, bad, "s1")


def test_scan_carries_the_values_of_each_shift():
    u, d = LogShift(), Hyperbolic(0.5)
    a0, b0 = sched((1000, 0), (10, 2)), sched((1200, 1))
    res = reversal_scan(u, d, a0, b0, [4, 0, 2.5])
    assert [delta for delta, _ in res.trace] == [0.0, 2.5, 4.0]
    for (delta, _), va, vb in zip(res.trace, res.value_a, res.value_b):
        assert va == pytest.approx(schedule_value(u, d, shift_schedule(a0, delta)), rel=1e-15)
        assert vb == pytest.approx(schedule_value(u, d, shift_schedule(b0, delta)), rel=1e-15)
    assert all(type(v) is float for v in res.value_a + res.value_b)
    assert res == reversal_scan(u, d, a0, b0, [0, 2.5, 4])
    assert hash(res) == hash(reversal_scan(u, d, a0, b0, [0, 2.5, 4]))


def test_scan_domain_error_matches_shift_by_shift_loop():
    # Rounded factors reach 0 at large delays; sqrt(0 * x) leaves the domain.
    u, d = Sqrt(), Exponential(1.0)
    a0, b0 = sched((100, 0)), sched((100, 3))
    shifts = [0, 1, 2, 3, 6]
    with pytest.raises(DomainError) as grid:
        reversal_scan(u, d, a0, b0, shifts, round_factors=True)
    with pytest.raises(DomainError) as loop:
        scan_by_compare(u, d, a0, b0, shifts, round_factors=True)
    message = "payment 0 (amount=100, t=6): sqrt: reward 0.0 outside domain x > 0.0"
    assert str(grid.value) == str(loop.value) == message


def test_scan_warns_on_labels_under_state_independent_regime():
    # The warning names the caller's line, as compare's and schedule_value's
    # do, also when a failing block is replayed shift by shift.
    labeled = PaymentSchedule((DatedPayment(10, 1, "s1"),), label="x")
    with pytest.warns(UserWarning, match="state-independent") as warned:
        reversal_scan(Linear(), Exponential(0.1), labeled, sched((12, 2)), [0, 1])
    assert [w.filename for w in warned] == [__file__]
    labeled = PaymentSchedule((DatedPayment(100, 0, "s1"),), label="x")
    with warnings.catch_warnings(record=True) as warned, pytest.raises(DomainError):
        warnings.simplefilter("always")
        reversal_scan(Sqrt(), Exponential(1.0), labeled, sched((100, 3)), [0, 6], round_factors=True)
    # The baseline, then the replay's shifts 0 and 6, which raises.
    assert len(warned) == 3 and {w.filename for w in warned} == {__file__}


# -- the grid scan against one scalar compare per shift ------------------------
_STATES = {"boom": 0.05, "bust": 0.2}
_BASES = st.one_of(
    st.builds(Exponential, st.floats(0.0, 1.0)),
    st.builds(Hyperbolic, st.floats(0.05, 2.0)),
    st.builds(QuasiHyperbolic, st.floats(0.3, 1.0), st.floats(0.5, 0.99)),
    st.builds(GeneralizedHyperbolic, st.floats(0.05, 2.0), st.floats(0.2, 3.0)),
    st.just(StateDependent(_STATES)),
)
_ETAS = st.one_of(
    st.builds(InverseLog, st.floats(2.0, 20.0)),
    st.just(TabulatedEta((1.0, 10.0, 100.0, 1000.0), (1.3, 1.0, 0.8, 0.5))),
)
_LEAVES = st.one_of(_BASES, st.builds(ScaleDependent, _BASES, _ETAS))
_REGIMES = st.one_of(
    _LEAVES,
    st.builds(Hybrid, st.floats(0.0, 1.0), _LEAVES, _LEAVES),
    st.builds(Hybrid, st.floats(0.0, 1.0), st.builds(Hybrid, st.floats(0.0, 1.0), _LEAVES, _LEAVES), _LEAVES),
)
_PHIS = st.one_of(
    st.builds(PhiScale, st.floats(0.5, 3.0)),
    st.builds(PhiPower, st.floats(0.3, 2.0)),
    st.just(PhiPoly((0.0, 1.0, 0.05))),
    st.just(PhiTable((-10.0, 0.0, 1.0, 5.0, 100.0), (-20.0, 0.0, 2.0, 6.0, 50.0))),
)
_UTILITIES = st.one_of(
    st.sampled_from([Linear(), LogShift(), Sqrt()]),
    st.builds(PowerDiscounted, st.floats(0.0, 0.9)),
    st.builds(Composed, st.sampled_from([LogShift(), Sqrt()]), _PHIS),
)


@st.composite
def _scans(draw):
    d = draw(_REGIMES)
    u = draw(_UTILITIES)
    labels = ["boom", "bust"] if uses_states(d) else [None]
    n = draw(st.integers(1, 5))
    amounts = [draw(st.floats(1.5, 2000.0)) for _ in range(n)]
    times = [draw(st.floats(0.0, 4.0)) for _ in range(n)]
    states = [draw(st.sampled_from(labels)) for _ in range(n)]
    a0 = PaymentSchedule(tuple(map(DatedPayment, amounts, times, states)), "A")
    shape = draw(st.sampled_from(["later-larger", "random", "same"]))
    if shape == "later-larger":  # sooner-smaller A against later-larger B: flips
        lag, scale = draw(st.floats(0.5, 3.0)), draw(st.floats(1.05, 2.0))
        pays = [DatedPayment(x * scale, t + lag, s) for x, t, s in zip(amounts, times, states)]
    elif shape == "random":
        pays = [
            DatedPayment(draw(st.floats(1.5, 2000.0)), draw(st.floats(0.0, 20.0)), draw(st.sampled_from(labels)))
            for _ in range(draw(st.integers(1, 5)))
        ]
    else:  # a tie at every shift
        pays = list(a0.payments)
    # Some cases break one payment of B: a reward outside the utility or eta
    # domain, a missing or unknown state, or a label the regime ignores.
    breakage = draw(st.sampled_from(["none"] * 4 + ["domain", "eta", "missing", "unknown", "label"]))
    broken = {
        "domain": (-5.0, labels[0]),
        "eta": (0.5, labels[0]),
        "missing": (10.0, None),
        "unknown": (10.0, "crash"),
        "label": (10.0, "boom"),
    }.get(breakage)
    if broken is not None:
        pays[draw(st.integers(0, len(pays) - 1))] = DatedPayment(broken[0], 1.0, broken[1])
    b0 = PaymentSchedule(tuple(pays), "B")
    # Unsorted, with repeats; the last one reaches where hyperbolic-type regimes flip.
    shifts = draw(st.lists(st.floats(0.0, 40.0), max_size=12)) + [draw(st.floats(10.0, 60.0))]
    return u, d, a0, b0, shifts, draw(st.booleans())


def _outcome(run):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = run()
        except DesirablesError as exc:
            return type(exc), None, caught
    return None, result, caught


def _abs_sum(u, d, sch, delta, rounded):
    return sum(
        abs(effective_utility(u, d, p.amount, p.time + delta, p.state, round_factors=rounded))
        for p in sch.payments
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_scans())
def test_grid_scan_matches_compare_per_shift(case):
    u, d, a0, b0, shifts, rounded = case
    tol = 1e-9
    err, res, warned = _outcome(lambda: reversal_scan(u, d, a0, b0, shifts, tol=tol, round_factors=rounded))
    ref_err, ref, ref_warned = _outcome(
        lambda: scan_by_compare(u, d, a0, b0, shifts, tol=tol, round_factors=rounded)
    )
    assert err is ref_err
    assert bool(warned) == bool(ref_warned)
    assert all("state-independent" in str(w.message) for w in warned)
    if err is not None:
        assert err in (DomainError, MissingArgument, UnknownState)
        return
    assert res.baseline is ref.baseline
    assert [delta for delta, _ in res.trace] == [delta for delta, _ in ref.trace]
    for i, (delta, pref) in enumerate(ref.trace):
        va, vb = ref.value_a[i], ref.value_b[i]
        slack_a = 1e-12 * (abs(va) + _abs_sum(u, d, a0, delta, rounded))
        slack_b = 1e-12 * (abs(vb) + _abs_sum(u, d, b0, delta, rounded))
        assert abs(res.value_a[i] - va) <= slack_a
        assert abs(res.value_b[i] - vb) <= slack_b
        # Within tol plus the values' slack the sides of the band may differ.
        if abs(va - vb) > tol + slack_a + slack_b:
            assert res.trace[i][1] is pref, (delta, va, vb)
    opposite = {Preference.A: Preference.B, Preference.B: Preference.A}.get(res.baseline)
    assert res.first_flip == next((t for t, p in res.trace if p is opposite), None)


# -- the grid's sums against the column-by-column loop -------------------------
# Shift counts at and around the 128-shift block's edges.
_EDGE_SHIFTS = (1, 2, 127, 128, 129, 255, 256, 257)


@st.composite
def _grid_sum_scans(draw):
    zeros = draw(st.booleans())
    if zeros:  # rewards of -0.0, so cells of -0.0: a utility and regime defined at 0
        d = draw(st.one_of(_BASES, st.builds(Hybrid, st.floats(0.0, 1.0), _BASES, _BASES)))
        u = draw(st.sampled_from([Linear(), LogShift()]))
    else:
        d, u = draw(_REGIMES), draw(_UTILITIES)
    labels = ["boom", "bust"] if uses_states(d) else [None]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def schedule(label):
        n = draw(st.sampled_from([1, 2, 9, 60, 75]))
        # 1.6 to 1e4: inside every eta's domain, and wide enough that the
        # order of the additions shows in the last bits.
        amounts = 10.0 ** rng.uniform(0.2, 4.0, n)
        if zeros:
            amounts[rng.random(n) < draw(st.sampled_from([0.3, 1.0]))] = -0.0
        times = rng.uniform(0.0, 20.0, n)
        states = [labels[i] for i in rng.integers(len(labels), size=n)]
        return PaymentSchedule(tuple(map(DatedPayment, amounts.tolist(), times.tolist(), states)), label)

    a0, b0 = schedule("A"), schedule("B")
    # Rounded to 0.1, so longer scans repeat shifts.
    shifts = np.round(rng.uniform(0.0, 40.0, draw(st.sampled_from(_EDGE_SHIFTS))), 1).tolist()
    # Rounded factors reach 0.0 at long delays, outside a domain x > 0.
    return u, d, a0, b0, shifts, u.domain_lo < 0 and draw(st.booleans())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_grid_sum_scans())
def test_scan_values_are_the_grid_cells_added_column_by_column(case):
    u, d, a0, b0, shifts, rounded = case
    res = reversal_scan(u, d, a0, b0, shifts, round_factors=rounded)
    sum_a, sum_b = scan_grid_sums(u, d, a0, b0, shifts, round_factors=rounded)
    assert [v.hex() for v in res.value_a] == [v.hex() for v in sum_a.tolist()]
    assert [v.hex() for v in res.value_b] == [v.hex() for v in sum_b.tolist()]


# -- schedule_value against one effective_utility per payment ------------------
# sqrt(1e300) ** 4 overflows: math.pow raises OverflowError, eval a DomainError.
_OVERFLOWING = Composed(Sqrt(), PhiPower(4.0))
# A payment that breaks: a reward outside the utility or inverse-log eta
# domain (x <= 1), a missing or unknown state, a label the regime ignores, or
# a utility that overflows.
_BREAKAGES = {
    "domain": (-5.0, 0),
    "eta": (0.5, 0),
    "eta-edge": (1.0, 0),
    "missing": (10.0, None),
    "unknown": (10.0, "crash"),
    "label": (10.0, "boom"),
    "overflow": (1e300, 0),
}


@st.composite
def _valuations(draw):
    d = draw(_REGIMES)
    u = draw(st.one_of(_UTILITIES, st.just(_OVERFLOWING)))
    labels = ["boom", "bust"] if uses_states(d) else [None]
    pays = [
        DatedPayment(draw(st.floats(1.5, 2000.0)), draw(st.floats(0.0, 20.0)), draw(st.sampled_from(labels)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    for _ in range(draw(st.integers(0, 2))):
        amount, state = _BREAKAGES[draw(st.sampled_from(sorted(_BREAKAGES)))]
        state = labels[0] if state == 0 else state
        pays[draw(st.integers(0, len(pays) - 1))] = DatedPayment(amount, draw(st.floats(0.0, 20.0)), state)
    sch = PaymentSchedule(tuple(pays), draw(st.sampled_from(["", "L"])))
    return u, d, sch, draw(st.booleans())


def _valuation(run, action):
    """(value bits, a preference or (error type, message), warnings) of ``run`` under the filter ``action``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        try:
            value = run()
        except (DesirablesError, UserWarning) as exc:
            return (type(exc), str(exc)), caught
    return value.hex() if isinstance(value, float) else value, caught


def _assert_valuation_matches_the_fold(u, d, sch, rounded):
    """The outcome under each filter, after checking that both paths agree."""
    labelled = not uses_states(d) and any(p.state is not None for p in sch.payments)
    outcomes = {}
    for action in ("always", "error"):  # under "error" the warning comes before any payment error
        got, warned = _valuation(lambda: schedule_value(u, d, sch, round_factors=rounded), action)
        ref, ref_warned = _valuation(
            lambda: schedule_value_by_payment(u, d, sch, round_factors=rounded), action
        )
        assert got == ref
        seen = [(w.category, str(w.message), w.filename) for w in warned]
        assert seen == [(w.category, str(w.message), w.filename) for w in ref_warned]
        assert len(seen) == (labelled and action == "always")
        assert all(filename == __file__ for _, _, filename in seen)
        if action == "error" and labelled:
            assert got[0] is UserWarning
        # compare of the schedule with itself: the fold's error, or indifference
        # with the fold's warning once per side, naming this file's line.
        pref, pref_warned = _valuation(lambda: compare(u, d, sch, sch, round_factors=rounded), action)
        failed = isinstance(ref, tuple)
        assert pref == (ref if failed else Preference.INDIFFERENT)
        assert [(w.category, str(w.message), w.filename) for w in pref_warned] == seen * (1 if failed else 2)
        outcomes[action] = got
    return outcomes


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_valuations())
def test_schedule_value_matches_a_fold_of_effective_utilities(case):
    _assert_valuation_matches_the_fold(*case)


@pytest.mark.parametrize(
    "u, d, pays, error, message",
    [
        (LogShift(), Exponential(0.1), [(5, 0, None), (-3, 0, None)], DomainError,
         "payment 1 (amount=-3, t=0): log_shift: reward -3.0 outside domain x > -1.0"),
        (Linear(), StateDependent({"s1": 0.1}), [(1, 0, "s1"), (2, 1.5, "s2")], UnknownState,
         "payment 1 (amount=2, t=1.5): state 's2' not in rate map ['s1']"),
        (Linear(), StateDependent({"s1": 0.1}), [(1, 2, None)], MissingArgument,
         "payment 0 (amount=1, t=2): state-dependent discounting needs a state label"),
        (Linear(), ScaleDependent(Exponential(0.1), InverseLog()), [(10, 1, None), (1, 1, None)], DomainError,
         "payment 1 (amount=1, t=1): inverse_log: reward 1.0 outside eta domain x > 1.0"),
        (_OVERFLOWING, Exponential(0.0), [(1e300, 0, None)], DomainError,
         "payment 0 (amount=1e+300, t=0): composed: utility of reward 1e+300 is not finite"),
    ],
    ids=["domain", "unknown-state", "missing-label", "inverse-log", "overflow"],
)
@pytest.mark.parametrize("label", ["", "L"])
def test_schedule_value_errors_match_the_fold(u, d, pays, error, message, label):
    sch = PaymentSchedule(tuple(DatedPayment(*p) for p in pays), label)
    where = 'schedule "L" ' if label else ""
    for rounded in (False, True):
        outcomes = _assert_valuation_matches_the_fold(u, d, sch, rounded)
        assert outcomes == {"always": (error, where + message), "error": (error, where + message)}


def test_schedule_value_warns_on_labels_before_a_payment_error():
    sch = PaymentSchedule((DatedPayment(-5, 0, "s1"),), "L")
    outcomes = _assert_valuation_matches_the_fold(LogShift(), Exponential(0.1), sch, False)
    assert outcomes["always"][0] is DomainError
    assert outcomes["error"] == (
        UserWarning,
        "schedule 'L' carries state labels but the discount regime is "
        "state-independent; labels are ignored",
    )


# -- edge delays, which schedule_value, compare and the scan grid take unchecked
# DatedPayment admits every float time >= 0 and reversal_scan every shift >= 0,
# so the regimes' formulas run on them without factor's delay check.  At these
# edges each path must give the bits, or the error, of its oracle.
_EDGE_DELAYS = (0.0, 5e-324, 1e308, math.inf)
_EDGE_SHIFT_LISTS = ([0.0, 5e-324, 1.0, 1e308, math.inf], [math.inf], [1e308, 0.0])
_EDGE_REGIMES = [
    Exponential(0.0),
    Exponential(0.3),
    Hyperbolic(2.0),
    QuasiHyperbolic(0.7, 0.95),
    GeneralizedHyperbolic(3.0, 1.5),
    ScaleDependent(Hyperbolic(0.5), InverseLog(10.0)),
    ScaleDependent(Exponential(0.0), TabulatedEta((1.0, 10.0, 100.0), (1.3, 1.0, 0.8))),
    StateDependent(_STATES),
    Hybrid(0.3, Exponential(0.0), Hybrid(0.5, GeneralizedHyperbolic(0.4, 2.0), StateDependent(_STATES))),
]
_EDGE_UTILITIES = [Linear(), LogShift(), Sqrt(), Composed(LogShift(), PhiPower(0.5))]


def _bits_or_error(run):
    # Under "error" a numpy RuntimeWarning is not caught: it fails the test.
    return _valuation(run, "error")[0]


def _band(va, vb, tol=1e-9):
    return Preference.A if va > vb + tol else Preference.B if vb > va + tol else Preference.INDIFFERENT


def _compare_by_fold(u, d, a, b, rounded):
    return _band(*(schedule_value_by_payment(u, d, s, round_factors=rounded) for s in (a, b)))


@pytest.mark.parametrize("rounded", [False, True])
@pytest.mark.parametrize("u", _EDGE_UTILITIES, ids=lambda u: u.kind)
@pytest.mark.parametrize("d", _EDGE_REGIMES, ids=lambda d: d.kind)
def test_edge_delays_give_the_oracles_bits_or_errors(d, u, rounded):
    labels = sorted(_STATES) if uses_states(d) else [None]
    singles = [
        PaymentSchedule((DatedPayment(30.0, t, labels[0]),), f"at {t!r}") for t in _EDGE_DELAYS
    ]
    every = PaymentSchedule(
        tuple(DatedPayment(10.0 * (i + 2), t, labels[i % len(labels)]) for i, t in enumerate(_EDGE_DELAYS)), "A"
    )
    soon = PaymentSchedule((DatedPayment(45.0, 0.5, labels[-1]),), "B")
    for sch in singles + [every, soon]:
        got = _bits_or_error(lambda: schedule_value(u, d, sch, round_factors=rounded))
        assert got == _bits_or_error(lambda: schedule_value_by_payment(u, d, sch, round_factors=rounded))
    pairs = list(itertools.product(singles + [every], [soon, singles[0]]))
    for a, b in pairs + [(b, a) for a, b in pairs]:
        got = _bits_or_error(lambda: compare(u, d, a, b, round_factors=rounded))
        assert got == _bits_or_error(lambda: _compare_by_fold(u, d, a, b, rounded))
    for a0, b0 in ((singles[0], soon), (every, soon), (soon, singles[3])):
        for shifts in _EDGE_SHIFT_LISTS:
            got = _bits_or_error(lambda: reversal_scan(u, d, a0, b0, shifts, round_factors=rounded))
            ref = _bits_or_error(lambda: scan_by_compare(u, d, a0, b0, shifts, round_factors=rounded))
            if isinstance(ref, tuple):
                assert got == ref
                continue
            assert got.baseline is ref.baseline
            # Times of 1e308 and shifts of 1e308 add to inf, as the scalar sums do.
            with np.errstate(over="ignore"):
                sum_a, sum_b = scan_grid_sums(u, d, a0, b0, shifts, round_factors=rounded)
            assert [v.hex() for v in got.value_a] == [v.hex() for v in sum_a.tolist()]
            assert [v.hex() for v in got.value_b] == [v.hex() for v in sum_b.tolist()]
            assert [p for _, p in got.trace] == list(map(_band, sum_a.tolist(), sum_b.tolist()))


# -- compiled valuation loops ---------------------------------------------------
# schedule_value and compare run one loop per (utility, regime, rounding),
# generated from the TRACE record of the regime's _factor and the utility's
# _eval; every kind must keep the bits and the errors of the per-payment fold.
_EVERY_UTILITY = [
    Linear(),
    LogShift(),
    Sqrt(),
    PowerDiscounted(0.4),
    Composed(LogShift(), PhiScale(2.0)),
    Composed(Sqrt(), PhiPower(0.7)),
    Composed(LogShift(), PhiPoly((0.0, 1.0, 0.05))),
    Composed(LogShift(), PhiTable((-10.0, 0.0, 1.0, 5.0, 100.0), (-20.0, 0.0, 2.0, 6.0, 50.0))),
    _OVERFLOWING,
]


@pytest.mark.parametrize("rounded", [False, True])
@pytest.mark.parametrize("u", _EVERY_UTILITY, ids=lambda u: f"{u.kind}-{type(getattr(u, 'phi', u)).__name__}")
@pytest.mark.parametrize("d", _EDGE_REGIMES, ids=lambda d: d.kind)
def test_compiled_loops_give_the_folds_bits_and_errors(d, u, rounded):
    labels = sorted(_STATES) if uses_states(d) else [None]
    clean = (DatedPayment(30.0, 0.0, labels[0]), DatedPayment(250.0, 4.5, labels[-1]))
    schedules = [PaymentSchedule(clean, "A"), PaymentSchedule(clean[1:])]
    # An infinite reward: inf or NaN where eval's finiteness or domain check must see it.
    breakages = {**_BREAKAGES, "infinite": (math.inf, 0)}
    for i, (name, (amount, state)) in enumerate(sorted(breakages.items())):
        broken = DatedPayment(amount, 2.0, labels[0] if state == 0 else state)
        schedules.append(PaymentSchedule((*clean, broken), name if i % 2 else ""))
    for sch in schedules:
        _assert_valuation_matches_the_fold(u, d, sch, rounded)
    for a, b in itertools.product(schedules, repeat=2):
        got = _bits_or_error(lambda: compare(u, d, a, b, round_factors=rounded))
        assert got == _bits_or_error(lambda: _compare_by_fold(u, d, a, b, rounded))


class _BranchingRegime(DiscountSpec):
    def _factor(self, t, x, s, rounded, xp=SCALAR):
        return 1.0 if t < 5.0 else 0.5


class _BranchingUtility(Utility):
    def _eval(self, x, xp=SCALAR):
        return x if x > 0.0 else 2.0 * x


def test_a_formula_that_branches_on_its_operand_cannot_be_compiled():
    sch = sched((10.0, 1.0))
    assert _BranchingRegime().factor(1.0) == 1.0 and _BranchingUtility().eval(-1.0) == -2.0
    with pytest.raises(TypeError, match=r"^_BranchingRegime: a traced operand decides a branch"):
        schedule_value(LogShift(), _BranchingRegime(), sch)
    with pytest.raises(TypeError, match=r"^_BranchingUtility: a traced operand decides a branch"):
        compare(_BranchingUtility(), Hyperbolic(0.5), sch, sch)


@pytest.mark.parametrize(
    "d",
    [StateDependent(_STATES), Hybrid(0.4, Exponential(0.1), Hybrid(0.5, StateDependent(_STATES), Hyperbolic(1.0)))],
    ids=lambda d: d.kind,
)
def test_regimes_round_trip_pickle_and_deepcopy_after_valuing(d):
    sch = PaymentSchedule((DatedPayment(30.0, 1.0, "boom"), DatedPayment(80.0, 6.0, "bust")), "A")
    value = schedule_value(LogShift(), d, sch, round_factors=True)
    assert compare(Sqrt(), d, sch, sch) is Preference.INDIFFERENT
    assert len(d._loops[0]) == len(d._loops[1]) == 1
    for clone in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        assert clone == d and hash(clone) == hash(d) and repr(clone) == repr(d)
        assert "_loops" not in vars(clone)
        assert schedule_value(LogShift(), clone, sch, round_factors=True).hex() == value.hex()


def test_alternating_utilities_compile_each_pair_once(monkeypatch):
    tapes = []

    class CountingTape(_backend.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(_backend, "Tape", CountingTape)
    d, utilities = Hyperbolic(0.5), (LogShift(), Sqrt())
    a, b = sched((10.0, 1.0), (20.0, 3.0)), sched((25.0, 4.0))
    for _ in range(3):
        for u in utilities:
            for rounded in (False, True):
                compare(u, d, a, b, round_factors=rounded)
                schedule_value(u, d, a, round_factors=rounded)
    assert len(tapes) == 4
    assert [set(loops) for loops in d._loops] == [set(map(id, utilities))] * 2


def test_more_utilities_than_the_cache_holds_keep_their_values():
    d = StateDependent(_STATES)
    sch = PaymentSchedule((DatedPayment(30.0, 1.0, "boom"), DatedPayment(80.0, 6.0, "bust")))
    utilities = [Composed(LogShift(), PhiScale(1.0 + i)) for i in range(intertemporal._MAX_LOOPS + 3)]
    for _ in range(2):
        for u in utilities:
            assert schedule_value(u, d, sch) == schedule_value_by_payment(u, d, sch)
    assert list(d._loops[1]) == [id(u) for u in utilities[-intertemporal._MAX_LOOPS :]]


@pytest.mark.parametrize("d", _EDGE_REGIMES, ids=lambda d: d.kind)
def test_a_regime_that_valued_a_schedule_is_freed_without_the_cycle_collector(d):
    # Its cached loops bind its per-payment functions, never the regime itself.
    labels = sorted(_STATES) if uses_states(d) else [None]
    sch = PaymentSchedule((DatedPayment(30.0, 1.0, labels[0]), DatedPayment(80.0, 6.0, labels[-1])))
    d, u = copy.deepcopy(d), LogShift()
    schedule_value(u, d, sch, round_factors=True)
    assert len(d._loops[0]) == 1
    regime, utility = weakref.ref(d), weakref.ref(u)
    gc.disable()
    try:
        del d, u
        assert regime() is None and utility() is None
    finally:
        gc.enable()


def test_pairs_of_one_shape_share_one_code_object():
    # The shape is the source: operators and generated names, never values,
    # so log1p and sqrt (one bound call each) give one shape too.
    hybrids = [Hybrid(0.3, Hyperbolic(0.5), QuasiHyperbolic(0.7, 0.9)), Hybrid(0.6, Hyperbolic(2.0), QuasiHyperbolic(0.9, 0.95))]
    pairs = [
        (LogShift(), Exponential(0.1)),
        (LogShift(), Exponential(0.2)),
        (Sqrt(), Exponential(0.1)),
        (PowerDiscounted(0.5), Exponential(0.1)),
        (LogShift(), hybrids[0]),
        (LogShift(), hybrids[1]),
    ]
    loops = [intertemporal._loop(u, d, False) for u, d in pairs]
    assert len(set(map(id, loops))) == len(pairs)
    codes = [loop.__code__ for loop in loops]
    assert codes[0] is codes[1] is codes[2] and codes[4] is codes[5]
    assert len(set(map(id, codes))) == 3
    sch = sched((10.0, 1.0), (30.0, 2.0))
    for (u, d), loop in zip(pairs, loops):
        assert loop(sch) == schedule_value_by_payment(u, d, sch)
