import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from desirables import (
    Composed,
    DatedPayment,
    DesirablesError,
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
    check_scale_monotonicity,
    compare,
    effective_utility,
    reversal_scan,
    schedule_value,
    shift_schedule,
    uses_states,
)
from oracles import scan_by_compare


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
    labeled = PaymentSchedule((DatedPayment(10, 1, "s1"),), label="x")
    with pytest.warns(UserWarning, match="state-independent"):
        reversal_scan(Linear(), Exponential(0.1), labeled, sched((12, 2)), [0, 1])


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
