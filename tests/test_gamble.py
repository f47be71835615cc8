import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from desirables import (
    Composed,
    DomainError,
    Gamble,
    ImageError,
    Linear,
    LogShift,
    PhiPoly,
    PhiPower,
    PhiScale,
    PhiTable,
    PowerDiscounted,
    SpaceMismatch,
    Sqrt,
    StateSpace,
    dominates,
    transform,
    u_convex_combine,
)

from helpers import random_gamble, random_space, reward_window, utility_zoo
from oracles import transform_by_state, u_convex_combine_by_state

S2 = StateSpace(("s1", "s2"))


def G(*rewards, w=None):
    return Gamble(S2, list(rewards), wealth_floor=w)


def test_state_space_validation():
    with pytest.raises(ValueError):
        StateSpace(())
    with pytest.raises(ValueError):
        StateSpace(("a", "a"))
    assert StateSpace(("a", "b", "c")).m == 3


@pytest.mark.parametrize("labels", ["up", "a", ""])
def test_state_space_rejects_a_bare_string(labels):
    # tuple("up") would be the states 'u' and 'p'.
    message = f"^state labels must be a sequence, not the string {labels!r}$"
    with pytest.raises(ValueError, match=message):
        StateSpace(labels)


def test_gamble_validation():
    with pytest.raises(ValueError):
        G(1.0)  # wrong length
    with pytest.raises(ValueError):
        G(1.0, -5.0, w=2.0)  # breaches the wealth floor
    with pytest.raises(ValueError):
        G(1.0, 2.0, w=0.0)
    g = G(1000.0, -50.0)
    assert g.wealth_floor == 50.0  # defaults to max(1, -min)
    assert G(1.0, 2.0).wealth_floor == 1.0
    with pytest.raises(ValueError):
        Gamble(S2, [1.0, float("nan")])


@pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
def test_gamble_rejects_a_non_finite_wealth_floor(bad):
    with pytest.raises(ValueError, match="wealth floor must be positive and finite"):
        Gamble(S2, [1.0, -1.0], wealth_floor=bad)


def test_gamble_equality_compares_space_floor_and_rewards():
    space = StateSpace(("a", "b"))
    f = Gamble(space, [1.0, -0.5])
    assert f == Gamble(space, np.array([1, -0.5])) and not f != Gamble(space, [1.0, -0.5])
    assert f != Gamble(space, [1.0, -0.5], wealth_floor=2.0)  # the default floor is 1
    assert f != Gamble(StateSpace(("a", "c")), [1.0, -0.5])
    assert f != Gamble(space, [1.0, -0.25])
    assert f.__eq__((1.0, -0.5)) is NotImplemented and f != (1.0, -0.5)
    with pytest.raises(TypeError, match="unhashable"):
        hash(f)


def test_gamble_rewards_are_frozen():
    g = G(1.0, 2.0)
    with pytest.raises(ValueError):
        g.rewards[0] = 9.0


def test_dominates_examples():
    assert dominates(G(1, 2), G(0, 2))
    assert not dominates(G(1, -1), G(0, 0))
    assert dominates(G(3, 3), G(3, 3))
    with pytest.raises(SpaceMismatch):
        dominates(G(1, 2), Gamble(StateSpace(("a", "b")), [0, 0]))


def test_transform_examples():
    out = transform(LogShift(), G(1000.0, 0.0))
    assert out == pytest.approx([math.log(1001.0), 0.0], rel=1e-12)

    f = G(1.5, -0.25)
    assert np.array_equal(transform(Linear(), f), f.rewards)

    out = transform(Sqrt(), G(100.0, 120 * 0.7 * 0.95))
    assert out[0] == pytest.approx(10.0, abs=1e-12)
    assert out[1] == pytest.approx(8.933084573650918, abs=1e-12)


def test_transform_names_offending_state():
    with pytest.raises(DomainError, match="s2"):
        transform(LogShift(), G(5.0, -2.0, w=3.0))


@pytest.mark.parametrize("base", [Linear(), PowerDiscounted(0.0)], ids=["plain", "wealth-shift"])
def test_transform_names_the_state_whose_utility_overflows(base):
    u = Composed(base, PhiPower(400.0))
    with pytest.raises(DomainError, match=r"^state 's2': composed: utility of reward 1\d\.0 is"):
        transform(u, G(1.0, 10.0))


def test_transform_wealth_shift_for_positive_domain_kinds():
    u = PowerDiscounted(0.5)
    zero = G(0.0, 0.0, w=10.0)
    assert transform(u, zero) == pytest.approx([0.0, 0.0], abs=1e-15)
    # Shifted evaluation: u(w + x) - u(w), monotone in x.
    f = G(-5.0, 25.0, w=10.0)
    uf = transform(u, f)
    assert uf[0] < 0 < uf[1]
    expected = u.eval(10.0 + 25.0) - u.eval(10.0)
    assert uf[1] == pytest.approx(expected, rel=1e-12)


def test_default_floor_leaves_the_worst_reward_outside_a_wealth_shifted_domain():
    # max(1, -min) = 5 admits the gamble, but w + min = 0 is not in x > 0.
    g = Gamble(StateSpace(("a", "b")), [-5.0, 3.0])
    assert g.wealth_floor == 5.0
    with pytest.raises(
        DomainError, match=r"^state 'a': power_discounted: reward 0\.0 outside domain x > 0\.0$"
    ):
        transform(PowerDiscounted(0.5), g)
    assert transform(PowerDiscounted(0.5), G(-0.5, 3.0)).min() < 0  # above -1: inside


def test_u_convex_combine_linear_is_addition():
    h = u_convex_combine(Linear(), G(2, 0), G(0, 2), 1.0, 1.0)
    assert h.rewards == pytest.approx([2.0, 2.0], abs=1e-15)


def test_u_convex_combine_identity_coefficients():
    rng = np.random.default_rng(4)
    for u in utility_zoo(rng):
        space = StateSpace(("a", "b", "c"))
        f = random_gamble(rng, space, u)
        g = random_gamble(rng, space, u)
        h = u_convex_combine(u, f, g, 1.0, 0.0)
        assert h.rewards == pytest.approx(f.rewards, rel=1e-10, abs=1e-10)


def test_u_convex_combine_log_shift_geometric_mean():
    # 0.5 log(2) + 0.5 log(4) per state inverts to sqrt(8) - 1.
    h = u_convex_combine(LogShift(), G(1, 1), G(3, 3), 0.5, 0.5)
    assert h.rewards == pytest.approx([math.sqrt(8) - 1] * 2, rel=1e-12)


def test_u_convex_combine_linear_degeneracy_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        f = G(*rng.uniform(-3, 3, 2))
        g = G(*rng.uniform(-3, 3, 2))
        lam, mu = rng.uniform(0, 2, 2)
        h = u_convex_combine(Linear(), f, g, lam, mu)
        assert h.rewards == pytest.approx(lam * f.rewards + mu * g.rewards, abs=1e-12)


def test_u_convex_combine_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        u_convex_combine(Linear(), G(1, 1), G(1, 1), -0.5, 1.0)


@pytest.mark.parametrize(
    "rewards, state", [((-0.9, 1.0), "s1"), ((1.0, -0.9), "s2")], ids=["s1", "s2"]
)
def test_u_convex_combine_image_error_names_state(rewards, state):
    u = PowerDiscounted(0.5)
    f = G(*rewards, w=1.0)
    with pytest.raises(ImageError, match=f"^state '{state}': "):
        u_convex_combine(u, f, f, 4.0, 4.0)


def test_transform_preserves_dominance():
    rng = np.random.default_rng(6)
    for u in utility_zoo(rng):
        space = StateSpace(("a", "b", "c"))
        for _ in range(170):
            g = random_gamble(rng, space, u)
            bump = rng.uniform(0, 1, size=3)
            f = Gamble(space, g.rewards + bump, wealth_floor=g.wealth_floor)
            assert np.all(transform(u, f) >= transform(u, g))


def test_combination_stays_nonnegative_in_utility_space():
    rng = np.random.default_rng(7)
    for u in utility_zoo(rng):
        space = StateSpace(("a", "b"))
        for _ in range(40):
            f = random_gamble(rng, space, u, nonneg=True)
            g = random_gamble(rng, space, u, nonneg=True)
            lam, mu = rng.uniform(0, 2, 2)
            h = u_convex_combine(u, f, g, lam, mu)
            assert np.all(transform(u, h) >= -1e-9)


def test_combine_requires_same_space():
    with pytest.raises(SpaceMismatch):
        u_convex_combine(Linear(), G(1, 1), Gamble(StateSpace(("a", "b")), [1, 1]), 1, 1)


def _transform_pool(rng):
    # Every zoo kind, plus wealth-shifted composition and the remaining phis.
    return utility_zoo(rng) + [
        Composed(PowerDiscounted(0.5), PhiScale(2.0)),
        Composed(Sqrt(), PhiPoly((0.0, 1.0, 0.5))),
        Composed(LogShift(), PhiTable((-10.0, 0.0, 10.0), (-5.0, 0.0, 20.0))),
    ]


def _draw_gamble(rng, space, u, mode):
    """A gamble inside u's window; with some states near its bottom ("low"), where
    large coefficients leave bounded images; or with some states out of u's domain."""
    lo, hi = reward_window(u)
    r = rng.uniform(lo, hi, size=space.m)
    picked = rng.random(space.m) < 0.5
    if mode == "low":
        r[picked] = lo + 0.02 * (r[picked] - lo)
    if mode != "domain" or not math.isfinite(u.domain_lo):
        return Gamble(space, r, wealth_floor=max(1.0, -float(r.min())) * 1.5 + 0.5)
    # Shifted kinds fail where w + x = 0, i.e. at the rewards equal to -w.
    r[picked] = -2.0 if u.needs_wealth_shift else u.domain_lo - rng.uniform(0.0, 1.0)
    return Gamble(space, r)


def _outcome(fn, *args):
    """Values, or the error type and the state its message names (None if none)."""
    try:
        out = fn(*args)
    except (DomainError, ImageError) as exc:
        named = re.match(r"state '([^']*)': ", str(exc))
        return type(exc), named and named.group(1)
    return np.asarray(getattr(out, "rewards", out))


def _assert_same(new, old):
    if isinstance(old, tuple):
        assert new == old
    else:
        # The array eval may differ from scalar eval by a few ulps.
        assert isinstance(new, np.ndarray)
        np.testing.assert_allclose(new, old, rtol=1e-12, atol=1e-12)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.integers(0, 8),
    m=st.integers(1, 5),
    mode=st.sampled_from(["inside", "low", "domain"]),
    lam=st.sampled_from([0.0, 1.0, 4.0]) | st.floats(0.0, 50.0),
    mu=st.sampled_from([0.0, 1.0, 4.0]) | st.floats(0.0, 50.0),
)
def test_transform_and_combine_match_per_state_oracles(seed, kind, m, mode, lam, mu):
    rng = np.random.default_rng(seed)
    u = _transform_pool(rng)[kind]
    space = random_space(rng, m)
    f, g = _draw_gamble(rng, space, u, mode), _draw_gamble(rng, space, u, mode)
    for h in (f, g):
        _assert_same(_outcome(transform, u, h), _outcome(transform_by_state, u, h))

    new = _outcome(u_convex_combine, u, f, g, lam, mu)
    old = _outcome(u_convex_combine_by_state, u, f, g, lam, mu)
    w = max(f.wealth_floor, g.wealth_floor)
    args = np.concatenate([f.rewards, g.rewards]) + (w if u.needs_wealth_shift else 0.0)
    if old[0] is ImageError and not np.all(args > u.domain_lo):
        # The state loop can stop at an image failure before a later state's
        # domain failure; the array evaluation reports the domain failure.
        assert new == (DomainError, None)
    else:
        _assert_same(new, old)
