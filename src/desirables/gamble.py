"""Finite-state gambles: pointwise arithmetic, dominance, and utility transforms."""

from __future__ import annotations

import numpy as np

from ._record import Record
from .errors import DomainError, ImageError, SpaceMismatch
from .utility import Utility

__all__ = [
    "StateSpace",
    "Gamble",
    "dominates",
    "transform",
    "u_convex_combine",
]


class StateSpace(Record):
    """An ordered set of distinct state labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.labels, str):  # tuple("up") would be the states 'u', 'p'
            raise ValueError(f"state labels must be a sequence, not the string {self.labels!r}")
        labels = tuple(str(s) for s in self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("state space needs at least one state")
        if len(set(labels)) != len(labels):
            raise ValueError(f"state labels must be distinct, got {labels!r}")

    @property
    def m(self) -> int:
        return len(self.labels)


class Gamble(Record, eq=False):
    """State-contingent rewards bounded below by -wealth_floor.

    ``wealth_floor`` is the positive wealth bank w covering potential losses;
    it defaults to max(1, -min(rewards)), so any bounded reward vector makes a
    gamble, but a wealth-shifted utility on x > 0 then fails at a reward of
    -1 or less: w + min = 0, and :func:`transform` raises DomainError.
    """

    space: StateSpace
    rewards: np.ndarray
    wealth_floor: float | None = None

    def __post_init__(self):
        rewards = np.asarray(self.rewards, dtype=float).copy()
        if rewards.ndim != 1 or rewards.shape[0] != self.space.m:
            raise ValueError(
                f"rewards must be a vector of length {self.space.m}, got shape {rewards.shape}"
            )
        if not np.all(np.isfinite(rewards)):
            raise ValueError("rewards must be finite")
        w = self.wealth_floor
        if w is None:
            w = max(1.0, float(-rewards.min()))
        w = float(w)
        if not 0 < w < np.inf:
            raise ValueError(f"wealth floor must be positive and finite, got {w!r}")
        if rewards.min() < -w:
            raise ValueError(
                f"rewards must stay above -wealth_floor = {-w}, got min {rewards.min()}"
            )
        rewards.flags.writeable = False
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "wealth_floor", w)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Gamble):
            return NotImplemented
        return (
            self.space == other.space
            and self.wealth_floor == other.wealth_floor
            and bool(np.array_equal(self.rewards, other.rewards))
        )

    def __repr__(self) -> str:
        vals = ", ".join(f"{s}={r:g}" for s, r in zip(self.space.labels, self.rewards))
        return f"Gamble({vals}; w={self.wealth_floor:g})"


def _check_same_space(f: Gamble, g: Gamble) -> None:
    if f.space != g.space:
        raise SpaceMismatch(f"state spaces differ: {f.space.labels} vs {g.space.labels}")


def dominates(f: Gamble, g: Gamble) -> bool:
    """True iff f pays at least as much as g in every state (weak dominance)."""
    _check_same_space(f, g)
    return bool(np.all(f.rewards >= g.rewards))


def _utility(u: Utility, rewards: np.ndarray, w: float) -> np.ndarray:
    # u(x), or u(w + x) - u(w) for kinds that need a wealth shift, as one array eval.
    return u.eval(w + rewards) - u.eval(w) if u.needs_wealth_shift else u.eval(rewards)


def transform(u: Utility, f: Gamble) -> np.ndarray:
    """Utility of a gamble, one array evaluation over its states.

    Kinds that require strictly positive arguments are evaluated on
    wealth-shifted rewards, u(w + f(s)) - u(w), which restores u(0) = 0 and
    preserves monotonicity while keeping losses within the wealth bank.  The
    array ``eval`` may differ from per-state scalar ``eval`` by a few ulps (see
    :mod:`desirables._backend`).  A DomainError (a reward outside u's domain,
    or a utility that is not finite) names the first failing state.
    """
    try:
        return _utility(u, f.rewards, f.wealth_floor)
    except DomainError:
        for label, reward in zip(f.space.labels, f.rewards.tolist()):
            try:
                _utility(u, reward, f.wealth_floor)
            except DomainError as exc:
                raise DomainError(f"state {label!r}: {exc}") from None
        raise


def u_convex_combine(u: Utility, f: Gamble, g: Gamble, lam: float, mu: float) -> Gamble:
    """The gamble h with u(h) = lam*u(f) + mu*u(g), taken pointwise.

    With linear utility this reduces to lam*f + mu*g exactly.  u(f) and u(g)
    are array evaluations, which may differ from per-state scalar ``eval`` by
    a few ulps; ``inverse`` is applied per state.  Raises DomainError when a
    reward of f or g leaves u's domain, else ImageError naming the first state
    where the combination leaves u's image.
    """
    _check_same_space(f, g)
    if lam < 0 or mu < 0:
        raise ValueError(f"coefficients must be nonnegative, got {lam!r}, {mu!r}")
    w = max(f.wealth_floor, g.wealth_floor)
    v = lam * _utility(u, f.rewards, w) + mu * _utility(u, g.rewards, w)
    shift = u.needs_wealth_shift
    base = u.eval(w) if shift else 0.0

    def inverse(label: str, value: float) -> float:
        try:
            return u.inverse(value + base) - w if shift else u.inverse(value)
        except ImageError as exc:
            raise ImageError(f"state {label!r}: {exc}") from None

    rewards = np.array(list(map(inverse, f.space.labels, v.tolist())))
    # Unbounded-below utilities let the combination dip under the inputs'
    # floor; widen the bank so the result stays admissible.
    return Gamble(f.space, rewards, wealth_floor=max(w, float(-rewards.min())))
