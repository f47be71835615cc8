"""Discount regimes D(t[, x][, s]) in (0, 1], all normalized to 1 at t = 0.

Kinds
-----
Exponential            D(t) = exp(-r t)
Hyperbolic             D(t) = 1 / (1 + k t)
QuasiHyperbolic        D(0) = 1, D(t) = beta * delta^t for t > 0
GeneralizedHyperbolic  D(t) = (1 + k t)^(-p)
ScaleDependent         D(t, x) = base(t)^eta(x)
StateDependent         D(t, s) = exp(-r(s) t)
Hybrid                 D(t) = lambda d1(t) + (1 - lambda) d2(t)

Time units are abstract; rates and k are per unit time.  ``round_factors``
replays published two-decimal factor rounding: primitive regimes round their
factor to two decimals and a hybrid combines the rounded components without
re-rounding, with Python's ``round`` semantics on arrays too.

Each regime writes ``_factor`` once against a backend ``xp``
(:mod:`desirables._backend`): ``factor`` evaluates it on one float with
:mod:`math` and rejects a delay that is not >= 0 (NaN included).
:mod:`desirables.intertemporal` calls ``_factor`` on times and shifts it has
already checked, on a numpy grid of delays or traced into a valuation loop.

A per-payment quantity is scalar code that ``_factor`` hands to ``xp.each``:
eta(x) is the eta spec's bound ``_of_payment`` and a state's rate a partial of
``_state_rate`` over the rate map.  Neither refers to the regime, so a
valuation loop cached on a regime binds nothing that refers back to it, and
the regime is freed by reference counting.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping

from ._backend import SCALAR, checked_table
from ._record import Record
from .errors import DomainError, MissingArgument, UnknownState

__all__ = [
    "DiscountSpec",
    "Exponential",
    "Hyperbolic",
    "QuasiHyperbolic",
    "GeneralizedHyperbolic",
    "ScaleDependent",
    "StateDependent",
    "Hybrid",
    "EtaSpec",
    "InverseLog",
    "TabulatedEta",
    "factor",
    "uses_states",
    "ConstraintReport",
    "check_scale_monotonicity",
]

# Nested ScaleDependent/Hybrid composition is allowed to this depth.
_MAX_DEPTH = 8


class DiscountSpec:
    """Base class for discount regimes.

    A regime caches the valuation loop of each utility it values
    (:func:`desirables.intertemporal.schedule_value`), so it keeps the last
    eight utilities it valued per rounding alive for as long as it lives.
    """

    kind: str = "abstract"

    def factor(
        self,
        t: float,
        x: float | None = None,
        s: str | None = None,
        *,
        round_factors: bool = False,
    ) -> float:
        """Discount factor at delay ``t`` (reward ``x`` / state ``s`` where required).

        A delay that is not >= 0 (NaN included) raises DomainError naming it.
        """
        if type(t) is not float:
            t = float(t)
        if not t >= 0:
            _reject_delay(t)
        return self._factor(t, x, s, round_factors)

    def _factor(self, t, x, s, rounded, xp=SCALAR):
        raise NotImplementedError

    def _parts(self) -> tuple[DiscountSpec, ...]:  # the regimes it is composed of
        return ()

    def _depth(self) -> int:
        return 1 + max((part._depth() for part in self._parts()), default=0)

    def __getstate__(self):
        # Without the valuation loops intertemporal caches here (``_loops``):
        # they are functions of this process, compiled again on first use.
        return {k: v for k, v in vars(self).items() if k != "_loops"}


def _reject_delay(t) -> None:
    raise DomainError(f"delay must be nonnegative, got {t!r}")


def _check_depth(spec: DiscountSpec) -> None:
    if spec._depth() > _MAX_DEPTH:
        raise ValueError(f"discount nesting deeper than {_MAX_DEPTH} levels")


class Exponential(DiscountSpec, Record):
    """Constant-rate decay exp(-r t); the unique time-translation-invariant regime."""

    r: float

    kind = "exponential"

    def __post_init__(self):
        if not 0 <= self.r < math.inf:
            raise ValueError(f"rate must be nonnegative and finite, got {self.r!r}")

    def _factor(self, t, x, s, rounded, xp=SCALAR):
        # D = 1 at every delay when r = 0, inf included (-0.0 * inf is NaN).
        v = xp.exp(-self.r * t) if self.r else t**0.0
        return xp.round2(v) if rounded else v


class Hyperbolic(DiscountSpec, Record):
    """1 / (1 + k t): declining discount rate k / (1 + k t), k > 0."""

    k: float

    kind = "hyperbolic"

    def __post_init__(self):
        if not 0 < self.k < math.inf:
            raise ValueError(f"k must be positive and finite, got {self.k!r}")

    def _factor(self, t, x, s, rounded, xp=SCALAR):
        v = 1.0 / (1.0 + self.k * t)
        return xp.round2(v) if rounded else v


class QuasiHyperbolic(DiscountSpec, Record):
    """Present bias beta in (0, 1] at any positive delay, then exponential decay delta^t.

    The indicator on t > 0 is an exact comparison: delay values are inputs,
    never computed, so no epsilon applies.
    """

    beta: float
    delta: float

    kind = "quasi_hyperbolic"

    def __post_init__(self):
        if not 0 < self.beta <= 1:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta!r}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")

    def _factor(self, t, x, s, rounded, xp=SCALAR):
        v = self.beta * self.delta**t
        return xp.where(t == 0, 1.0, xp.round2(v) if rounded else v)


class GeneralizedHyperbolic(DiscountSpec, Record):
    """(1 + k t)^(-p): p = 1 recovers the hyperbolic regime, larger p steepens decay."""

    k: float
    p: float

    kind = "generalized_hyperbolic"

    def __post_init__(self):
        if not 0 < self.k < math.inf:
            raise ValueError(f"k must be positive and finite, got {self.k!r}")
        if not 0 < self.p < math.inf:
            raise ValueError(f"p must be positive and finite, got {self.p!r}")

    def _factor(self, t, x, s, rounded, xp=SCALAR):
        v = (1.0 + self.k * t) ** (-self.p)
        return xp.round2(v) if rounded else v


class EtaSpec:
    """Reward-dependent exponent eta(x) > 0 modulating a base discount curve."""

    form: str = "abstract"
    #: Exclusive lower bound on admissible rewards; None when unrestricted.
    domain_min: float | None = None

    def value(self, x: float) -> float:
        raise NotImplementedError

    def derivative(self, x: float) -> float:
        raise NotImplementedError

    def _check(self, x: float) -> None:
        if self.domain_min is not None and not x > self.domain_min:
            raise DomainError(
                f"{self.form}: reward {x!r} outside eta domain x > {self.domain_min!r}"
            )

    def _of_payment(self, x) -> float:
        # eta(x) of one payment, per ScaleDependent._factor.
        if x is None:
            raise MissingArgument("scale-dependent discounting needs the reward x")
        return self.value(float(x))


class InverseLog(EtaSpec, Record):
    """eta(x) = 1 / log_b(x) on x > 1; larger rewards get smaller effective rates."""

    log_base: float = 10.0

    form = "inverse_log"
    domain_min = 1.0

    def __post_init__(self):
        if not 1 < self.log_base < math.inf:
            raise ValueError(f"log base must exceed 1 and be finite, got {self.log_base!r}")
        object.__setattr__(self, "_ln_b", math.log(self.log_base))

    def value(self, x: float) -> float:
        # math.log(x, b) is log(x) / log(b): the same bits, one logarithm fewer.
        self._check(x)
        return 1.0 / (math.log(x) / self._ln_b)

    def derivative(self, x: float) -> float:
        # d/dx [1 / log_b x] = -1 / (x ln(b) log_b(x)^2), analytic.
        self._check(x)
        return -1.0 / (x * self._ln_b * (math.log(x) / self._ln_b) ** 2)


class TabulatedEta(EtaSpec, Record):
    """Tabulated eta: linear interpolation inside the table, constant beyond its ends."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    form = "tabulated"
    domain_min = None

    def __post_init__(self):
        xs, ys = checked_table(self.xs, self.ys, 1, "nonempty x/y sequences")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if any(y <= 0 for y in ys):
            raise ValueError("eta values must be positive")

    def value(self, x: float) -> float:
        # np.interp's arithmetic, bit for bit, without importing numpy.
        xs, ys = self.xs, self.ys
        if len(xs) == 1:
            return ys[0]
        if x != x:
            return x
        if x <= xs[0]:
            return ys[0]
        if x >= xs[-1]:
            return ys[-1]
        i = SCALAR.segment(xs, x)
        x0, y0, y1 = xs[i], ys[i], ys[i + 1]
        if x == x0:
            return y0
        slope = (y1 - y0) / (xs[i + 1] - x0)
        v = slope * (x - x0) + y0
        if v != v:  # 0 * inf in a table spanning more than the largest float
            v = slope * (x - xs[i + 1]) + y1
            if v != v and y0 == y1:
                v = y0
        return v

    def derivative(self, x: float) -> float:
        # Central differences at relative step 1e-5 * x.
        h = 1e-5 * abs(x) if x != 0 else 1e-5
        return (self.value(x + h) - self.value(x - h)) / (2 * h)


class ScaleDependent(DiscountSpec, Record):
    """Magnitude effect base(t)^eta(x): reward-dependent patience."""

    base: DiscountSpec
    eta: EtaSpec

    kind = "scale_dependent"

    def __post_init__(self):
        _check_depth(self)

    def _parts(self) -> tuple[DiscountSpec, ...]:
        return (self.base,)

    def _factor(self, t, x, s, rounded, xp=SCALAR):
        # eta(x) is per payment: scalar code, once per payment on a grid.
        exponent = xp.each(self.eta._of_payment, x)
        v = self.base._factor(t, x, s, False, xp) ** exponent
        return xp.round2(v) if rounded else v


class StateDependent(DiscountSpec, Record):
    """Per-state exponential decay exp(-r(s) t) from a label -> rate map or (label, rate) pairs."""

    rates: tuple[tuple[str, float], ...]

    kind = "state_dependent"

    def __init__(self, rates):
        pairs = rates.items() if isinstance(rates, Mapping) else rates  # dict() drops repeats
        items = tuple(sorted((str(k), float(v)) for k, v in pairs))
        object.__setattr__(self, "rates", items)
        object.__setattr__(self, "_by_label", dict(items))
        # r(s) per payment, over the map alone (see the module docstring).
        object.__setattr__(self, "_state_rate", functools.partial(_state_rate, self._by_label))
        if not items:
            raise ValueError("rate map must not be empty")
        for (label, _), (following, _) in zip(items, items[1:]):  # sorted: repeats are adjacent
            if label == following:
                raise ValueError(f"state label {label!r} appears more than once in the rate map")
        if not all(0 < r < math.inf for _, r in items):
            raise ValueError("every state rate must be positive and finite")

    def rate(self, s: str) -> float:
        try:
            return self._by_label[s]
        except (KeyError, TypeError):
            raise _unknown_state(self._by_label, s) from None

    def _factor(self, t, x, s, rounded, xp=SCALAR):
        # The rate is per payment: scalar code, once per payment on a grid.
        rate = xp.each(self._state_rate, s)
        v = xp.exp(-rate * t)
        return xp.round2(v) if rounded else v


def _state_rate(by_label: dict, s) -> float:
    if s is None:
        raise MissingArgument("state-dependent discounting needs a state label")
    try:
        return by_label[s]
    except (KeyError, TypeError):
        raise _unknown_state(by_label, s) from None


def _unknown_state(by_label: dict, s) -> UnknownState:
    return UnknownState(f"state {s!r} not in rate map {list(by_label)!r}")


class Hybrid(DiscountSpec, Record):
    """Convex mixture lambda d1(t) + (1 - lambda) d2(t), lambda in [0, 1]."""

    lam: float
    d1: DiscountSpec
    d2: DiscountSpec

    kind = "hybrid"

    def __post_init__(self):
        if not 0 <= self.lam <= 1:
            raise ValueError(f"lambda must lie in [0, 1], got {self.lam!r}")
        _check_depth(self)

    def _parts(self) -> tuple[DiscountSpec, ...]:
        return (self.d1, self.d2)

    def _factor(self, t, x, s, rounded, xp=SCALAR):
        first = self.d1._factor(t, x, s, rounded, xp)
        second = self.d2._factor(t, x, s, rounded, xp)
        return self.lam * first + (1.0 - self.lam) * second


def factor(
    d: DiscountSpec,
    t: float,
    x: float | None = None,
    s: str | None = None,
    *,
    round_factors: bool = False,
) -> float:
    """Discount factor of ``d`` at delay ``t``; see :meth:`DiscountSpec.factor`."""
    return d.factor(t, x, s, round_factors=round_factors)


def uses_states(d: DiscountSpec) -> bool:
    """True when the regime (or any nested component) reads state labels."""
    return isinstance(d, StateDependent) or any(map(uses_states, d._parts()))


class ConstraintReport(Record):
    """Grid audit of the scale-dependent monotonicity constraint.

    Records every (t, x) grid point where 1 + eta'(x) * x * ln(base(t)) fails
    to stay positive; ``passed`` is True when no violations were found.
    """

    passed: bool
    violations: tuple[tuple[float, float, float], ...]
    t_grid: tuple[float, ...]
    x_grid: tuple[float, ...]


def check_scale_monotonicity(d: ScaleDependent, t_grid, x_grid) -> ConstraintReport:
    """Audit that x -> base(t)^eta(x) * x stays strictly increasing on a grid.

    The criterion at each grid point is 1 + eta'(x) * x * ln(base(t)) > 0,
    with eta' analytic for inverse-log and central-differenced for tables.
    """
    ts = tuple(float(t) for t in t_grid)
    xs = tuple(float(x) for x in x_grid)
    if not ts or not xs:
        raise ValueError("grids must be nonempty")
    for x in xs:
        d.eta._check(x)
    violations = []
    for t in ts:
        # Underflow to 0 is the limit ln D -> -inf: -inf where eta'(x) x > 0, else no violation.
        factor = d.base.factor(t)
        log_base_factor = math.log(factor) if factor > 0 else -math.inf
        for x in xs:
            value = 1.0 + d.eta.derivative(x) * x * log_base_factor
            if value <= 0:
                violations.append((t, x, value))
    return ConstraintReport(
        passed=not violations,
        violations=tuple(violations),
        t_grid=ts,
        x_grid=xs,
    )
