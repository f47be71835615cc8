"""Effective utility of dated payments and preference-reversal scans.

The valuation of a reward x delayed by t is v(x, t) = u(D(t) x); schedules
sum per-payment effective utilities.  A reversal scan shifts every payment
of two schedules by a common delay and reports where the pairwise preference
flips relative to the unshifted baseline.

``reversal_scan`` evaluates the scalar formulas of ``schedule_value`` on a
grid of delays (shifts x the payments of ``a`` then ``b``, 128 shifts per
block): one ``factor`` and one ``eval`` call per block, per-payment
quantities (eta(x), state rates) once per payment and block, each shift's value
summed over the payment columns in the order ``sum`` adds payments.  numpy's
``exp``/``log1p``/``pow`` can differ from libm's in the last bits, so a scan
value may differ from ``schedule_value`` of the shifted schedule by a few
ulps.  The baseline is ``compare`` of the unshifted schedules.  An error in
a block is raised as the shift-by-shift loop raises it, naming the payment
(see ``schedule_value``).
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .discount import DiscountSpec, uses_states
from .errors import DesirablesError
from .utility import Utility

__all__ = [
    "DatedPayment",
    "PaymentSchedule",
    "Preference",
    "effective_utility",
    "schedule_value",
    "compare",
    "shift_schedule",
    "ScanResult",
    "reversal_scan",
]


@dataclass(frozen=True)
class DatedPayment:
    """A reward paid at a nonnegative delay, optionally tagged with a state label."""

    amount: float
    time: float
    state: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "amount", float(self.amount))
        object.__setattr__(self, "time", float(self.time))
        if not self.time >= 0:
            raise ValueError(f"payment time must be nonnegative, got {self.time!r}")


@dataclass(frozen=True)
class PaymentSchedule:
    """A nonempty list of dated payments; evaluation order does not matter."""

    payments: tuple[DatedPayment, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "payments", tuple(self.payments))
        if not self.payments:
            raise ValueError("schedule needs at least one payment")


class Preference(enum.Enum):
    A = "A"
    B = "B"
    INDIFFERENT = "indifferent"


def effective_utility(
    u: Utility,
    d: DiscountSpec,
    x: float,
    t: float,
    s: str | None = None,
    *,
    round_factors: bool = False,
) -> float:
    """u(D(t[, x][, s]) * x): the worth of reward x delayed by t."""
    return u.eval(d.factor(t, x, s, round_factors=round_factors) * x)


def schedule_value(
    u: Utility,
    d: DiscountSpec,
    sch: PaymentSchedule,
    *,
    round_factors: bool = False,
) -> float:
    """Sum of per-payment effective utilities, invariant to payment order.

    An error in a payment is re-raised as the same type, its message prefixed
    with ``payment {i} (amount=..., t=...)``.
    """
    if not uses_states(d) and any(p.state is not None for p in sch.payments):
        warnings.warn(
            f"schedule {sch.label!r} carries state labels but the discount "
            "regime is state-independent; labels are ignored",
            stacklevel=2,
        )
    values = []
    for i, p in enumerate(sch.payments):
        try:
            values.append(
                effective_utility(u, d, p.amount, p.time, p.state, round_factors=round_factors)
            )
        except DesirablesError as exc:
            raise type(exc)(f"payment {i} (amount={p.amount:g}, t={p.time:g}): {exc}") from None
    return sum(values)


def compare(
    u: Utility,
    d: DiscountSpec,
    a: PaymentSchedule,
    b: PaymentSchedule,
    *,
    tol: float = 1e-9,
    round_factors: bool = False,
) -> Preference:
    """Preference between two schedules; Indifferent within absolute ``tol`` (0 <= tol < inf)."""
    if not 0.0 <= tol < np.inf:  # NaN fails too
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    va = schedule_value(u, d, a, round_factors=round_factors)
    vb = schedule_value(u, d, b, round_factors=round_factors)
    if va > vb + tol:
        return Preference.A
    if vb > va + tol:
        return Preference.B
    return Preference.INDIFFERENT


def shift_schedule(sch: PaymentSchedule, delta: float) -> PaymentSchedule:
    """The schedule with every payment delayed by a common ``delta`` >= 0."""
    if not delta >= 0:
        raise ValueError(f"shift must be nonnegative, got {delta!r}")
    payments = tuple(
        DatedPayment(p.amount, p.time + delta, p.state) for p in sch.payments
    )
    return PaymentSchedule(payments, sch.label)


@dataclass(frozen=True)
class ScanResult:
    """Preference trace over common time shifts.

    ``baseline`` is the preference with no shift; ``first_flip`` is the
    smallest scanned shift whose strict preference opposes a strict baseline,
    or None when no such reversal occurs.  ``value_a`` and ``value_b`` hold
    the two schedule values at each traced shift.
    """

    trace: tuple[tuple[float, Preference], ...]
    baseline: Preference
    first_flip: float | None
    value_a: tuple[float, ...]
    value_b: tuple[float, ...]

    @property
    def reversed(self) -> bool:
        return self.first_flip is not None


# Shifts per block of the grid: a block of 128 shifts x 100 payments takes
# 100 kB per array, so the grid's temporaries stay small and in cache.
_BLOCK_SHIFTS = 128


def reversal_scan(
    u: Utility,
    d: DiscountSpec,
    a0: PaymentSchedule,
    b0: PaymentSchedule,
    shifts,
    *,
    tol: float = 1e-9,
    round_factors: bool = False,
) -> ScanResult:
    """Compare the two schedules under every common shift, in increasing order.

    Shifts must be >= 0 (NaN is rejected).  Values are computed on a grid
    (see the module docstring); ``tol`` is the absolute indifference band, as
    in :func:`compare`, which rejects a negative or non-finite one.
    """
    deltas = [float(s) for s in shifts]
    if not deltas:
        raise ValueError("need at least one shift")
    for delta in deltas:
        if not delta >= 0:
            raise ValueError(f"shifts must be nonnegative, got {delta!r}")
    deltas.sort()
    baseline = compare(u, d, a0, b0, tol=tol, round_factors=round_factors)
    payments = a0.payments + b0.payments
    x = np.array([p.amount for p in payments])
    times = np.array([p.time for p in payments])
    states = [p.state for p in payments]
    n_a = len(a0.payments)
    va, vb = np.empty(len(deltas)), np.empty(len(deltas))
    for lo in range(0, len(deltas), _BLOCK_SHIFTS):
        block = slice(lo, lo + _BLOCK_SHIFTS)
        t = times[None, :] + np.array(deltas[block])[:, None]
        try:
            cells = u.eval(d.factor(t, x, states, round_factors=round_factors) * x)
        except DesirablesError:
            # Replay the block shift by shift, so the error names its payment.
            for delta in deltas[block]:
                a, b = shift_schedule(a0, delta), shift_schedule(b0, delta)
                compare(u, d, a, b, round_factors=round_factors)
            raise
        va[block], vb[block] = _sum_columns(cells[:, :n_a]), _sum_columns(cells[:, n_a:])
    a_wins, b_wins = (va > vb + tol).tolist(), (vb > va + tol).tolist()
    trace = tuple(
        (delta, Preference.A if a else Preference.B if b else Preference.INDIFFERENT)
        for delta, a, b in zip(deltas, a_wins, b_wins)
    )
    opposite = {Preference.A: Preference.B, Preference.B: Preference.A}.get(baseline)
    first_flip = next((delta for delta, pref in trace if pref is opposite), None)
    return ScanResult(
        trace=trace,
        baseline=baseline,
        first_flip=first_flip,
        value_a=tuple(va.tolist()),
        value_b=tuple(vb.tolist()),
    )


def _sum_columns(cells: np.ndarray) -> np.ndarray:
    # Column after column, as ``sum`` adds payments: pairwise summation
    # (``cells.sum(axis=1)``) would round differently.
    total = np.zeros(cells.shape[0])
    for column in cells.T:
        total += column
    return total
