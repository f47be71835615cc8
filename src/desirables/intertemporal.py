"""Effective utility of dated payments and preference-reversal scans.

The valuation of a reward x delayed by t is v(x, t) = u(D(t) x); schedules
sum per-payment effective utilities.  A reversal scan shifts every payment
of two schedules by a common delay and reports where the pairwise preference
flips relative to the unshifted baseline.

``DatedPayment``, ``shift_schedule`` and ``reversal_scan`` reject a time or
shift that is not >= 0 (NaN included).  ``schedule_value``, ``compare`` and
the scan's grid trust them and call the regime's ``_factor`` without
``factor``'s delay check; ``effective_utility`` goes through ``factor``.

``schedule_value`` and ``compare`` run one loop per (utility, regime,
rounding), generated from the :data:`~desirables._backend.TRACE` record of the
regime's ``_factor`` and the utility's ``_eval`` and cached on the regime.  It
inlines the factor and ``Utility.eval``'s checks, so a payment makes no
Python call but per-payment scalar code (eta(x), state rates) and ``math``.

``reversal_scan`` evaluates the scalar formulas of ``schedule_value`` on a
grid of delays (shifts x the payments of ``a`` then ``b``) in ceil(N / 128)
blocks of near-equal shift counts: one ``_factor`` and one ``eval`` call per
block, per-payment quantities (eta(x), state rates) once per payment and
scan.  Each side of a block is transposed to a contiguous payments x shifts
array and summed by one ``np.add.reduce`` over its rows, which numpy adds in
order, so each shift's value is its payments added left to right from 0.0,
as ``schedule_value`` adds them.  numpy sums a block of one shift pairwise
instead, so no block holds one shift: a one-shift scan is evaluated on its
shift twice.  numpy's ``exp``/``log1p``/``pow`` can differ from libm's in the
last bits, so a scan value may differ from ``schedule_value`` of the shifted
schedule by a few ulps.  The baseline is ``compare`` of the unshifted
schedules.  An error in a block is raised as the shift-by-shift loop raises
it, naming the payment (see ``schedule_value``).
"""

from __future__ import annotations

import enum
import functools
import math
import sys
import warnings

from . import _backend
from ._record import Record
from .discount import DiscountSpec, uses_states
from .errors import DesirablesError
from .utility import Utility, eval_checks

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


class DatedPayment(Record):
    """A reward paid at a nonnegative delay, optionally tagged with a state label."""

    amount: float
    time: float
    state: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "amount", float(self.amount))
        object.__setattr__(self, "time", float(self.time))
        if not self.time >= 0:
            raise ValueError(f"payment time must be nonnegative, got {self.time!r}")


class PaymentSchedule(Record):
    """A nonempty list of dated payments; evaluation order does not matter."""

    payments: tuple[DatedPayment, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "payments", tuple(self.payments))
        if not self.payments:
            raise ValueError("schedule needs at least one payment")
        # Read by schedule_value, so unlabelled schedules skip the regime walk.
        object.__setattr__(self, "_has_states", any(p.state is not None for p in self.payments))


class Preference(enum.Enum):
    A = "A"
    B = "B"
    INDIFFERENT = "indifferent"


# compare's preferences by band code (va > vb + tol) + 2 * (vb > va + tol), never 3.
_PREFERENCES = (Preference.INDIFFERENT, Preference.A, Preference.B)


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

    The payments' values are added left to right from 0.0.  An error in a
    payment is re-raised as the same type, its message prefixed with
    ``payment {i} (amount=..., t=...)``, and before that with
    ``schedule "{label}"`` when the schedule has a label.
    """
    return _loop(u, d, round_factors)(sch)


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
    if not 0.0 <= tol < math.inf:  # NaN fails too
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    loop = _loop(u, d, round_factors)
    va, vb = loop(a), loop(b)
    return _PREFERENCES[(va > vb + tol) + 2 * (vb > va + tol)]


def _loop(u: Utility, d: DiscountSpec, rounded):
    """schedule_value's loop for (u, d, rounded): compiled once, then read from ``d._loops``.

    ``d._loops`` holds two dicts, for rounded and unrounded factors, read as
    ``_loops[not rounded]`` and keyed by ``id(u)``.  A loop's closure holds
    ``u``'s bound methods, so while it is cached its key names no other
    utility; it holds nothing bound to ``d``, so ``d`` and its loops form no
    reference cycle.  The loop reads ``u``'s and ``d``'s parameters once, when
    it is compiled: both are frozen records.
    """
    try:
        return d._loops[not rounded][id(u)]
    except (AttributeError, KeyError):
        pass
    tape = _backend.Tape()
    t, x, s = map(tape.operand, ("t", "x", "s"))
    w = d._factor(t, x, s, bool(rounded), _backend.TRACE) * x
    n = len(tape.lines)
    v = tape.name(u._eval(w, _backend.TRACE))
    utility = eval_checks(
        tape.lines[n:],
        w.name,
        v,
        lo=tape.name(u.domain_lo),
        outside_domain=tape.name(u._outside_domain),
        not_finite=tape.name(u._not_finite),
        neg_inf=tape.name(-math.inf),
        inf=tape.name(math.inf),
    )
    names = {
        "warn": "" if uses_states(d) else _WARN.format(warn_labels=tape.name(_warn_labels)),
        "error": tape.name(DesirablesError),
        "fail": tape.name(_payment_error),
    }
    fields = (("x", "amount"), ("t", "time"), ("s", "state"))
    reads = [f"{name} = p.{field}" for name, field in fields if name in tape.read]
    source = _LOOP.format(
        values=", ".join(f"_k{i}" for i in range(len(tape.values))),
        factor=_indent(reads + tape.lines[:n], 16),
        utility=_indent(utility, 16),
        v=v,
        **names,
    )
    loop = _builder(source)(*tape.values)
    loops = vars(d).setdefault("_loops", ({}, {}))[not rounded]
    # Drop the oldest: list() copies the keys in one step, and pop tolerates a
    # key another thread has dropped.
    keys = list(loops)
    for key in keys[: max(0, len(keys) + 1 - _MAX_LOOPS)]:
        loops.pop(key, None)
    loops[id(u)] = loop
    return loop


# schedule_value's loop, with the regime's _factor inlined from its TRACE
# record ({factor}) and the utility's _eval inside Utility.eval's checks
# ({utility}, from utility.EVAL_CHECKS).  A payment's time is a float >= 0
# (DatedPayment checked it), so there is no delay check; the payments' values
# are added left to right from 0.0.  Only state-independent regimes warn
# about labels ({warn}).
_LOOP = """\
def build({values}):
    def loop(sch):
{warn}        total = 0.0
        try:
            for p in sch.payments:
{factor}
{utility}
                total += {v}
        except {error} as exc:
            {fail}(exc, sch, p)
        return total
    return loop
"""
_WARN = """\
        if sch._has_states:
            {warn_labels}(sch)
"""

# Most loops cached on one regime per rounding, each pinning its utility, and
# most loop sources kept compiled.  The valuation workload and the CLI value
# each regime with one utility; eight leave room for a few to alternate.
_MAX_LOOPS = 8
_MAX_SHAPES = 256


def _indent(lines, width):
    return "\n".join(" " * width + line for line in lines)


@functools.lru_cache(maxsize=_MAX_SHAPES)
def _builder(source: str):
    # One code object per formula shape; each (u, d, rounded) binds its own
    # values.  The loops share this module's globals, so _warn_labels walks
    # past them as past compare.
    namespace = {}
    exec(compile(source, "<valuation loop>", "exec"), globals(), namespace)
    return namespace["build"]


def _warn_labels(sch: PaymentSchedule) -> None:
    # The warning names the first caller outside this module.
    frame, level = sys._getframe(1), 2
    while frame.f_globals is globals():
        frame, level = frame.f_back, level + 1
    warnings.warn(
        f"schedule {sch.label!r} carries state labels but the discount "
        "regime is state-independent; labels are ignored",
        stacklevel=level,
    )


def _payment_error(exc: DesirablesError, sch: PaymentSchedule, p: DatedPayment):
    i = next(i for i, q in enumerate(sch.payments) if q is p)
    where = f'schedule "{sch.label}" ' if sch.label else ""
    raise type(exc)(f"{where}payment {i} (amount={p.amount:g}, t={p.time:g}): {exc}") from None


def shift_schedule(sch: PaymentSchedule, delta: float) -> PaymentSchedule:
    """The schedule with every payment delayed by a common ``delta`` >= 0."""
    if not delta >= 0:
        raise ValueError(f"shift must be nonnegative, got {delta!r}")
    payments = tuple(
        DatedPayment(p.amount, p.time + delta, p.state) for p in sch.payments
    )
    return PaymentSchedule(payments, sch.label)


class ScanResult(Record):
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


# Most shifts per block of the grid: a block of 128 shifts x 100 payments
# takes 100 kB per array, so the grid's temporaries stay small and in cache.
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
    import numpy as np
    payments = a0.payments + b0.payments
    x = np.array([p.amount for p in payments])
    times = np.array([p.time for p in payments])
    states = [p.state for p in payments]
    n_a = len(a0.payments)
    # A one-shift block would be summed pairwise: a lone shift is evaluated twice.
    grid = np.array(deltas * 2 if len(deltas) == 1 else deltas)
    n, blocks = len(grid), -(-len(grid) // _BLOCK_SHIFTS)
    va, vb = np.empty(n), np.empty(n)
    xp = _backend.memo_grid()  # x and states are the same objects in every block
    # Sums and products that overflow are inf, as in the scalar formulas.
    with np.errstate(over="ignore"):
        for i in range(blocks):
            block = slice(i * n // blocks, (i + 1) * n // blocks)
            # Times and shifts are floats >= 0, so t is too: no delay check.
            t = times[None, :] + grid[block, None]
            try:
                cells = u.eval(d._factor(t, x, states, round_factors, xp) * x)
            except DesirablesError:
                # Replay the block shift by shift, so the error names its payment.
                for delta in grid[block].tolist():
                    a, b = shift_schedule(a0, delta), shift_schedule(b0, delta)
                    compare(u, d, a, b, round_factors=round_factors)
                raise
            # Payments x shifts, contiguous: numpy adds the rows in order.
            cells = np.ascontiguousarray(cells.T)
            va[block], vb[block] = np.add.reduce(cells[:n_a]), np.add.reduce(cells[n_a:])
    # A sum from 0.0 gives no -0.0; a reduction may start from its first row.
    va, vb = va[:len(deltas)] + 0.0, vb[:len(deltas)] + 0.0
    # compare's band codes; 3 - k opposes baseline code k, and no code is 3.
    code = (va > vb + tol) + 2 * (vb > va + tol)
    flips = np.flatnonzero(code == 3 - _PREFERENCES.index(baseline))
    return ScanResult(
        trace=tuple(zip(deltas, np.array(_PREFERENCES, dtype=object)[code].tolist())),
        baseline=baseline,
        first_flip=deltas[flips[0]] if flips.size else None,
        value_a=tuple(va.tolist()),
        value_b=tuple(vb.tolist()),
    )
