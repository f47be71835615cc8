"""Small dense linear-programming kernel: two-phase simplex with Bland's rule.

Problems are stated as ``maximize objective @ x`` subject to rows
``coeffs @ x (<=|>=|=) rhs`` and per-variable lower bounds of 0 or -inf
(free variables are split internally).  Pivoting is deterministic (Bland's
anti-cycling rule, ties broken by smallest basis index), so identical inputs
produce bit-identical solutions.  Each step (entering column, ratio test,
rank-1 pivot update) is a numpy array operation that makes the same choices
and the same floating-point operations as a scalar loop over the tableau, so
outputs are bit-identical to the scalar Bland loop; summations keep their
row order for the same reason.

Infeasible problems carry a Farkas certificate ``y`` over the original
constraint rows with the convention

    y[k] <= 0 for "<=" rows, y[k] >= 0 for ">=" rows, free for "=" rows,
    sum_k y[k] * coeffs_k <= 0 on bounded variables (= 0 on free ones),
    sum_k y[k] * rhs_k > 0,

which makes the row combination contradict feasibility directly; see
:func:`check_infeasibility_certificate`.  Optimal problems carry the dual
values ``y`` over the original rows, read from the phase-2 reduced costs:

    y[k] >= 0 for "<=" rows, y[k] <= 0 for ">=" rows, free for "=" rows,
    sum_k y[k] * coeffs_k >= objective on bounded variables (= on free ones),
    sum_k y[k] * rhs_k = value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionError, NumericalInstability

__all__ = [
    "Constraint",
    "LpProblem",
    "LpStatus",
    "LpSolution",
    "solve",
    "check_infeasibility_certificate",
    "format_problem",
]

_MAX_VARS = 64
_MAX_ROWS = 256
_TOL = 1e-9
_PIVOT_MIN = 1e-12
_MAX_ITER = 100_000

LE, GE, EQ = "<=", ">=", "="


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[float, ...]
    rel: str
    rhs: float

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "rhs", float(self.rhs))
        if self.rel not in (LE, GE, EQ):
            raise ValueError(f"relation must be one of <=, >=, =, got {self.rel!r}")
        if not all(math.isfinite(c) for c in coeffs) or not math.isfinite(self.rhs):
            raise ValueError("constraint coefficients must be finite")


@dataclass(frozen=True)
class LpProblem:
    """maximize objective @ x subject to constraints and lower bounds (0 or -inf)."""

    objective: tuple[float, ...]
    constraints: tuple[Constraint, ...]
    lower_bounds: tuple[float, ...] | None = None

    def __post_init__(self):
        objective = tuple(float(c) for c in self.objective)
        constraints = tuple(self.constraints)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "constraints", constraints)
        n = len(objective)
        if n == 0 or not all(math.isfinite(c) for c in objective):
            raise ValueError("objective must be a nonempty finite vector")
        lb = self.lower_bounds
        lb = tuple(0.0 for _ in objective) if lb is None else tuple(float(b) for b in lb)
        object.__setattr__(self, "lower_bounds", lb)
        if len(lb) != n or any(b != 0.0 and b != -math.inf for b in lb):
            raise ValueError("lower bounds must be 0 or -inf, one per variable")
        if n > _MAX_VARS:
            raise DimensionError(f"{n} variables exceeds the kernel limit of {_MAX_VARS}")
        if len(constraints) > _MAX_ROWS:
            raise DimensionError(
                f"{len(constraints)} constraints exceeds the kernel limit of {_MAX_ROWS}"
            )
        for c in constraints:
            if len(c.coeffs) != n:
                raise DimensionError(
                    f"constraint row has {len(c.coeffs)} coefficients, expected {n}"
                )


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    x: np.ndarray | None = None
    value: float | None = None
    certificate: np.ndarray | None = None
    y: np.ndarray | None = None


def format_problem(p: LpProblem) -> str:
    """Plain-text tableau dump for bug reports."""
    lines = ["maximize  " + "  ".join(f"{c:+g}" for c in p.objective)]
    for k, c in enumerate(p.constraints):
        row = "  ".join(f"{a:+g}" for a in c.coeffs)
        lines.append(f"row {k}:  {row}  {c.rel}  {c.rhs:g}")
    bounds = "  ".join("free" if b == -math.inf else "0" for b in p.lower_bounds)
    lines.append("lower bounds:  " + bounds)
    return "\n".join(lines)


class _Tableau:
    """Dense simplex tableau over the standardized system D x = b, x >= 0, b >= 0."""

    def __init__(self, p: LpProblem):
        self.problem = p
        n = len(p.objective)
        m = len(p.constraints)

        # Structural columns: variable var[k] times sign[k]; free variables
        # contribute a (+1, -1) pair.
        pairs: list[tuple[int, float]] = []
        for j, lb in enumerate(p.lower_bounds):
            pairs += [(j, 1.0)] if lb == 0.0 else [(j, 1.0), (j, -1.0)]
        self.var = np.array([j for j, _ in pairs])
        self.sign = np.array([s for _, s in pairs])
        n_struct = len(pairs)

        A = np.array([c.coeffs for c in p.constraints]).reshape(m, n)
        rows = A[:, self.var] * self.sign
        rhs = np.array([c.rhs for c in p.constraints])
        flip = rhs < 0
        rows[flip], rhs[flip] = -rows[flip], -rhs[flip]
        self.tau = np.where(flip, -1.0, 1.0)
        swap = {LE: GE, GE: LE, EQ: EQ}
        rels = [swap[c.rel] if f else c.rel for c, f in zip(p.constraints, flip)]

        n_extra = sum(1 for r in rels if r in (LE, GE))
        n_art = sum(1 for r in rels if r in (GE, EQ))
        total = n_struct + n_extra + n_art
        T = np.zeros((m, total + 1))
        T[:, :n_struct] = rows
        T[:, -1] = rhs

        # Identity column per row: the slack for <=, the artificial otherwise.
        self.identity_col = np.full(m, -1, dtype=int)
        self.basis = np.full(m, -1, dtype=int)
        self.art_cols: list[int] = []
        extra = n_struct
        art = n_struct + n_extra
        for i, rel in enumerate(rels):
            if rel == LE:
                T[i, extra] = 1.0
                self.identity_col[i] = extra
                self.basis[i] = extra
                extra += 1
            elif rel == GE:
                T[i, extra] = -1.0
                extra += 1
                T[i, art] = 1.0
                self.identity_col[i] = art
                self.basis[i] = art
                self.art_cols.append(art)
                art += 1
            else:
                T[i, art] = 1.0
                self.identity_col[i] = art
                self.basis[i] = art
                self.art_cols.append(art)
                art += 1

        self.T = T
        self.n_struct = n_struct
        self.row_alive = np.ones(m, dtype=bool)

    def _pivot(self, row: int, col: int) -> None:
        T = self.T
        piv = T[row, col]
        if abs(piv) < _PIVOT_MIN:
            raise NumericalInstability(
                f"pivot magnitude {abs(piv):.3e} below {_PIVOT_MIN}\n"
                + format_problem(self.problem)
            )
        T[row, :] /= piv
        # Rows with a zero (or -0.0) pivot-column entry are left untouched, as
        # x - 0*y would turn a stored -0.0 into +0.0.
        rows = np.flatnonzero(T[:, col])
        rows = rows[rows != row]
        T[rows] -= T[rows, col][:, None] * T[row]
        self.basis[row] = col


def _simplex_min(tab: _Tableau, cost: np.ndarray, allowed: np.ndarray):
    """Minimize cost @ x_std over the tableau (Bland's rule); mutates tab.

    Returns the status and the final reduced-cost row.
    """
    T = tab.T
    ncols = T.shape[1] - 1
    # Reduced-cost row: cost minus the basis-weighted tableau rows.
    obj = np.zeros(T.shape[1])
    obj[:ncols] = cost
    for i in np.nonzero(tab.row_alive)[0]:
        cb = cost[tab.basis[i]]
        if cb != 0.0:
            obj -= cb * T[i, :]
    for _ in range(_MAX_ITER):
        improving = allowed & (obj[:ncols] < -_TOL)
        entering = int(np.argmax(improving))
        if not improving[entering]:
            return "optimal", obj
        # Min-ratio test; ties at the minimum ratio go to the smallest basis index.
        rows = np.flatnonzero(tab.row_alive & (T[:, entering] > _TOL))
        if rows.size == 0:
            return "unbounded", obj
        ratio = T[rows, -1] / T[rows, entering]
        tied = rows[ratio == ratio.min()]
        row = int(tied[np.argmin(tab.basis[tied])])
        tab._pivot(row, entering)
        # Re-reduce the cost row against the new basic row.
        coef = obj[entering]
        if coef != 0.0:
            obj -= coef * T[row, :]
    raise NumericalInstability("iteration cap exceeded\n" + format_problem(tab.problem))


def solve(p: LpProblem) -> LpSolution:
    """Solve the LP; returns Optimal(x, value, y), Infeasible(certificate), or Unbounded."""
    tab = _Tableau(p)
    T = tab.T
    total = T.shape[1] - 1
    art = np.zeros(total, dtype=bool)
    art[tab.art_cols] = True

    if tab.art_cols:
        cost1 = np.zeros(total)
        cost1[tab.art_cols] = 1.0
        status, _ = _simplex_min(tab, cost1, allowed=np.ones(total, dtype=bool))
        if status != "optimal":  # phase 1 is bounded below by 0
            raise NumericalInstability("phase 1 unbounded\n" + format_problem(p))
        value1 = float(
            sum(T[i, -1] for i in np.nonzero(tab.row_alive)[0] if art[tab.basis[i]])
        )
        if value1 > _TOL:
            return LpSolution(LpStatus.INFEASIBLE, certificate=_certificate(tab, art))
        _drive_out_artificials(tab, art)

    cost2 = np.zeros(total)
    cost2[: tab.n_struct] = -np.array(p.objective)[tab.var] * tab.sign
    status, reduced = _simplex_min(tab, cost2, allowed=~art)
    if status == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED)

    x_std = np.zeros(total)
    x_std[tab.basis[tab.row_alive]] = T[tab.row_alive, -1]
    # add.at sums unbuffered in column order: 0.0 + x_plus (+ -x_minus), as a loop would.
    x = np.zeros(len(p.objective))
    np.add.at(x, tab.var, tab.sign * x_std[: tab.n_struct])
    _recheck(p, x)
    value = float(np.dot(p.objective, x))
    # Duals: reduced costs at the identity columns, unflipped by tau.  A dropped
    # redundant row leaves its basic artificial a zero column, hence a zero dual.
    y = tab.tau * reduced[tab.identity_col]
    x.flags.writeable = y.flags.writeable = False
    return LpSolution(LpStatus.OPTIMAL, x=x, value=value, y=y)


def _drive_out_artificials(tab: _Tableau, art: np.ndarray) -> None:
    """Pivot basic artificials (at level 0) out of the basis; drop redundant rows."""
    T = tab.T
    for i in np.nonzero(tab.row_alive)[0]:
        if not art[tab.basis[i]]:
            continue
        eligible = ~art & (np.abs(T[i, :-1]) > _TOL)
        pivot_col = int(np.argmax(eligible))
        if eligible[pivot_col]:
            tab._pivot(int(i), pivot_col)
        else:
            tab.row_alive[i] = False
            T[i, :] = 0.0


def _certificate(tab: _Tableau, art: np.ndarray) -> np.ndarray:
    """Farkas certificate over the original rows, from the phase-1 dual values."""
    T = tab.T
    m = len(tab.problem.constraints)
    y_std = np.zeros(m)
    basic_art_rows = [i for i in np.nonzero(tab.row_alive)[0] if art[tab.basis[i]]]
    for i in range(m):
        col = tab.identity_col[i]
        y_std[i] = sum(T[r, col] for r in basic_art_rows)
    y = tab.tau * y_std
    y.flags.writeable = False
    return y


def _recheck(p: LpProblem, x: np.ndarray, tol: float = 1e-7) -> None:
    for c in p.constraints:
        lhs = float(np.dot(c.coeffs, x))
        ok = (
            lhs <= c.rhs + tol
            if c.rel == LE
            else lhs >= c.rhs - tol
            if c.rel == GE
            else abs(lhs - c.rhs) <= tol
        )
        if not ok:
            raise NumericalInstability(
                f"solution violates {c.rel} row by {abs(lhs - c.rhs):.3e}\n"
                + format_problem(p)
            )
    for xj, lb in zip(x, p.lower_bounds):
        if lb == 0.0 and xj < -tol:
            raise NumericalInstability(
                f"solution violates nonnegativity: {xj:.3e}\n" + format_problem(p)
            )


def check_infeasibility_certificate(p: LpProblem, y: np.ndarray, tol: float = 1e-7) -> bool:
    """Verify a Farkas certificate against the documented sign convention."""
    y = np.asarray(y, dtype=float)
    if y.shape != (len(p.constraints),):
        return False
    for yk, c in zip(y, p.constraints):
        if c.rel == LE and yk > tol:
            return False
        if c.rel == GE and yk < -tol:
            return False
    combo = np.zeros(len(p.objective))
    for yk, c in zip(y, p.constraints):
        combo += yk * np.asarray(c.coeffs)
    for gj, lb in zip(combo, p.lower_bounds):
        if lb == 0.0 and gj > tol:
            return False
        if lb == -math.inf and abs(gj) > tol:
            return False
    rhs_combo = float(sum(yk * c.rhs for yk, c in zip(y, p.constraints)))
    return rhs_combo > tol
