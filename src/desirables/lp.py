"""Small dense linear-programming kernel: two-phase simplex, Dantzig pricing.

A problem is arrays: ``maximize objective @ x`` subject to
``constraints[k] @ x (relations[k]) rhs[k]`` for each row k of the m x n
matrix ``constraints``, with per-variable lower bounds of 0 or -inf (free
variables are split internally)::

    LpProblem(objective=[0, 0, 1], constraints=[[2, -1, -1], [1, 1, 0]],
              relations=(">=", "="), rhs=[0, 1], lower_bounds=[0, 0, -inf])

The entering column has the most negative reduced cost (Dantzig's rule);
after 50 consecutive degenerate pivots the lowest-index improving column
enters instead (Bland's rule) until a pivot makes progress, so the simplex
cannot cycle.  Ratio-test ties go to the smallest basis index.  ">=" rows with
a zero right-hand side are negated into "<=" rows and start on a slack, not
an artificial.  Tableau row m is the phase's reduced-cost row, so a pivot is
one rank-1 update of the whole matrix, with no signed-zero guard.  Every step
is a fixed sequence of elementwise numpy operations, with no BLAS product, so
identical inputs produce bit-identical solutions.

Both evidence vectors come from one rule: the row prices are the final
reduced costs of their phase at each row's initial identity column (its slack
or artificial), less that column's cost, unflipped for negated rows.
Optimal problems carry the phase-2 prices as the duals ``y``:

    y[k] >= 0 for "<=" rows, y[k] <= 0 for ">=" rows, free for "=" rows,
    y @ constraints >= objective on bounded variables (= on free ones),
    y @ rhs = value.

Infeasible problems carry the negated phase-1 prices as a Farkas certificate
``y``: -y satisfies the first two lines for a zero objective and y @ rhs > 0,
which contradicts feasibility directly.  Both are checked before they are
returned, as ``x`` is, against one tolerance ``_CHECK_TOL = 1e-7``: ``x``
row by row, the duals scaled by max(1, |objective|_inf) * (1 + |value|), the
certificate by :func:`check_infeasibility_certificate`.  A vector that fails
its check is returned as ``None``; the status and ``x`` are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionError, NumericalInstability

__all__ = [
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
_STALL = 50  # consecutive degenerate pivots before Bland's rule takes over
_CHECK_TOL = 1e-7  # absolute tolerance of the checks on x, y and certificates

LE, GE, EQ = "<=", ">=", "="


def _frozen(values) -> np.ndarray:
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class LpProblem:
    """maximize objective @ x s.t. constraints @ x (relations) rhs, x >= lower_bounds.

    ``constraints`` is the m x n coefficient matrix, ``relations`` one of
    "<=", ">=", "=" per row, and ``lower_bounds`` 0 or -inf per variable (all
    0 when omitted).  Arrays are stored as read-only float copies.
    """

    objective: np.ndarray
    constraints: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray
    lower_bounds: np.ndarray | None = None

    def __post_init__(self):
        objective = _frozen(self.objective)
        n = objective.size
        if objective.ndim != 1 or n == 0 or not np.isfinite(objective).all():
            raise ValueError("objective must be a nonempty finite vector")
        lb = _frozen(np.zeros(n) if self.lower_bounds is None else self.lower_bounds)
        if lb.shape != (n,) or not ((lb == 0.0) | (lb == -math.inf)).all():
            raise ValueError("lower bounds must be 0 or -inf, one per variable")
        relations = tuple(self.relations)
        m = len(relations)
        if n > _MAX_VARS:
            raise DimensionError(f"{n} variables exceeds the kernel limit of {_MAX_VARS}")
        if m > _MAX_ROWS:
            raise DimensionError(f"{m} constraints exceeds the kernel limit of {_MAX_ROWS}")
        unknown = set(relations) - {LE, GE, EQ}
        if unknown:
            raise ValueError(f"relation must be one of <=, >=, =, got {unknown.pop()!r}")
        A, rhs = _frozen(self.constraints), _frozen(self.rhs)
        if A.size == 0:
            A = A.reshape(0, n)
        if A.shape != (m, n) or rhs.shape != (m,):
            raise DimensionError(
                f"constraint matrix of shape {A.shape} and rhs of shape {rhs.shape} "
                f"do not fit {m} relations over {n} variables"
            )
        if not (np.isfinite(A).all() and np.isfinite(rhs).all()):
            raise ValueError("constraint coefficients must be finite")
        # Frozen: store the validated copies past __setattr__.
        self.__dict__.update(
            objective=objective, constraints=A, relations=relations, rhs=rhs, lower_bounds=lb
        )


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True, eq=False)
class LpSolution:
    status: LpStatus
    x: np.ndarray | None = None
    value: float | None = None
    certificate: np.ndarray | None = None
    y: np.ndarray | None = None


def format_problem(p: LpProblem) -> str:
    """Plain-text tableau dump for bug reports."""
    lines = ["maximize  " + "  ".join(f"{c:+g}" for c in p.objective)]
    for k, (row, rel, b) in enumerate(zip(p.constraints, p.relations, p.rhs)):
        lines.append(f"row {k}:  " + "  ".join(f"{a:+g}" for a in row) + f"  {rel}  {b:g}")
    bounds = "  ".join("free" if b == -math.inf else "0" for b in p.lower_bounds)
    lines.append("lower bounds:  " + bounds)
    return "\n".join(lines)


class _Tableau:
    """Dense simplex tableau over D x = b, x >= 0, b >= 0, with the reduced-cost row last."""

    def __init__(self, p: LpProblem):
        self.problem = p
        m, n = p.constraints.shape

        # Structural columns: variable var[k] times sign[k]; free variables
        # contribute a (+1, -1) pair.
        free = p.lower_bounds == -math.inf
        self.var = np.repeat(np.arange(n), np.where(free, 2, 1))
        self.sign = np.where(np.diff(self.var, prepend=-1) == 0, -1.0, 1.0)
        n_struct = self.var.size

        rows = p.constraints[:, self.var] * self.sign
        rhs = p.rhs.copy()
        rel = np.array(p.relations, dtype=str)
        # Negate rows with a negative rhs, and ">=" rows with a zero rhs, which
        # then start on a slack instead of an artificial.
        flip = (rhs < 0) | ((rhs == 0) & (rel == GE))
        rows[flip], rhs[flip] = -rows[flip], -rhs[flip]
        self.tau = np.where(flip, -1.0, 1.0)
        le = np.where(flip, rel == GE, rel == LE)  # relation after the flip
        extra, art = rel != EQ, ~le  # rows with a slack/surplus, with an artificial

        n_extra, n_art = int(extra.sum()), int(art.sum())
        total = n_struct + n_extra + n_art
        T = np.zeros((m + 1, total + 1))  # row m is set by each phase
        D = T[:m]
        D[:, :n_struct] = rows
        D[:, -1] = rhs

        # Slack (+1) or surplus (-1) columns, then artificial columns, each in
        # row order.  Identity column per row: the slack for <=, the artificial
        # otherwise; it starts in the basis.
        extra_col = n_struct + np.cumsum(extra) - 1
        art_col = n_struct + n_extra + np.cumsum(art) - 1
        D[extra, extra_col[extra]] = np.where(le, 1.0, -1.0)[extra]
        D[art, art_col[art]] = 1.0
        self.identity_col = np.where(le, extra_col, art_col)
        self.basis = self.identity_col.copy()
        self.art = np.arange(total) >= n_struct + n_extra

        self.T = T
        self.n_struct = n_struct


def _pivot(tab: _Tableau, row: int, col: int) -> None:
    """Make ``col`` basic in ``row``: one rank-1 update of every row, row m included."""
    T = tab.T
    piv = T[row, col]
    if abs(piv) < _PIVOT_MIN:
        raise NumericalInstability(
            f"pivot magnitude {abs(piv):.3e} below {_PIVOT_MIN}", tab.problem
        )
    T[row] /= piv
    f = T[:, col].copy()
    f[row] = 0.0
    T -= f[:, None] * T[row]
    tab.basis[row] = col


def _simplex_min(tab: _Tableau, cost: np.ndarray, allowed: np.ndarray):
    """Minimize cost @ x_std (Dantzig's rule; Bland's after _STALL degenerate pivots).

    Mutates tab; returns "optimal" with the row prices -c_B B^-1 over the
    original rows (the duals of maximizing -cost @ x_std), or "unbounded".
    A row's identity column starts as e_k, so its final reduced cost is
    cost - (c_B B^-1)_k (Chvátal 1983, *Linear Programming*); tau unflips the row.
    """
    T, m = tab.T, tab.basis.size
    # Reduced-cost row: cost minus the basis-weighted tableau rows (summed row
    # by row, not by a BLAS product, so pivots do not depend on the BLAS build).
    T[m] = np.append(cost, 0.0) - (cost[tab.basis][:, None] * T[:m]).sum(axis=0)
    degenerate = 0  # consecutive pivots on a row with rhs 0
    for _ in range(_MAX_ITER):
        priced = np.where(allowed, T[m, :-1], np.inf)
        entering = int(np.argmin(priced))  # Dantzig: most negative reduced cost
        if not priced[entering] < -_TOL:
            return "optimal", tab.tau * (T[m, :-1] - cost)[tab.identity_col]
        if degenerate >= _STALL:  # Bland: lowest index, until a pivot makes progress
            entering = int(np.argmax(priced < -_TOL))
        # Min-ratio test; ties at the minimum ratio go to the smallest basis index.
        col = T[:m, entering]
        positive = col > _TOL
        if not positive.any():
            return "unbounded", None
        ratio = np.divide(T[:m, -1], col, out=np.full(m, np.inf), where=positive)
        row = int(np.argmin(np.where(ratio == ratio.min(), tab.basis, T.shape[1])))
        degenerate = degenerate + 1 if T[row, -1] == 0.0 else 0
        _pivot(tab, row, entering)
    raise NumericalInstability("iteration cap exceeded", tab.problem)


def solve(p: LpProblem) -> LpSolution:
    """Solve the LP; returns Optimal(x, value, y), Infeasible(certificate), or Unbounded."""
    tab = _Tableau(p)
    T = tab.T
    total = T.shape[1] - 1
    art = tab.art

    if art.any():
        status, prices = _simplex_min(tab, art.astype(float), np.ones(total, dtype=bool))
        if status != "optimal":  # phase 1 is bounded below by 0
            raise NumericalInstability("phase 1 unbounded", p)
        if -T[-1, -1] > _TOL:  # phase 1's optimum (row m's rhs, negated) stays above 0
            y = -prices  # Farkas: -y prices a zero objective
            y.flags.writeable = False
            y = y if check_infeasibility_certificate(p, y) else None
            return LpSolution(LpStatus.INFEASIBLE, certificate=y)
        _drive_out_artificials(tab, art)

    cost2 = np.zeros(total)
    cost2[: tab.n_struct] = -p.objective[tab.var] * tab.sign
    # y: the phase-2 row prices.  A dropped redundant row leaves its basic
    # artificial a zero column, hence a zero dual.
    status, y = _simplex_min(tab, cost2, allowed=~art)
    if status == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED)

    x_std = np.zeros(total)
    x_std[tab.basis] = T[:-1, -1]
    # add.at sums unbuffered in column order: 0.0 + x_plus (+ -x_minus), as a loop would.
    x = np.zeros(len(p.objective))
    np.add.at(x, tab.var, tab.sign * x_std[: tab.n_struct])
    _recheck(p, x)
    value = float(np.dot(p.objective, x))
    x.flags.writeable = y.flags.writeable = False
    tol = _CHECK_TOL * max(1.0, float(np.abs(p.objective).max())) * (1.0 + abs(value))
    if not (_dual_feasible(p, y, p.objective, tol) and abs(float(y @ p.rhs) - value) <= tol):
        y = None
    return LpSolution(LpStatus.OPTIMAL, x=x, value=value, y=y)


def _drive_out_artificials(tab: _Tableau, art: np.ndarray) -> None:
    """Pivot basic artificials (at level 0) out of the basis; drop redundant rows."""
    T = tab.T
    for i in np.flatnonzero(art[tab.basis]):
        eligible = ~art & (np.abs(T[i, :-1]) > _TOL)
        pivot_col = int(np.argmax(eligible))
        if eligible[pivot_col]:
            _pivot(tab, int(i), pivot_col)
        else:  # a zero row: no ratio test, pivot or basis read can pick it again
            T[i, :] = 0.0


def _recheck(p: LpProblem, x: np.ndarray) -> None:
    """Raise on the first row (in row order), then variable, that ``x`` violates."""
    lhs, rhs, tol = p.constraints @ x, p.rhs, _CHECK_TOL
    rel = np.array(p.relations, dtype=str)
    ok = np.where(
        rel == LE, lhs <= rhs + tol, np.where(rel == GE, lhs >= rhs - tol, np.abs(lhs - rhs) <= tol)
    )
    if not ok.all():
        k = int(np.argmin(ok))
        raise NumericalInstability(
            f"solution violates {rel[k]} row by {abs(lhs[k] - rhs[k]):.3e}", p
        )
    negative = (p.lower_bounds == 0.0) & (x < -tol)
    if negative.any():
        raise NumericalInstability(
            f"solution violates nonnegativity: {x[np.argmax(negative)]:.3e}", p
        )


def _dual_feasible(p: LpProblem, y: np.ndarray, c, tol: float) -> bool:
    """y >= 0 on "<=" rows, <= 0 on ">=" rows; y @ constraints >= c, with = c on free variables."""
    rel, free = np.array(p.relations, dtype=str), p.lower_bounds == -math.inf
    gap = y @ p.constraints - c
    signs = (y[rel == LE] >= -tol).all() and (y[rel == GE] <= tol).all()
    return bool(signs and (gap[~free] >= -tol).all() and (np.abs(gap[free]) <= tol).all())


def check_infeasibility_certificate(p: LpProblem, y: np.ndarray) -> bool:
    """Verify a Farkas certificate: -y is dual feasible for a zero objective, and y @ rhs > tol."""
    y, tol = np.asarray(y, dtype=float), _CHECK_TOL
    return y.shape == p.rhs.shape and _dual_feasible(p, -y, 0.0, tol) and float(y @ p.rhs) > tol
