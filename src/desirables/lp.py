"""Small dense linear-programming kernel: two-phase simplex, Dantzig pricing.

A problem has one form: ``maximize objective @ x`` subject to
``constraints @ x <= rhs`` and ``x >= 0``, for an m x n matrix ``constraints``
and a right-hand side of either sign.  A ">=" row is stated negated, an "="
row as two rows, and a free variable as the difference of two columns::

    # maximize t s.t. 2 w1 - w2 >= t, w1 + w2 <= 1, w, t >= 0
    LpProblem(objective=[0, 0, 1], constraints=[[-2, 1, 1], [1, 1, 0]], rhs=[0, 1])

A problem shares each argument that is a read-only float64 array owning its
data and copies anything else read-only; shapes and finiteness are checked
either way.  An assessment set checks its margin-LP matrix once, as it builds
it, and each query's problem shares it and its last row, the objective, with
only the rhs checked (:func:`_with_rhs`); :func:`solve_relaxed`'s smaller
problem takes rows of a checked one, unchecked.

Every row has its own slack column.  A row with a negative rhs is negated, so
its slack becomes a surplus, and it starts on an artificial column; every
other row starts on its slack.  Phase 1 drives the artificials to zero and
out of the basis, and their columns are then deleted, so phase 2 prices every
column.  The entering column has the most negative reduced cost (Dantzig's
rule); after 50 consecutive degenerate pivots the lowest-index improving
column enters instead (Bland's rule) until a pivot makes progress, so the
simplex cannot cycle.  Ratio-test ties go to the smallest basis index.
Tableau row m is the phase's reduced-cost row, so a pivot is one rank-1
update of the whole matrix.  A phase builds it from its cost and the basic
rows whose cost is nonzero, so a cold phase 2 on the slack basis starts from
the cost alone.  One step makes these numpy calls: argmin of row m; a mask of
the entering column above _TOL and a masked divide, into reused buffers;
argmin of the ratios and of their reversed view, the last row at the least
ratio (-0.0 equals 0.0 there, as under ``np.equal``), and only when the two
rows differ the basis-index tie-break; a divide of the pivot row; one BLAS
product of the pivot column's view and the pivot row (a k = 1 matrix product,
the rank-1 update) into a reused work array, whose pivot row is then zeroed;
and one in-place subtraction.  An entry of a k = 1 product is one correctly
rounded product, with no sum, so only the sign of a zero may vary with the
BLAS build (OpenBLAS accumulates into +0.0).  No pivot decision reads it: each
is a comparison, and no divisor is zero.  ``x``, ``y`` and certificates are
read with ``+ 0.0``, which turns -0.0 into 0.0, so the pivots, ``x``, ``y``
and certificates are bit-identical across BLAS builds; ``value`` and the
checks below are BLAS dot products, whose last bits may vary with the build.

The row prices are the final reduced costs of a phase at each row's initial
basic column, less that column's cost, unflipped for negated rows (Chvátal
1983, *Linear Programming*).  A surplus column is its row's artificial column
negated, so in phase 2 every row's price is the reduced cost of its slack or
surplus column as it stands.  Optimal problems carry phase 2's prices as the
duals ``y``:

    y >= 0,  y @ constraints >= objective,  y @ rhs = value.

Infeasible problems carry phase 1's prices, negated, as a Farkas certificate
``y``: y <= 0, y @ constraints <= 0 and y @ rhs > 0, so that every x >= 0
with constraints @ x <= rhs would give 0 >= y @ constraints @ x >= y @ rhs > 0.
Both are checked before they are returned, as ``x`` is, against one
tolerance ``_CHECK_TOL = 1e-7``: ``x`` row by row, the duals scaled by
max(1, |objective|_inf) * (1 + |value|), the certificate by
:func:`check_infeasibility_certificate`.  A vector that fails its check is
returned as ``None``; the status and ``x`` are unchanged.  An optimal
solution also carries its final ``basis``, the basic columns of [A | I].

:func:`solve_relaxed` solves an optimally solved problem again with only the
rows a mask ``keep`` selects, from that solve's final tableau, with each
dropped row relaxed in place (:meth:`_Tableau.relaxed`): the tableau keeps its
cold shape, and phase 2 continues in the same :func:`_simplex_min`.  ``y`` is
read at the kept rows' slack columns and the basis is renumbered into the
smaller problem's [A | I], in the same order; ``x``, ``y`` and the basis get
the reads and checks of a cold solve, against the smaller problem.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from ._record import Record
from .errors import DimensionError, NumericalInstability

__all__ = [
    "LpProblem",
    "LpStatus",
    "LpSolution",
    "solve",
    "solve_relaxed",
    "check_infeasibility_certificate",
    "format_problem",
]

_MAX_DIM = 256  # of variables and of rows
_TOL = 1e-9
_PIVOT_MIN = 1e-12
_MAX_ITER = 100_000
_STALL = 50  # consecutive degenerate pivots before Bland's rule takes over
_CHECK_TOL = 1e-7  # absolute tolerance of the checks on x, y and certificates


def _frozen(values) -> np.ndarray:
    """``values`` as a read-only float64 array: shared if it is one that owns its data, else copied."""
    float64 = type(values) is np.ndarray and values.dtype == np.float64
    if float64 and values.flags.owndata and not values.flags.writeable:
        return values
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


class LpProblem(Record, eq=False):
    """maximize objective @ x s.t. constraints @ x <= rhs, x >= 0, for an m x n ``constraints``.

    A read-only float64 array that owns its data is stored as given, shared
    with the caller; any other input (a writeable array, a view, another dtype,
    a list) is stored as a read-only float copy.  Shapes and finiteness are
    checked either way.
    """

    objective: np.ndarray
    constraints: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        objective = _frozen(self.objective)
        if objective.ndim != 1 or objective.size == 0 or not np.isfinite(objective).all():
            raise ValueError("objective must be a nonempty finite vector")
        A = _frozen(self.constraints)
        _with_rhs(objective, A.reshape(0, objective.size) if A.size == 0 else A, self.rhs, self)
        _check_finite(A)


def _with_rhs(objective, A, rhs, p=None) -> LpProblem:
    """``p`` (new if None) of ``objective`` and ``A``, which the caller checked, and ``rhs``, checked here."""
    rhs = _frozen(rhs)
    m, n = rhs.size, objective.size
    if n > _MAX_DIM:
        raise DimensionError(f"{n} variables exceeds the kernel limit of {_MAX_DIM}")
    if m > _MAX_DIM:
        raise DimensionError(f"{m} constraints exceeds the kernel limit of {_MAX_DIM}")
    if A.shape != (m, n) or rhs.shape != (m,):
        raise DimensionError(
            f"constraint matrix of shape {A.shape} and rhs of shape {rhs.shape} "
            f"do not fit {m} rows over {n} variables"
        )
    _check_finite(rhs)
    return _shared(objective, A, rhs, p)


def _shared(objective, A, rhs, p=None) -> LpProblem:
    """``p`` (a new LpProblem if None) holding the three read-only arrays as given, unchecked."""
    p = object.__new__(LpProblem) if p is None else p
    for name, a in zip(LpProblem._fields, (objective, A, rhs)):
        object.__setattr__(p, name, a)
    return p


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("constraint coefficients must be finite")


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LpSolution(Record, eq=False):
    """A solve's outcome.

    ``basis`` is set for OPTIMAL: the final basic columns of [A | I]
    (column j < n is x_j, column n + k is row k's slack), one per row of the
    final tableau, so that x is the basic solution of those columns.
    """

    status: LpStatus
    x: np.ndarray | None = None
    value: float | None = None
    certificate: np.ndarray | None = None
    y: np.ndarray | None = None
    basis: np.ndarray | None = None

    _tableau = None  # not a field: an OPTIMAL solve's final tableau, which solve_relaxed continues


def format_problem(p: LpProblem) -> str:
    """Plain-text dump for bug reports: the objective, then one "<=" row per line."""
    lines = ["maximize  " + "  ".join(f"{c:+g}" for c in p.objective) + "  over x >= 0"]
    for k, (row, b) in enumerate(zip(p.constraints, p.rhs)):
        lines.append(f"row {k}:  " + "  ".join(f"{a:+g}" for a in row) + f"  <=  {b:g}")
    return "\n".join(lines)


class _Tableau:
    """Dense simplex tableau of ``problem``: T, with the reduced-cost row last, and one basic column per row.

    :func:`_cold_start` builds the tableau a solve starts from, and
    :meth:`relaxed` a warm one, of the cold one's shape, from an optimal
    tableau: ``columns`` lists its problem's columns of [A | I], in order,
    and ``live`` masks its rows that hold no dropped row's slack; the others
    are zero.  Both are None on a cold tableau.
    """

    def __init__(self, problem: LpProblem, T: np.ndarray, basis: np.ndarray, columns=None, live=None):
        self.problem, self.T, self.basis, self.columns, self.live = problem, T, basis, columns, live
        self.work = np.empty_like(T)  # _pivot's rank-1 product

    def relaxed(self, p: LpProblem, keep: np.ndarray) -> _Tableau:
        """A phase-2 tableau of ``p``, this problem with only the rows ``keep`` (a mask), at a feasible basis.

        Dropping row k relaxes it: a relaxation variable r_k >= 0 in
        A_k x + s_k - r_k = b_k frees s_k - r_k, so the row binds nothing.
        The column of r_k is the slack column as it stands, negated (the slack
        is stored as tau_k e_k already, so no tau enters), and making r_k basic
        in a row is the same basis change as pivoting s_k in there.  A free
        variable basic in a row only sets that row, so the row is zeroed and
        no longer live (a zero row passes no ratio test and no pivot changes
        it), which leaves the tableau of ``p`` in its live rows and its other
        columns.  A nonbasic slack is pivoted in first, at the row the ratio
        test picks for r_k or, when nothing bounds r_k, for s_k; either keeps
        the basis feasible.
        """
        T, basis, n = self.T.copy(), self.basis.copy(), p.objective.size
        columns = np.arange(T.shape[1] - 1) if self.columns is None else self.columns
        slack = columns[n:]
        live = np.ones(basis.size, dtype=bool) if self.live is None else self.live.copy()
        tab = _Tableau(p, T, basis, np.concatenate((columns[:n], slack[keep])), live)
        dropped, order = slack[~keep].tolist(), basis.tolist()
        free = [order.index(col) for col in dropped if col in order]  # rows on a dropped slack
        T[free], live[free] = 0.0, False
        rhs = T[:-1, -1]  # a view: pivots update it
        for col in [col for col in dropped if col not in order]:
            column = T[:-1, col]  # zero in the rows that are not live: a free basic variable never leaves
            for entering in (-column, column):  # r_k's column, else s_k's
                bounded = entering > _TOL
                if bounded.any():
                    break
            else:
                raise NumericalInstability("a relaxed row's slack has no pivot", p)
            ratio = np.full(live.size, np.inf)
            np.divide(rhs, entering, out=ratio, where=bounded)
            row = int(ratio.argmin())
            _pivot(tab, row, col)
            T[row], live[row] = 0.0, False
        return tab


def _pivot(tab: _Tableau, row: int, col: int) -> None:
    """Make ``col`` basic in ``row``: one rank-1 update of every row, row m included.

    T loses the k = 1 BLAS product of the pivot column and the divided pivot
    row, zeroed in the pivot row: its nonzeros are the same bits under every
    BLAS build, a zero's sign is not, and an overflow raises under _guarded.
    """
    T = tab.T
    piv = T[row, col]
    if abs(piv) < _PIVOT_MIN:
        raise NumericalInstability(
            f"pivot magnitude {abs(piv):.3e} below {_PIVOT_MIN}", tab.problem
        )
    pivot_row = T[row]
    pivot_row /= piv
    np.dot(T[:, col, None], pivot_row[None], out=tab.work)  # k = 1: each entry one rounded product
    tab.work[row] = 0.0  # the pivot row keeps its divided entries
    T -= tab.work
    tab.basis[row] = col


def _simplex_min(tab: _Tableau, cost: np.ndarray) -> str:
    """Minimize cost @ x_std over every column (Dantzig's rule; Bland's after _STALL degenerate pivots).

    Mutates tab and leaves the final reduced costs in row m; returns
    "optimal" or "unbounded".
    """
    T, m = tab.T, tab.basis.size
    # Reduced-cost row: cost minus the basis-weighted tableau rows, summed row by
    # row (no BLAS product), over the basic rows with a nonzero cost.  A zero-cost
    # row would add signed zeros, which no read value shows: prices are read at
    # columns of cost +0.0 or 1.0, and pricing only compares.
    T[m, :-1], T[m, -1] = cost, 0.0
    basic_cost = cost[tab.basis]
    rows = basic_cost.nonzero()[0]
    if rows.size:
        T[m] -= (basic_cost[rows, None] * T[rows]).sum(axis=0)
    reduced, rhs = T[m, :-1], T[:m, -1]  # views: every pivot updates them
    ratio, candidate = np.empty(m), np.empty(m, dtype=bool)
    backward = ratio[::-1]  # its argmin is the last row at the least ratio
    degenerate = 0  # consecutive pivots on a row with rhs 0
    for _ in range(_MAX_ITER):
        entering = int(reduced.argmin())  # Dantzig: most negative reduced cost
        if not reduced[entering] < -_TOL:
            return "optimal"
        if degenerate >= _STALL:  # Bland: lowest index, until a pivot makes progress
            entering = int((reduced < -_TOL).argmax())
        if not m:  # no row bounds the entering column
            return "unbounded"
        # Min-ratio test over the entries above _TOL (finite: an overflow raises).
        col = T[:m, entering]
        ratio.fill(np.inf)
        np.divide(rhs, col, out=ratio, where=np.greater(col, _TOL, out=candidate))
        row = int(ratio.argmin())
        least = ratio[row]
        if least == np.inf:
            return "unbounded"
        if backward.argmin() != m - 1 - row:  # a tie (0.0 == -0.0): smallest basis index
            np.equal(ratio, least, out=candidate)
            row = int(np.where(candidate, tab.basis, T.shape[1]).argmin())
        degenerate = degenerate + 1 if rhs[row] == 0.0 else 0
        _pivot(tab, row, entering)
    raise NumericalInstability("iteration cap exceeded", tab.problem)


def solve(p: LpProblem) -> LpSolution:
    """Solve the LP; returns Optimal(x, value, y, basis), Infeasible(certificate), or Unbounded.

    Tableau arithmetic that overflows or turns invalid (inf - inf, 0 * inf)
    raises NumericalInstability instead of solving on inf or NaN.
    """
    return _guarded(p, _solve, p)


def solve_relaxed(base: LpSolution, keep) -> LpSolution:
    """Solve the problem that ``base``, an OPTIMAL solution, solved with only the rows the mask ``keep`` left.

    Dropping rows only enlarges the feasible set, so phase 2 continues from
    base's final tableau, each dropped row relaxed in place (see the module).
    """
    tab = base._tableau
    if tab is None:
        raise ValueError(f"only an OPTIMAL solution can be relaxed, not {base.status}")
    q, keep = tab.problem, np.asarray(keep, dtype=bool)
    if keep.shape != q.rhs.shape:
        raise ValueError(f"keep of shape {keep.shape} does not mask the {q.rhs.size} rows")
    p = _kept_rows(q, keep)
    return _guarded(p, lambda: _phase2(tab.relaxed(p, keep)))


def _kept_rows(q: LpProblem, keep: np.ndarray) -> LpProblem:
    """``q`` with only the rows ``keep``, unchecked: they are rows of q, which were checked."""
    A, rhs = q.constraints[keep], q.rhs[keep]
    A.flags.writeable = rhs.flags.writeable = False
    return _shared(q.objective, A, rhs)


def _guarded(p: LpProblem, run, *args) -> LpSolution:
    """run(*args) with float errors raised, each turned into NumericalInstability on p."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return run(*args)
    except FloatingPointError as exc:
        raise NumericalInstability(f"tableau arithmetic failed: {exc}", p) from None


def _cold_start(p: LpProblem) -> tuple[_Tableau, np.ndarray, np.ndarray]:
    """The tableau of the rows tau_k (A_k x + s_k) = tau_k b_k at its starting basis; tau and that basis.

    tau_k is -1 where b_k < 0, else 1.  Columns: the n structural variables,
    one slack (+1) or surplus (-1) per row in row order, then one artificial
    per negated row in row order (deleted after phase 1).
    """
    m, n = p.constraints.shape
    flip = p.rhs < 0
    art_rows = flip.nonzero()[0]
    tau = np.where(flip, -1.0, 1.0)
    T = np.zeros((m + 1, n + m + art_rows.size + 1))  # row m is set by each phase
    T[:m, :n], T[:m, -1] = p.constraints, p.rhs  # times tau: only flipped rows, as x * 1.0 is x
    # Each row's starting basic column: its slack, or on a negated row its artificial.
    identity_col = n + np.arange(m)
    width = T.shape[1]
    T.reshape(-1)[n : n + m * (width + 1) : width + 1] = tau  # T[k, n + k] = tau_k
    if art_rows.size:
        T[art_rows, :n] *= -1.0
        T[art_rows, -1] *= -1.0
        identity_col[art_rows] = n + m + np.arange(art_rows.size)
        T[art_rows, identity_col[art_rows]] = 1.0
    return _Tableau(p, T, identity_col.copy()), tau, identity_col


def _solve(p: LpProblem) -> LpSolution:
    tab, tau, identity_col = _cold_start(p)
    kept = sum(p.constraints.shape)  # structural, slack and surplus columns; artificials follow
    if tab.T.shape[1] - 1 > kept:
        cost = np.zeros(tab.T.shape[1] - 1)
        cost[kept:] = 1.0
        if _simplex_min(tab, cost) != "optimal":  # phase 1 is bounded below by 0
            raise NumericalInstability("phase 1 unbounded", p)
        if -tab.T[-1, -1] > _TOL:  # phase 1's optimum (row m's rhs, negated) stays above 0
            y = -(tau * (tab.T[-1, :-1] - cost)[identity_col]) + 0.0  # + 0.0 as for x
            y.flags.writeable = False
            y = y if check_infeasibility_certificate(p, y) else None
            return LpSolution(LpStatus.INFEASIBLE, certificate=y)
        _drive_out_artificials(tab, kept)
    return _phase2(tab)


def _phase2(tab: _Tableau) -> LpSolution:
    """Phase 2 from tab's feasible basis; then x, value, y and the basis of tab.problem, checked."""
    p, T = tab.problem, tab.T
    m, n = p.constraints.shape
    cost = np.zeros(T.shape[1] - 1)
    cost[:n] = -p.objective
    if _simplex_min(tab, cost) == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED)

    x_std = np.zeros(T.shape[1] - 1)
    x_std[tab.basis] = T[:-1, -1]
    x = x_std[:n] + 0.0  # + 0.0: a basic level of -0.0 reads as 0.0
    _recheck(p, x)
    value = float(np.dot(p.objective, x))
    if tab.columns is None:
        y, basis = T[-1, n : n + m], tab.basis.copy()
    else:  # p's columns of [A | I] are tab.columns, in order: the live rows' basis is renumbered
        y, basis = T[-1, tab.columns[n:]], np.searchsorted(tab.columns, tab.basis[tab.live])
    y = y + 0.0  # phase 2's prices at the slack and surplus columns; + 0.0 as for x
    x.flags.writeable = y.flags.writeable = basis.flags.writeable = False
    tol = _CHECK_TOL * max(1.0, float(np.abs(p.objective).max())) * (1.0 + abs(value))
    if not (_dual_feasible(p, y, p.objective, tol) and abs(float(y @ p.rhs) - value) <= tol):
        y = None
    sol = LpSolution(LpStatus.OPTIMAL, x=x, value=value, y=y, basis=basis)
    object.__setattr__(sol, "_tableau", tab)
    return sol


def _drive_out_artificials(tab: _Tableau, kept: int) -> None:
    """Pivot basic artificials (at level 0) out of the basis, then delete the artificial columns.

    ``kept`` counts the structural, slack and surplus columns.  B^-1 [A | ±I]
    has full row rank (a slack or surplus per row), so an artificial's row has
    a nonzero entry among them; when rounding has left none above _TOL, raise.
    """
    T = tab.T
    for i in np.flatnonzero(tab.basis >= kept):
        eligible = np.abs(T[i, :kept]) > _TOL
        col = int(eligible.argmax())
        if not eligible[col]:
            raise NumericalInstability("a basic artificial has no column to leave on", tab.problem)
        _pivot(tab, int(i), col)
    tab.T = np.delete(T, np.s_[kept:-1], axis=1)
    tab.work = np.empty_like(tab.T)


def _recheck(p: LpProblem, x: np.ndarray) -> None:
    """Raise on the first row (in row order), then variable, that ``x`` violates."""
    lhs, tol = p.constraints @ x, _CHECK_TOL
    ok = lhs <= p.rhs + tol  # False on NaN
    if np.count_nonzero(ok) < ok.size:
        k = int(ok.argmin())
        raise NumericalInstability(f"solution violates <= row by {lhs[k] - p.rhs[k]:.3e}", p)
    negative = x < -tol
    if np.count_nonzero(negative):
        raise NumericalInstability(
            f"solution violates nonnegativity: {x[negative.argmax()]:.3e}", p
        )


def _dual_feasible(p: LpProblem, y: np.ndarray, c, tol: float) -> bool:
    """y >= 0 and y @ constraints >= c, each within tol (a NaN fails)."""
    if np.count_nonzero(y >= -tol) < y.size:
        return False
    reduced = y @ p.constraints - c
    return np.count_nonzero(reduced >= -tol) == reduced.size


def check_infeasibility_certificate(p: LpProblem, y: np.ndarray) -> bool:
    """Verify a Farkas certificate: -y is dual feasible for a zero objective, and y @ rhs > tol."""
    y, tol = np.asarray(y, dtype=float), _CHECK_TOL
    return y.shape == p.rhs.shape and _dual_feasible(p, -y, 0.0, tol) and float(y @ p.rhs) > tol
