"""Independent brute-force oracles for the LP-backed decision paths and the scan.

Apart from :func:`bland_solve` and the two unshifted LPs below, nothing here
touches the package's simplex kernel: feasibility is decided by exhaustive
lambda-grid search and by vertex enumeration of the Farkas dual polytope, and
tiny LPs are re-solved by enumerating candidate vertices.  :func:`scan_by_compare` is the reversal scan
as one scalar ``compare`` per shift, :func:`scan_grid_sums` the scan's
values as each shift's grid cells added column by column
(:func:`sum_columns`), :func:`schedule_value_by_payment` a schedule's value
as one ``effective_utility`` call per payment, and
:func:`transform_by_state` and :func:`u_convex_combine_by_state` are the
utility transform and u-convex combination as one scalar ``eval`` (and
``inverse``) per state.
:func:`inline_accept_check`, :func:`cut_problem_check` and
:func:`farkas_check` are the evidence checks coherence made on unchecked LP
duals and certificates before the kernel checked them itself; they build LP
problems but solve none.  :func:`bland_solve` is the kernel's solve path as
it was under Bland's entering rule, on the general form (it shares the
kernel's solution type and the general-form checks below), kept as the
reference that the current pricing rule is compared against.
:func:`unshifted_margin_lp` is the natural extension's margin LP as it was
posed before it was shifted to start feasible (a free margin, solved through
phase 1 by the kernel), and :func:`audit_by_dominates` the audit with F2
decided by one ``dominates`` call per pair and F3 by ``accept_decision``.
:func:`unshifted_fit_lp` is the representation-fitting LP as it was posed
before one weight was eliminated and its margin shifted (a free margin and
the equality sum w = 1, solved through phase 1 by the kernel), and
:func:`greedy_conflict` the conflict search that decides every trial subset
with it.  :func:`exact_basic_solution` solves a basis of a canonical problem
in rational arithmetic, and :func:`basis_gives_x` checks a solution's basis
with it; :func:`exact_duals` gives the same basis's row prices.

The kernel takes one form, ``<=`` rows over x >= 0.  :class:`GeneralLp` is
the general form the tests state their LPs in (``<=``, ``>=`` and ``=`` rows,
free variables), :func:`to_canonical` writes one in the kernel's form and maps
``x``, the duals and the certificate back, and :func:`solve_general` solves it
that way.  :func:`recheck`, :func:`dual_feasible` and
:func:`check_infeasibility_certificate` are the kernel's checks as they were
in the general form; :func:`bland_solve` solves the general form itself.
"""

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from desirables import (
    DesirablesError,
    DimensionError,
    Finding,
    DomainError,
    Gamble,
    ImageError,
    NumericalInstability,
    Preference,
    ScanResult,
    compare,
    effective_utility,
    schedule_value,
    shift_schedule,
    uses_states,
    Utility,
    accept_decision,
    check_partial_loss,
    dominates,
)
from desirables import lp
from desirables.gamble import _check_same_space

# Margin tolerance of the coherence LPs.
_TOL = 1e-9


def grid_witness(U, c, lo=0.0, hi=10.0, step=0.01, slack=None):
    """Exhaustive search of the lambda grid for U @ lam <= c + slack.

    Returns the first feasible grid point (scanning coordinates in increasing
    order) or None.  The default slack covers witnesses that sit between grid
    points: a true witness within step/2 of a grid point stays feasible after
    relaxing each row by step/2 * sum|U_row|.
    """
    U = np.asarray(U, float)
    c = np.asarray(c, float)
    m, n = U.shape
    if slack is None:
        slack = 0.5 * step * np.abs(U).sum(axis=1) + 1e-9
    target = c + slack
    axis = np.arange(lo, hi + step / 2, step)
    if n == 0:
        return np.zeros(0) if np.all(target >= 0) else None
    if n == 1:
        vals = np.outer(U[:, 0], axis)
        ok = np.all(vals <= target[:, None], axis=0)
        idx = np.argmax(ok)
        return np.array([axis[idx]]) if ok[idx] else None
    if n == 2:
        vals = (
            U[:, 0][:, None, None] * axis[None, :, None]
            + U[:, 1][:, None, None] * axis[None, None, :]
        )
        ok = np.all(vals <= target[:, None, None], axis=0)
        hits = np.argwhere(ok)
        if hits.size == 0:
            return None
        i, j = hits[0]
        return np.array([axis[i], axis[j]])
    if n == 3:
        pair = (
            U[:, 1][:, None, None] * axis[None, :, None]
            + U[:, 2][:, None, None] * axis[None, None, :]
        )
        for lam1 in axis:
            resid = target - lam1 * U[:, 0]
            ok = np.all(pair <= resid[:, None, None], axis=0)
            hits = np.argwhere(ok)
            if hits.size:
                i, j = hits[0]
                return np.array([lam1, axis[i], axis[j]])
        return None
    raise ValueError(f"grid search supports up to 3 generators, got {n}")


def farkas_verdict(U, c, tol=1e-7):
    """Exact feasibility decision for U @ lam <= c, lam >= 0, via the dual polytope.

    The system is infeasible iff min { c @ y : y >= 0, U.T @ y >= 0,
    sum y = 1 } is negative; the minimum sits at a vertex of that polytope,
    and every vertex solves sum y = 1 together with m-1 tight constraints.
    Returns (feasible, certificate_y): the certificate is the minimizing
    vertex when infeasible, else None.
    """
    U = np.asarray(U, float)
    c = np.asarray(c, float)
    m, n = U.shape
    rows = np.vstack([np.eye(m), U.T]) if n else np.eye(m)
    best_val, best_y = None, None
    for tight in itertools.combinations(range(rows.shape[0]), m - 1):
        system = np.vstack([np.ones((1, m)), rows[list(tight)]])
        rhs = np.zeros(m)
        rhs[0] = 1.0
        try:
            y = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            continue
        if y.min() < -tol or (n and (U.T @ y).min() < -tol):
            continue
        val = float(c @ y)
        if best_val is None or val < best_val:
            best_val, best_y = val, y
    if best_val is None:
        # The dual polytope is empty, so no certificate exists.
        return True, None
    if best_val < -tol:
        return False, best_y
    return True, None


def vertex_lp_optimum(objective, rows, lower_bounds, box=1e6, tol=1e-7):
    """Brute-force LP oracle: enumerate candidate vertices of the feasible set.

    ``rows`` are (coeffs, rel, rhs) triples; variables with lower bound 0 add
    x_j >= 0.  A large box |x_j| <= box is always added so unboundedness shows
    up as an optimum pinned to the artificial box.  Returns
    (status, x, value) with status in {"infeasible", "optimal", "unbounded"}.
    """
    objective = np.asarray(objective, float)
    n = objective.size
    ineq = []  # g @ x <= h
    eq = []  # g @ x == h
    for coeffs, rel, rhs in rows:
        g = np.asarray(coeffs, float)
        if rel == "<=":
            ineq.append((g, float(rhs)))
        elif rel == ">=":
            ineq.append((-g, -float(rhs)))
        else:
            eq.append((g, float(rhs)))
    for j, lb in enumerate(lower_bounds):
        if lb == 0.0:
            e = np.zeros(n)
            e[j] = -1.0
            ineq.append((e, 0.0))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        ineq.append((e.copy(), box))
        ineq.append((-e, box))

    all_rows = [(g, h, True) for g, h in eq] + [(g, h, False) for g, h in ineq]
    n_eq = len(eq)
    best_val, best_x = None, None
    feasible_any = False
    choose = max(0, n - n_eq)
    candidates = range(n_eq, len(all_rows))
    for extra in itertools.combinations(candidates, choose):
        idx = list(range(n_eq)) + list(extra)
        A = np.array([all_rows[i][0] for i in idx])
        b = np.array([all_rows[i][1] for i in idx])
        if A.shape[0] != n:
            continue
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        ok = all(
            abs(g @ x - h) <= tol if is_eq else g @ x <= h + tol
            for g, h, is_eq in all_rows
        )
        if not ok:
            continue
        feasible_any = True
        val = float(objective @ x)
        if best_val is None or val > best_val:
            best_val, best_x = val, x
    if not feasible_any:
        return "infeasible", None, None
    if np.any(np.abs(best_x) >= box - 1.0):
        return "unbounded", None, None
    return "optimal", best_x, best_val


def fit_feasible_w1(UA, UR, eps, step=1e-4, tol=1e-12):
    """Grid the 2-state simplex and return the w1 values compatible with the fit.

    Compatibility means every accepted column scores >= 0 and every rejected
    column scores <= -eps under w = (w1, 1 - w1).
    """
    w1 = np.arange(0.0, 1.0 + step / 2, step)
    W = np.vstack([w1, 1.0 - w1])
    ok = np.ones_like(w1, dtype=bool)
    for col in np.asarray(UA, float).T:
        ok &= (col @ W) >= -tol
    for col in np.asarray(UR, float).T:
        ok &= (col @ W) <= -eps + tol
    return w1[ok]


def unshifted_fit_lp(UA, UR, eps):
    """(feasible, margin) of the fit LP with a free margin and the row sum w = 1.

    Solves max t : UA_i . w - t >= 0, UR_j . w <= -eps, sum w = 1, w >= 0, t free,
    with the cap t <= 1 when UA has no column.  ``feasible`` is the fit
    verdict, t >= -_TOL; the margin is None when the LP is infeasible.
    """
    m, n, r = UA.shape[0], UA.shape[1], UR.shape[1]
    objective = np.append(np.zeros(m), 1.0)
    cap = [] if n else [objective]
    rows = np.vstack([
        np.column_stack([UA.T, np.full(n, -1.0)]),
        np.column_stack([UR.T, np.zeros(r)]),
        np.append(np.ones(m), 0.0),
        *cap,
    ])
    relations = (">=",) * n + ("<=",) * r + ("=",) + ("<=",) * len(cap)
    rhs = np.concatenate([np.zeros(n), np.full(r, -eps), [1.0] * (1 + len(cap))])
    bounds = np.append(np.zeros(m), -math.inf)
    sol = solve_general(GeneralLp(objective, rows, relations, rhs, bounds))
    if sol.status is lp.LpStatus.INFEASIBLE:
        return False, None
    assert sol.status is lp.LpStatus.OPTIMAL, sol.status
    return sol.value >= -_TOL, float(sol.value)


def greedy_conflict(a, strict_margin=1e-6):
    """Reference conflict search: greedy single-constraint deletion in input order.

    Every trial subset is decided on its own, by the verdict of
    :func:`unshifted_fit_lp` on its columns, with no evidence carried between
    trials.
    """
    UA, UR = a.transformed_generators(), a.transformed_rejected()
    labels = [("accepted", i) for i in range(UA.shape[1])]
    labels += [("rejected", j) for j in range(UR.shape[1])]

    def fits(active):
        acc = [i for kind, i in active if kind == "accepted"]
        rej = [j for kind, j in active if kind == "rejected"]
        return unshifted_fit_lp(UA[:, acc], UR[:, rej], strict_margin)[0]

    active = list(labels)
    for constraint in labels:
        trial = [c for c in active if c != constraint]
        if not fits(trial):
            active = trial
    return tuple(active)


def schedule_value_by_payment(u, d, sch, *, round_factors=False):
    """Reference ``schedule_value``: the state-label warning, then one
    ``effective_utility`` per payment, each in its own ``try``, added left to
    right from 0.0."""
    if not uses_states(d) and any(p.state is not None for p in sch.payments):
        warnings.warn(
            f"schedule {sch.label!r} carries state labels but the discount "
            "regime is state-independent; labels are ignored",
            stacklevel=2,
        )
    total = 0.0
    for i, p in enumerate(sch.payments):
        try:
            value = effective_utility(u, d, p.amount, p.time, p.state, round_factors=round_factors)
        except DesirablesError as exc:
            where = f'schedule "{sch.label}" ' if sch.label else ""
            raise type(exc)(f"{where}payment {i} (amount={p.amount:g}, t={p.time:g}): {exc}") from None
        total = total + value
    return total


def scan_by_compare(u, d, a0, b0, shifts, *, tol=1e-9, round_factors=False):
    """Reference reversal scan: shift both schedules and call scalar ``compare``
    once per shift; the values are ``schedule_value`` of the shifted schedules."""
    deltas = sorted(float(s) for s in shifts)
    baseline = compare(u, d, a0, b0, tol=tol, round_factors=round_factors)
    trace, value_a, value_b = [], [], []
    opposite = {Preference.A: Preference.B, Preference.B: Preference.A}
    first_flip = None
    for delta in deltas:
        a, b = shift_schedule(a0, delta), shift_schedule(b0, delta)
        pref = compare(u, d, a, b, tol=tol, round_factors=round_factors)
        trace.append((delta, pref))
        value_a.append(schedule_value(u, d, a, round_factors=round_factors))
        value_b.append(schedule_value(u, d, b, round_factors=round_factors))
        if first_flip is None and pref is opposite.get(baseline):
            first_flip = delta
    return ScanResult(tuple(trace), baseline, first_flip, tuple(value_a), tuple(value_b))


def sum_columns(cells):
    """Each row of a shifts x payments array added column after column from
    0.0, as ``schedule_value`` adds payments: ``cells.sum(axis=1)`` would add
    pairwise and round differently."""
    total = 0.0
    for column in cells.T:
        total += column
    return total


def scan_grid_sums(u, d, a0, b0, shifts, *, round_factors=False):
    """Reference ``value_a`` and ``value_b`` of a reversal scan: the grid cells
    u(D(t + delta) x) of every sorted shift (rows) and payment of ``a0`` then
    ``b0`` (columns), evaluated as one array, and each side's columns summed by
    :func:`sum_columns`."""
    deltas = np.array(sorted(float(s) for s in shifts))
    payments = a0.payments + b0.payments
    x = np.array([p.amount for p in payments])
    t = np.array([p.time for p in payments])[None, :] + deltas[:, None]
    cells = u.eval(d.factor(t, x, [p.state for p in payments], round_factors=round_factors) * x)
    n_a = len(a0.payments)
    return sum_columns(cells[:, :n_a]), sum_columns(cells[:, n_a:])


def transform_by_state(u: Utility, f: Gamble) -> np.ndarray:
    """Utility of a gamble, applied pointwise per state.

    Kinds that require strictly positive arguments are evaluated on
    wealth-shifted rewards, u(w + f(s)) - u(w), which restores u(0) = 0 and
    preserves monotonicity while keeping losses within the wealth bank.
    """
    out = np.empty(f.space.m)
    shift = u.needs_wealth_shift
    base = u.eval(f.wealth_floor) if shift else 0.0
    for i, label in enumerate(f.space.labels):
        x = float(f.rewards[i])
        try:
            out[i] = u.eval(f.wealth_floor + x) - base if shift else u.eval(x)
        except DomainError as exc:
            raise DomainError(f"state {label!r}: {exc}") from None
    return out


def u_convex_combine_by_state(u: Utility, f: Gamble, g: Gamble, lam: float, mu: float) -> Gamble:
    """The gamble h with u(h) = lam*u(f) + mu*u(g), taken pointwise.

    With linear utility this reduces to lam*f + mu*g exactly.  Raises
    ImageError naming the first state where the combination leaves u's image.
    """
    _check_same_space(f, g)
    if lam < 0 or mu < 0:
        raise ValueError(f"coefficients must be nonnegative, got {lam!r}, {mu!r}")
    w = max(f.wealth_floor, g.wealth_floor)
    shift = u.needs_wealth_shift
    base = u.eval(w) if shift else 0.0

    def to_util(x: float) -> float:
        return u.eval(w + x) - base if shift else u.eval(x)

    rewards = np.empty(f.space.m)
    for i, label in enumerate(f.space.labels):
        v = lam * to_util(float(f.rewards[i])) + mu * to_util(float(g.rewards[i]))
        try:
            rewards[i] = u.inverse(v + base) - w if shift else u.inverse(v)
        except ImageError as exc:
            raise ImageError(f"state {label!r}: {exc}") from None
    # Unbounded-below utilities let the combination dip under the inputs'
    # floor; widen the bank so the result stays admissible.
    return Gamble(f.space, rewards, wealth_floor=max(w, float(-rewards.min())))


def _basis_columns(p: lp.LpProblem, basis) -> list[list[Fraction]]:
    # B, the columns of [A | I] in ``basis``, as exact columns.
    A = p.constraints
    m, n = A.shape
    return [
        [Fraction(float(A[i, j])) if j < n else Fraction(int(j - n == i)) for i in range(m)]
        for j in basis
    ]


def _solve_exact(rows) -> list[Fraction]:
    # Gauss-Jordan elimination of the square augmented system ``rows``.
    m = len(rows)
    for c in range(m):
        r = next(r for r in range(c, m) if rows[r][c] != 0)
        rows[c], rows[r] = rows[r], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(m):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [row[m] for row in rows]


def exact_basic_solution(p: lp.LpProblem, basis) -> list[Fraction]:
    """The basic solution of ``basis``, columns of [A | I], for the rows of ``p``, in exact arithmetic.

    Every float is a dyadic rational, so Gauss-Jordan elimination on
    ``Fraction`` entries solves B z = b with no rounding.  Returns z over all
    n + m columns, zero off the basis; raises StopIteration if B is singular.
    """
    columns = _basis_columns(p, basis)
    rows = [[col[i] for col in columns] + [Fraction(float(b))] for i, b in enumerate(p.rhs)]
    z = [Fraction(0)] * sum(p.constraints.shape)
    for j, value in zip(basis, _solve_exact(rows)):
        z[j] = value
    return z


def exact_duals(p: lp.LpProblem, basis) -> list[Fraction]:
    """The row prices y of ``basis``, columns of [A | I], in exact arithmetic.

    Solves B^T y = c_B, where c_B holds the objective's entries of the basic
    structural columns and 0 for basic slacks, as :func:`exact_basic_solution`
    solves B z = b; raises StopIteration if B is singular.
    """
    n = p.constraints.shape[1]
    return _solve_exact([
        col + [Fraction(float(p.objective[j])) if j < n else Fraction(0)]
        for j, col in zip(basis, _basis_columns(p, basis))
    ])


def basis_gives_x(p: lp.LpProblem, sol: lp.LpSolution) -> bool:
    """``sol.basis`` is a read-only basis of ``p`` whose exact basic solution rounds to ``sol.x``.

    Rounding: within 1e-12 relative to the largest exact entry, and exactly
    0.0 on the nonbasic structural columns.
    """
    m, n = p.constraints.shape
    basis = sol.basis
    if not (
        basis.dtype.kind == "i"
        and not basis.flags.writeable
        and basis.size == m
        and np.unique(basis).size == m
        and (m == 0 or 0 <= basis.min() <= basis.max() < n + m)
    ):
        return False
    exact = np.array([float(v) for v in exact_basic_solution(p, basis.tolist())[:n]])
    close = np.abs(sol.x - exact).max(initial=0.0) <= 1e-12 * (1.0 + np.abs(exact).max(initial=0.0))
    return bool(close and not sol.x[np.setdiff1d(np.arange(n), basis)].any())


def farkas_check(p, y, tol=1e-7):
    """Farkas certificate check with the sign convention spelled out row by row.

    ``p`` is a :class:`GeneralLp` or a kernel problem (all rows "<=", x >= 0).
    """
    if isinstance(p, lp.LpProblem):
        p = GeneralLp(p.objective, p.constraints, ("<=",) * len(p.rhs), p.rhs)
    y = np.asarray(y, dtype=float)
    if y.shape != p.rhs.shape:
        return False
    rel = np.array(p.relations, dtype=str)
    if (y[rel == "<="] > tol).any() or (y[rel == ">="] < -tol).any():
        return False
    combo = y @ p.constraints
    free = p.lower_bounds == -math.inf
    if (combo[~free] > tol).any() or (np.abs(combo[free]) > tol).any():
        return False
    return float(y @ p.rhs) > tol


def inline_accept_check(U, c, y):
    """Rejection evidence from the margin LP's raw state-row duals ``y``.

    Returns (proven, certificate): the duals l1-normalized, and whether they
    satisfy y >= 0, U^T y >= 0 and c . y < 0.
    """
    total = float(np.abs(y).sum())
    y = y / total if total > 0 else y
    proven = y.min() >= -_TOL and (U.T @ y).min(initial=0.0) >= -_TOL and c @ y < 0
    return proven, y


def cut_problem_check(problem, y, shift):
    """Whether the raw duals ``y`` of the fit LP ``problem`` prove its margin below -_TOL.

    The margin is ``shift`` plus the LP's objective.  By weak duality (-y, 1)
    is then a Farkas certificate for ``problem`` with the extra row
    ``objective >= -_TOL - shift``.
    """
    objective, rows, rhs = problem.objective, problem.constraints, problem.rhs
    cut_rows = np.vstack([rows, objective])
    cut_rhs = np.append(rhs, -_TOL - shift)
    cut = GeneralLp(objective, cut_rows, ("<=",) * len(rhs) + (">=",), cut_rhs)
    return farkas_check(cut, np.append(-y, 1.0))


def unshifted_margin_lp(U, c):
    """(margin, witness, state-row duals) of max s : U lam + s <= c, s <= 1, lam >= 0, s free.

    The witness and duals are None when the kernel returns none.
    """
    m, n = U.shape
    objective = np.append(np.zeros(n), 1.0)
    rows = np.vstack([np.column_stack([U, np.ones(m)]), objective])
    bounds = np.append(np.zeros(n), -math.inf)
    sol = solve_general(GeneralLp(objective, rows, ("<=",) * (m + 1), np.append(c, 1.0), bounds))
    assert sol.status is lp.LpStatus.OPTIMAL, sol.status
    return float(sol.value), sol.x[:n], None if sol.y is None else sol.y[:m]


def audit_by_dominates(a):
    """The F1-F3 findings, with F2 as a loop of ``dominates`` over (rejected, accepted) pairs."""
    findings = []
    loss = check_partial_loss(a)
    if not loss.avoids:
        findings.append(
            Finding("F1", f"witness lambda={_fmt(loss.witness)} combination={_fmt(loss.combination)}")
        )
    flagged = set()
    for j, g in enumerate(a.rejected):
        for i, f in enumerate(a.accepted):
            if dominates(g, f):
                flagged.add(j)
                findings.append(Finding("F2", f"rejected[{j}] dominates accepted[{i}]"))
    for j, g in enumerate(a.rejected):
        decision = None if j in flagged else accept_decision(a, g)
        if decision is not None and decision.accepted:
            detail = f"rejected[{j}] lies in the accepted cone, witness lambda={_fmt(decision.witness)}"
            findings.append(Finding("F3", detail))
    return tuple(findings)


def _fmt(v):
    return "[" + ", ".join(f"{x:.6g}" for x in np.asarray(v)) + "]"


# -- The general form -------------------------------------------------------
@dataclass(frozen=True, eq=False)
class GeneralLp:
    """maximize objective @ x s.t. constraints @ x (relations) rhs, x >= lower_bounds.

    ``relations`` holds one of "<=", ">=", "=" per row and ``lower_bounds``
    0 or -inf per variable (all 0 when omitted).  Arrays are stored as float
    copies; finiteness and the size limits are the kernel's to check, on the
    problem :func:`to_canonical` builds.
    """

    objective: np.ndarray
    constraints: np.ndarray
    relations: tuple
    rhs: np.ndarray
    lower_bounds: np.ndarray = None

    def __post_init__(self):
        objective = np.array(self.objective, dtype=float)
        n = objective.size
        lb = np.zeros(n) if self.lower_bounds is None else np.array(self.lower_bounds, dtype=float)
        if lb.shape != (n,) or not ((lb == 0.0) | (lb == -math.inf)).all():
            raise ValueError("lower bounds must be 0 or -inf, one per variable")
        relations = tuple(self.relations)
        unknown = set(relations) - {"<=", ">=", "="}
        if unknown:
            raise ValueError(f"relation must be one of <=, >=, =, got {unknown.pop()!r}")
        A, rhs = np.array(self.constraints, dtype=float), np.array(self.rhs, dtype=float)
        m = len(relations)
        if A.size == 0:
            A = A.reshape(0, n)
        if A.shape != (m, n) or rhs.shape != (m,):
            raise DimensionError(f"constraint matrix {A.shape} and rhs {rhs.shape} do not fit {m} rows")
        for name, value in dict(objective=objective, constraints=A, rhs=rhs, lower_bounds=lb).items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "relations", relations)


class Canonical:
    """A :class:`GeneralLp` in the kernel's form, and the map of its solutions back.

    A ">=" row is negated in place and an "=" row becomes the two rows a x <= b
    and -a x <= -b; a free variable becomes the column pair (x+, x-), with
    x = x+ - x-.  Rows and columns keep their order, so a problem without "="
    rows builds the same tableau the kernel built from the general form.
    """

    def __init__(self, p: GeneralLp):
        self.general = p
        m, n = p.constraints.shape
        rel = np.array(p.relations, dtype=str).reshape(m)
        free = p.lower_bounds == -math.inf
        self.var = np.repeat(np.arange(n), np.where(free, 2, 1))
        self.var_first = np.diff(self.var, prepend=-1) != 0  # x+ (or the bounded x)
        col_sign = np.where(self.var_first, 1.0, -1.0)
        self.row = np.repeat(np.arange(m), np.where(rel == "=", 2, 1))
        self.row_first = np.diff(self.row, prepend=-1) != 0  # the "<=" copy of an "=" row
        self.row_sign = np.where((rel[self.row] == ">=") | ~self.row_first, -1.0, 1.0)
        self.problem = lp.LpProblem(
            p.objective[self.var] * col_sign,
            p.constraints[self.row][:, self.var] * col_sign * self.row_sign[:, None],
            p.rhs[self.row] * self.row_sign,
        )

    def _x(self, x):
        out = x[self.var_first]  # x+ - x-: the column pair's difference
        out[self.var[~self.var_first]] -= x[~self.var_first]
        return out

    def _y(self, y):
        if y is None:
            return None
        out = y[self.row_first] * self.row_sign[self.row_first]
        out[self.row[~self.row_first]] -= y[~self.row_first]
        out.flags.writeable = False
        return out

    def solution(self, sol: lp.LpSolution) -> lp.LpSolution:
        """The kernel's solution of :attr:`problem` as a solution of the general problem."""
        if sol.x is None:
            return lp.LpSolution(sol.status, certificate=self._y(sol.certificate))
        x = self._x(sol.x)
        x.flags.writeable = False
        value = math.fsum(self.general.objective * x)  # correctly rounded: no BLAS summation order
        return lp.LpSolution(sol.status, x=x, value=value, y=self._y(sol.y))


def to_canonical(p: GeneralLp) -> Canonical:
    """The kernel's form of ``p``: ``.problem``, and ``.solution(sol)`` to map a solution back."""
    return Canonical(p)


def solve_general(p: GeneralLp) -> lp.LpSolution:
    """Solve ``p`` with the kernel, through :func:`to_canonical`."""
    canonical = to_canonical(p)
    return canonical.solution(lp.solve(canonical.problem))


def recheck(p: GeneralLp, x: np.ndarray) -> None:
    """Raise on the first row (in row order), then variable, that ``x`` violates."""
    lhs, rhs, tol = p.constraints @ x, p.rhs, lp._CHECK_TOL
    rel = np.array(p.relations, dtype=str)
    ok = np.where(
        rel == "<=", lhs <= rhs + tol, np.where(rel == ">=", lhs >= rhs - tol, np.abs(lhs - rhs) <= tol)
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


def dual_feasible(p: GeneralLp, y: np.ndarray, c, tol: float) -> bool:
    """y >= 0 on "<=" rows, <= 0 on ">=" rows; y @ constraints >= c, with = c on free variables."""
    rel, free = np.array(p.relations, dtype=str), p.lower_bounds == -math.inf
    gap = y @ p.constraints - c
    signs = (y[rel == "<="] >= -tol).all() and (y[rel == ">="] <= tol).all()
    return bool(signs and (gap[~free] >= -tol).all() and (np.abs(gap[free]) <= tol).all())


def check_infeasibility_certificate(p: GeneralLp, y: np.ndarray) -> bool:
    """Verify a Farkas certificate: -y is dual feasible for a zero objective, and y @ rhs > tol."""
    y, tol = np.asarray(y, dtype=float), lp._CHECK_TOL
    return y.shape == p.rhs.shape and dual_feasible(p, -y, 0.0, tol) and float(y @ p.rhs) > tol


# -- Reference Bland kernel -------------------------------------------------
# The two-phase simplex as it was before the kernel moved to Dantzig pricing:
# Bland's lowest-index entering rule throughout, and an artificial for every
# ">=" row.  Copied unchanged apart from names, with the tolerances frozen at
# their values then; it solves the general form, and reuses the kernel's
# solution type and the general-form checks above (recheck, dual_feasible and
# check_infeasibility_certificate).
_BLAND_TOL = 1e-9
_BLAND_PIVOT_MIN = 1e-12
_BLAND_MAX_ITER = 100_000


class BlandTableau:
    """Dense simplex tableau over the standardized system D x = b, x >= 0, b >= 0."""

    def __init__(self, p: GeneralLp):
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
        flip = rhs < 0
        rows[flip], rhs[flip] = -rows[flip], -rhs[flip]
        self.tau = np.where(flip, -1.0, 1.0)
        rel = np.array(p.relations, dtype=str)
        le = np.where(flip, rel == ">=", rel == "<=")  # relation after the flip
        extra, art = rel != "=", ~le  # rows with a slack/surplus, with an artificial

        n_extra, n_art = int(extra.sum()), int(art.sum())
        total = n_struct + n_extra + n_art
        T = np.zeros((m, total + 1))
        T[:, :n_struct] = rows
        T[:, -1] = rhs

        # Slack (+1) or surplus (-1) columns, then artificial columns, each in
        # row order.  Identity column per row: the slack for <=, the artificial
        # otherwise; it starts in the basis.
        extra_col = n_struct + np.cumsum(extra) - 1
        art_col = n_struct + n_extra + np.cumsum(art) - 1
        T[extra, extra_col[extra]] = np.where(le, 1.0, -1.0)[extra]
        T[art, art_col[art]] = 1.0
        self.identity_col = np.where(le, extra_col, art_col)
        self.basis = self.identity_col.copy()
        self.art = np.zeros(total, dtype=bool)
        self.art[art_col[art]] = True

        self.T = T
        self.n_struct = n_struct
        self.row_alive = np.ones(m, dtype=bool)

    def _pivot(self, row: int, col: int) -> None:
        T = self.T
        piv = T[row, col]
        if abs(piv) < _BLAND_PIVOT_MIN:
            raise NumericalInstability(
                f"pivot magnitude {abs(piv):.3e} below {_BLAND_PIVOT_MIN}", self.problem
            )
        T[row, :] /= piv
        # Rows with a zero (or -0.0) pivot-column entry are left untouched, as
        # x - 0*y would turn a stored -0.0 into +0.0.
        rows = np.flatnonzero(T[:, col])
        rows = rows[rows != row]
        T[rows] -= T[rows, col][:, None] * T[row]
        self.basis[row] = col


def _bland_simplex_min(tab: BlandTableau, cost: np.ndarray, allowed: np.ndarray):
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
    for _ in range(_BLAND_MAX_ITER):
        improving = allowed & (obj[:ncols] < -_BLAND_TOL)
        entering = int(np.argmax(improving))
        if not improving[entering]:
            return "optimal", obj
        # Min-ratio test; ties at the minimum ratio go to the smallest basis index.
        rows = np.flatnonzero(tab.row_alive & (T[:, entering] > _BLAND_TOL))
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
    raise NumericalInstability("iteration cap exceeded", tab.problem)


def bland_solve(p: GeneralLp) -> lp.LpSolution:
    """Solve the LP; returns Optimal(x, value, y), Infeasible(certificate), or Unbounded."""
    tab = BlandTableau(p)
    T = tab.T
    total = T.shape[1] - 1
    art = tab.art

    if art.any():
        status, _ = _bland_simplex_min(tab, art.astype(float), allowed=np.ones(total, dtype=bool))
        if status != "optimal":  # phase 1 is bounded below by 0
            raise NumericalInstability("phase 1 unbounded", p)
        value1 = float(
            sum(T[i, -1] for i in np.nonzero(tab.row_alive)[0] if art[tab.basis[i]])
        )
        if value1 > _BLAND_TOL:
            y = _bland_certificate(tab, art)
            y = y if check_infeasibility_certificate(p, y) else None
            return lp.LpSolution(lp.LpStatus.INFEASIBLE, certificate=y)
        _bland_drive_out_artificials(tab, art)

    cost2 = np.zeros(total)
    cost2[: tab.n_struct] = -p.objective[tab.var] * tab.sign
    status, reduced = _bland_simplex_min(tab, cost2, allowed=~art)
    if status == "unbounded":
        return lp.LpSolution(lp.LpStatus.UNBOUNDED)

    x_std = np.zeros(total)
    x_std[tab.basis[tab.row_alive]] = T[tab.row_alive, -1]
    # add.at sums unbuffered in column order: 0.0 + x_plus (+ -x_minus), as a loop would.
    x = np.zeros(len(p.objective))
    np.add.at(x, tab.var, tab.sign * x_std[: tab.n_struct])
    recheck(p, x)
    value = math.fsum(p.objective * x)  # correctly rounded: no BLAS summation order
    # Duals: reduced costs at the identity columns, unflipped by tau.  A dropped
    # redundant row leaves its basic artificial a zero column, hence a zero dual.
    y = tab.tau * reduced[tab.identity_col]
    x.flags.writeable = y.flags.writeable = False
    tol = 1e-7 * max(1.0, float(np.abs(p.objective).max())) * (1.0 + abs(value))
    if not (dual_feasible(p, y, p.objective, tol) and abs(float(y @ p.rhs) - value) <= tol):
        y = None
    return lp.LpSolution(lp.LpStatus.OPTIMAL, x=x, value=value, y=y)


def _bland_drive_out_artificials(tab: BlandTableau, art: np.ndarray) -> None:
    """Pivot basic artificials (at level 0) out of the basis; drop redundant rows."""
    T = tab.T
    for i in np.nonzero(tab.row_alive)[0]:
        if not art[tab.basis[i]]:
            continue
        eligible = ~art & (np.abs(T[i, :-1]) > _BLAND_TOL)
        pivot_col = int(np.argmax(eligible))
        if eligible[pivot_col]:
            tab._pivot(int(i), pivot_col)
        else:
            tab.row_alive[i] = False
            T[i, :] = 0.0


def _bland_certificate(tab: BlandTableau, art: np.ndarray) -> np.ndarray:
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
