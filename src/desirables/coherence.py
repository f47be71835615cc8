"""Acceptance sets over a utility-transformed cone, decided by linear programming.

Two acceptance semantics are exposed and cross-checked rather than collapsed:

* :func:`accepts` decides the natural extension of finitely many accepted
  generators: g is accepted iff u(g) componentwise dominates some conic
  combination of the transformed generators (decided by a margin-maximizing
  LP, shifted so that it starts feasible on its slack basis and the simplex
  runs no phase 1; tolerance 1e-9).
* :func:`rho` evaluates the representation semantics: a nonnegative weight
  vector ell with acceptance iff rho = ell . u(g) >= 0.

:func:`fit_functional` searches for a representation compatible with stated
accepted and rejected gambles; strict rejection is encoded with a
user-chosen margin epsilon because an LP cannot express strict inequality.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import lp
from ._record import Record
from .errors import NumericalInstability, SpaceMismatch
from .gamble import Gamble, StateSpace, transform
from .utility import Utility

__all__ = [
    "AssessmentSet",
    "Functional",
    "AcceptanceDecision",
    "accept_decision",
    "accepts",
    "PartialLossReport",
    "check_partial_loss",
    "avoids_partial_loss",
    "Infeasible",
    "fit_constraints",
    "fit_functional",
    "rho",
    "check_ordering_invariance",
    "check_transform_invariance",
    "Finding",
    "audit",
    "cross_check_functional",
]

_TOL = 1e-9


class AssessmentSet(Record):
    """Generator gambles marked accepted (and optionally rejected) under one utility."""

    space: StateSpace
    utility: Utility
    accepted: tuple[Gamble, ...]
    rejected: tuple[Gamble, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "accepted", tuple(self.accepted))
        object.__setattr__(self, "rejected", tuple(self.rejected))
        for g in self.accepted + self.rejected:
            _check_space(self.space, g)
        # Fast necessary check: a sure loss can never be accepted.
        for i, g in enumerate(self.accepted):
            if g.rewards.max() < 0:
                raise ValueError(
                    f"accepted[{i}] is everywhere strictly negative: {g!r}"
                )

    def transformed_generators(self) -> np.ndarray:
        """m x n matrix whose columns are the utility transforms of the accepted gambles.

        Computed on the first call, so a DomainError surfaces at the query, and
        cached as a read-only array for later calls: a view of the first m rows
        and n columns of :meth:`_margin_rows`, so the set holds one copy of U.
        """
        return self._cached("_u_accepted", lambda: self._margin_rows()[:-1, :-1])

    def transformed_rejected(self) -> np.ndarray:
        """m x r matrix of the rejected gambles' transforms, built and cached the same way."""
        shape = (self.space.m, len(self.rejected))
        return self._cached("_u_rejected", lambda: self._columns(self.rejected, shape))

    def _margin_rows(self) -> np.ndarray:
        """[[U, 1], [0, 1]], the (m + 1) x (n + 1) matrix of every margin LP over this set, cached read-only.

        Its last row, (0, ..., 0, 1), is also that LP's objective.  Both are
        checked here, once: each margin LP checks only its rhs (:func:`_margin_lp`).
        """

        def build():
            M = self._columns(self.accepted, (self.space.m + 1, len(self.accepted) + 1))
            M[:, -1] = 1.0
            lp._check_finite(M)
            return M

        return self._cached("_margin", build)

    def _columns(self, gambles, shape) -> np.ndarray:
        """Zeros of ``shape`` with the gambles' transforms in the first columns' first m rows."""
        out = np.zeros(shape)
        for i, g in enumerate(gambles):
            out[: self.space.m, i] = transform(self.utility, g)
        return out

    def _cached(self, key: str, build) -> np.ndarray:
        """The array ``build()`` returns, built on the first call and cached read-only."""
        a = self.__dict__.get(key)
        if a is None:
            a = build()
            a.flags.writeable = False
            self.__dict__[key] = a  # frozen: a cache past __setattr__
        return a


class Functional(Record, eq=False):
    """A nonnegative, not-all-zero weight vector, stored normalized to unit l1 norm.

    ``space`` is the state space a fitted functional was fitted on; one given
    no space applies to any space with as many states.  Equality compares the
    weights alone.
    """

    weights: np.ndarray
    space: StateSpace | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).copy()
        if w.ndim != 1 or w.size == 0 or not np.isfinite(w).all():
            raise ValueError(f"weights must be a nonempty finite vector, got {w!r}")
        if w.min() < 0:
            raise ValueError(f"weights must be nonnegative, got {w!r}")
        with np.errstate(over="ignore"):
            total = w.sum()
        if total <= 0:
            raise ValueError("weights must not all be zero")
        if total == math.inf:  # finite weights whose sum overflows: scale them first
            w /= w.max()
        w /= w.sum()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Functional):
            return NotImplemented
        return bool(np.array_equal(self.weights, other.weights))


class AcceptanceDecision(Record, eq=False):
    """Outcome of a natural-extension query.

    ``witness`` holds the conic coefficients when accepted; ``certificate``
    holds a Farkas vector y >= 0 with U^T y >= 0 and y . u(g) < 0 proving
    rejection: the margin LP's l1-normalized duals of the state rows, which the
    LP kernel checks (None when that check fails or y . u(g) is not negative).
    ``margin`` is the maximized minimum slack, capped at 1.
    """

    accepted: bool
    margin: float
    witness: np.ndarray | None = None
    certificate: np.ndarray | None = None


def _check_space(space: StateSpace, g: Gamble) -> None:
    if g.space is not space and g.space != space:
        raise SpaceMismatch(f"gamble on {g.space.labels} does not live on {space.labels}")


def _check_weights(ell: Functional, space: StateSpace) -> None:
    if ell.space is not None and ell.space != space:
        raise SpaceMismatch(f"functional fitted on {ell.space.labels} applied on {space.labels}")
    if ell.weights.size != space.m:
        raise SpaceMismatch(f"functional has {ell.weights.size} weights for {space.m} states")


def accept_decision(a: AssessmentSet, g: Gamble) -> AcceptanceDecision:
    """Decide acceptance of ``g`` by LP over the transformed cone, with evidence.

    The margin LP, maximize s s.t. U lam + s <= c, s <= 1, lam >= 0 with
    c = u(g), is solved shifted by s0 = min(min(c), 1): maximize d s.t.
    U lam + d <= c - s0, d <= 1 - s0, lam, d >= 0, and s = s0 + d.  Every rhs
    is >= 0, so the kernel starts on its slack basis with no phase 1 (d = 0
    is feasible, so d >= 0 cuts off nothing); matrix and objective are
    unshifted, so the duals are those of the unshifted LP.
    """
    _check_space(a.space, g)
    return _margin_lp(a._margin_rows(), transform(a.utility, g))


def _margin_lp(rows: np.ndarray, c: np.ndarray) -> AcceptanceDecision:
    """accept_decision's shifted margin LP for the query column c over ``rows``, a set's [[U, 1], [0, 1]].

    The LP shares ``rows``, checked when the set built it, and its last row, the
    objective; only the rhs is built and checked per query.
    """
    m, n = rows.shape[0] - 1, rows.shape[1] - 1
    s0 = min(float(c.min()), 1.0)
    rhs = np.empty(m + 1)
    try:
        with np.errstate(over="raise"):
            np.subtract(c, s0, out=rhs[:m])
    except FloatingPointError:
        raise NumericalInstability(f"margin LP rhs u(g) - {s0:g} overflows") from None
    rhs[m] = 1.0 - s0
    rhs.flags.writeable = False
    problem = lp._with_rhs(rows[m], rows, rhs)  # the cap row is also the objective
    sol = lp.solve(problem)
    if sol.status is not lp.LpStatus.OPTIMAL:  # rhs >= 0 and the cap row: feasible, bounded
        raise NumericalInstability(f"margin LP cannot be {sol.status}", problem)
    margin = s0 + float(sol.value)
    if margin >= -_TOL:
        witness = np.array(sol.x[:n])
        witness.flags.writeable = False
        return AcceptanceDecision(True, margin, witness=witness)

    # Rejected: the duals of the state rows, l1-normalized, are the certificate
    # (the cap row is slack, so its dual is 0).  The kernel checked their signs
    # and b . y = value within its tolerance, which does not imply c . y < 0.
    if sol.y is None:
        return AcceptanceDecision(False, margin)
    y = sol.y[:m]
    total = float(np.abs(y).sum())
    y = y / total if total > 0 else y
    y.flags.writeable = False
    return AcceptanceDecision(False, margin, certificate=y if c @ y < 0 else None)


def accepts(a: AssessmentSet, g: Gamble) -> bool:
    """True iff u(g) dominates a conic combination of the transformed generators."""
    return accept_decision(a, g).accepted


class PartialLossReport(Record, eq=False):
    """Result of :func:`check_partial_loss`: eps* as ``margin``; on a loss, the witness lam and U lam."""

    avoids: bool
    margin: float
    witness: np.ndarray | None = None
    combination: np.ndarray | None = None


def check_partial_loss(a: AssessmentSet) -> PartialLossReport:
    """Search the transformed cone for an everywhere strictly negative element.

    By Gordan's alternative no lam >= 0 has U lam < 0 in every state iff t* >= 0, where
    t* = L + d* = max over the simplex of min_i w . U_i is the fit LP's over the accepted
    rows alone (:func:`_fit_rows`).  F1 holds iff eps* = max(0, -t*) <= 1e-9; by LP
    duality eps* is the optimum of max eps : U lam + eps <= 0, sum lam <= 1.  On a loss
    the witness lam is the accepted rows' duals y, clamped at 0 and l1-normalized (as
    sum y >= 2 and b . y = d*, U lam <= t*); a loss without them raises NumericalInstability.
    """
    U = a.transformed_generators()
    fit = _fit_rows(U, U[:, :0], 0.0)
    problem = lp.LpProblem(np.append(np.zeros(U.shape[0] - 1), 2.0), fit.rows, fit.rhs)
    sol = lp.solve(problem)
    if sol.status is not lp.LpStatus.OPTIMAL:  # w = e_k, h = 0 is feasible; the rows bound h
        raise NumericalInstability(f"partial-loss LP cannot be {sol.status}", problem)
    margin = max(0.0, -(fit.shift + float(sol.value)))
    if margin <= _TOL:
        return PartialLossReport(True, margin)
    y = None if sol.y is None else np.maximum(sol.y[: U.shape[1]], 0.0)  # as _fit_lp clamps w
    if y is None or not y.sum() > 0:
        raise NumericalInstability("partial-loss LP found a loss without checked duals", problem)
    witness = y / y.sum()
    combo = U @ witness
    witness.flags.writeable = combo.flags.writeable = False
    return PartialLossReport(False, margin, witness=witness, combination=combo)


def avoids_partial_loss(a: AssessmentSet) -> bool:
    """True iff no everywhere strictly negative gamble is accepted by extension."""
    return check_partial_loss(a).avoids


class Infeasible(Record):
    """No compatible functional exists; ``conflict`` is an irreducible conflicting subset.

    Entries are ("accepted", i) or ("rejected", j) indices into the assessment
    set, found by greedy single-constraint deletion in input order; constraints
    with a zero entry in the last evidence (a Farkas certificate of the
    eliminated fit LP, or duals y whose shifted bound L + b . y puts the margin
    below zero, both checked by the LP kernel) are dropped without a solve.
    The search keeps one boolean mask over the fit LP's rows (accepted, then
    rejected, then the bounds, never dropped); each trial is warm-started
    from the optimal tableau of the last LP that found no functional, with
    every row dropped since then relaxed in place (``lp.solve_relaxed``),
    unless that LP ended INFEASIBLE in phase 1.  A trial builds no
    :class:`Functional`, only a verdict.  A trial that drops the last
    accepted constraint leaves the margin unbounded, so a functional exists.
    """

    conflict: tuple[tuple[str, int], ...]


def fit_functional(a: AssessmentSet, strict_margin: float = 1e-6) -> Functional | Infeasible:
    """Fit representation weights to the assessments by margin-maximizing LP.

    Searches w >= 0, sum w = 1 with w . u(f_i) >= 0 on every accepted f_i and
    w . u(g_j) <= -strict_margin on every rejected g_j, maximizing the minimum
    accepted margin t (capped at 1 when the set has no accepted gamble).  With
    finitely many assessments the compatible weights form a polytope; the
    returned element is the margin maximizer, with no uniqueness claim.

    The LP is solved with w_k = 1 - sum of the other weights eliminated and
    t = L + d shifted by L = min(min u(f_i), 0), so it has no equality row and
    no free variable, and every accepted row starts on a slack (see
    :func:`_fit_rows`); k and L are fixed once per call, so the conflict
    search's trials are masks over one row block, the whole fit polytope,
    and are warm-started from an earlier trial's tableau (see
    :class:`Infeasible`).
    """
    if not 0 < strict_margin <= 1e-2:
        raise ValueError(f"strict margin must lie in (0, 1e-2], got {strict_margin!r}")
    fit = _fit_rows(a.transformed_generators(), a.transformed_rejected(), strict_margin)
    active = np.ones(fit.rows.shape[0], dtype=bool)
    result, droppable, restart = _fit_lp(fit, active, space=a.space)
    if result is not None:
        return result

    # Greedy deletion in input order; a row outside the support of the
    # current evidence is dropped without a solve, as the evidence still holds.
    # Each trial starts from the last infeasible trial's tableau (restart).
    labels = [("accepted", i) for i in range(len(a.accepted))]
    labels += [("rejected", j) for j in range(len(a.rejected))]
    for row in range(len(labels)):
        trial = active.copy()
        trial[row] = False
        if droppable[row]:
            active = trial
            continue
        result, evidence, solved = _fit_lp(fit, trial, restart)
        if result is None:
            active, droppable, restart = trial, evidence, solved
    return Infeasible(tuple(c for c, kept in zip(labels, active) if kept))


def fit_constraints(
    a: AssessmentSet, strict_margin: float = 1e-6
) -> tuple[tuple[np.ndarray, str, float], ...]:
    """The weight-space constraint list cutting out all compatible functionals.

    Rows are (coefficients, relation, rhs) over w in R^m: one ">= 0" row per
    accepted generator, one "<= -eps" row per rejected gamble, the simplex
    normalization, and nonnegativity.  With finitely many assessments the
    compatible weights form a polytope; :func:`fit_functional` returns its
    margin-maximizing element, and callers needing the whole face can work
    from this list.
    """
    UA, UR, m = a.transformed_generators(), a.transformed_rejected(), a.space.m
    n, r = UA.shape[1], UR.shape[1]
    coeffs = np.vstack([UA.T, UR.T, np.ones(m), np.eye(m)])
    relations = (">=",) * n + ("<=",) * r + ("=",) + (">=",) * m
    rhs = [0.0] * n + [-float(strict_margin)] * r + [1.0] + [0.0] * m
    return tuple(zip(coeffs, relations, rhs))


class _FitRows(NamedTuple):
    """The fit LP's rows over (w without w_k, h): the assessments, accepted first, then the bounds."""

    k: int
    shift: float  # L
    rows: np.ndarray
    rhs: np.ndarray


def _fit_rows(UA: np.ndarray, UR: np.ndarray, eps: float) -> _FitRows:
    """The whole fit polytope as one row block, with w_k eliminated and the margin shifted by L.

    Substituting w_k = 1 - sum_{s != k} w_s and t = L + d, with
    L = min(min UA, 0) and d = 2h >= 0, and halving every row (an exact
    power-of-two scaling, under which differences of values up to the float
    limit cannot overflow) gives

        (UA_k - UA_s)/2 . w_{-k} + h <= (UA_k - L)/2    per accepted column,
        (UR_s - UR_k)/2 . w_{-k}     <= (-eps - UR_k)/2  per rejected column,
        sum_s w_s                    <= 1                (w_k >= 0),

    where s runs over the states other than k, and without accepted columns
    the cap row h <= 1/2 bounds the margin.  Every accepted rhs is >= 0, so
    those rows start on a slack; k minimizes the largest rejected utility, so
    as many rejected rows as possible hold at w = e_k and need no phase 1.
    Since t >= L at every w on the simplex, the shift cuts off nothing.
    """
    m, n = UA.shape
    k = int(np.argmin(UR.max(axis=1, initial=-math.inf)))
    shift = float(UA.min(initial=0.0))
    A, R = UA / 2, UR / 2
    others = np.arange(m) != k
    cap = int(n == 0)  # the cap row, with no accepted gamble
    rows = np.vstack([
        np.column_stack([(A[k] - A[others]).T, np.ones(n)]),
        np.column_stack([(R[others] - R[k]).T, np.zeros(R.shape[1])]),
        np.append(np.ones(m - 1), 0.0),
        np.eye(1, m, m - 1)[:cap],
    ])
    rhs = np.concatenate([A[k] - shift / 2, -eps / 2 - R[k], [1.0], [0.5][:cap]])
    return _FitRows(k, shift, rows, rhs)


def _fit_lp(fit: _FitRows, active: np.ndarray, restart=None, space=None):
    """Maximize 2h = d over ``fit.rows[active]``: (Functional or True, None, None), or (None, droppable, restart).

    The margin is t = L + d: a functional on ``space`` is returned when
    t >= -_TOL, and True when no ``space`` is given (a search's trial reads
    only the verdict) or the LP is UNBOUNDED (a trial dropped every accepted
    row), as a functional then exists.  ``droppable`` masks the
    active rows with a zero entry in the evidence: the kernel-checked Farkas
    certificate, or the kernel-checked duals y when their bound L + b . y on
    the margin lies below -_TOL by the kernel's ``lp._CHECK_TOL``.

    A ``restart`` is (mask, OPTIMAL solution) of an earlier call on a
    superset of ``active``, whose tableau this LP continues from with the
    rows it drops relaxed in place (``lp.solve_relaxed``); without one it is
    solved cold.  The returned restart is this call's own, or None when its
    LP ended INFEASIBLE.
    """
    rhs = fit.rhs[active]
    if restart is None:
        rows = fit.rows[active]
        rows.flags.writeable = rhs.flags.writeable = False  # fresh: the LP shares them
        sol = lp.solve(lp.LpProblem(np.append(np.zeros(rows.shape[1] - 1), 2.0), rows, rhs))
    else:
        sol = lp.solve_relaxed(restart[1], active[restart[0]])
    if sol.status is lp.LpStatus.UNBOUNDED:
        return True, None, None
    if sol.status is lp.LpStatus.OPTIMAL and fit.shift + sol.value >= -_TOL:
        if space is None:
            return True, None, None
        x = sol.x[:-1]
        return Functional(np.maximum(np.insert(x, fit.k, 1.0 - x.sum()), 0.0), space), None, None
    evidence = sol.certificate
    if sol.y is not None and fit.shift + sol.y @ rhs < -_TOL - lp._CHECK_TOL:  # weak duality: d <= b . y
        evidence = sol.y
    droppable = np.zeros_like(active)
    if evidence is not None:
        droppable[active] = evidence == 0.0
    return None, droppable, (active, sol) if sol.status is lp.LpStatus.OPTIMAL else None


def rho(ell: Functional, u: Utility, f: Gamble) -> float:
    """Risk functional: belief weights applied to the utility transform of ``f``."""
    _check_weights(ell, f.space)
    return float(np.dot(ell.weights, transform(u, f)))


def check_ordering_invariance(ell: Functional, c: float, u: Utility, fs) -> bool:
    """True iff scaling the weights by c > 0 preserves acceptance signs and ranking.

    The gambles must share the first gamble's state space (else SpaceMismatch).
    """
    if not c > 0:
        raise ValueError(f"scale must be positive, got {c!r}")
    fs = list(fs)
    if not fs:
        raise ValueError("need at least one gamble")
    for f in fs:
        _check_space(fs[0].space, f)
    U = np.column_stack([transform(u, f) for f in fs])
    _check_weights(ell, fs[0].space)
    base, scaled = ell.weights @ U, (c * ell.weights) @ U
    return bool(
        np.array_equal(np.sign(base), np.sign(scaled))
        and np.array_equal(np.sign(base[:, None] - base), np.sign(scaled[:, None] - scaled))
    )


def check_transform_invariance(u: Utility, phi, fs) -> bool:
    """True iff acceptance signs under pointwise thresholds agree for u and phi(u).

    ``phi`` must be strictly increasing with phi(0) = 0 on the evaluated
    range; violations of the precondition raise ValueError.  Gambles not on
    the first gamble's state space raise SpaceMismatch.
    """
    fs = list(fs)
    for f in fs:
        _check_space(fs[0].space, f)
    if abs(phi(0.0)) > 1e-12:
        raise ValueError(f"phi(0) must be 0, got {phi(0.0)!r}")
    transformed = [transform(u, f).tolist() for f in fs]
    values = sorted({v for uf in transformed for v in uf} | {0.0})
    for a, b in zip(values, values[1:]):
        if not phi(b) > phi(a):
            raise ValueError(f"phi is not strictly increasing between {a!r} and {b!r}")
    return all(
        all(v >= 0 for v in uf) == all(phi(v) >= 0 for v in uf) for uf in transformed
    )


class Finding(Record):
    """One coherence violation, renderable as an audit report line."""

    axiom: str
    detail: str

    def __str__(self) -> str:
        return f"{self.axiom} VIOLATION: {self.detail}"


def _fmt_vec(v) -> str:
    return "[" + ", ".join(f"{x:.6g}" for x in np.asarray(v)) + "]"


def audit(a: AssessmentSet) -> tuple[Finding, ...]:
    """Run the executable F1-F3 checks and collect findings (empty when coherent).

    Findings come in the order F1, F2, F3.  F2 is one array comparison; F3
    solves the margin LP of every rejected gamble that F2 did not flag.  F1
    (avoiding partial loss) is then decided from F3's evidence when it can
    be: a rejection's certificate y with y >= 0 exactly (so sum y = 1, as y
    is l1-normalized) and min(y . U) >= -_TOL over the accepted columns U
    (0 with none) shows that F1 holds with no LP.  Proof: y is a point of
    the simplex, so the fit-row LP's t* is >= min(y . U) >= -_TOL, and
    eps* = max(0, -t*) <= _TOL, the bound under which
    :func:`check_partial_loss` reports that F1 holds.  Otherwise
    :func:`check_partial_loss` decides F1.  As F3 runs first, an audit whose
    F3 LP and partial-loss LP would both raise reports F3's error.
    """
    # F2, weak dominance of rejected[j] over accepted[i], as one r x n x m comparison.
    R = np.array([g.rewards for g in a.rejected]).reshape(-1, a.space.m)
    A = np.array([g.rewards for g in a.accepted]).reshape(-1, a.space.m)
    dominated = (R[:, None, :] >= A[None, :, :]).all(axis=2)
    findings: list[Finding] = []
    for j, i in np.argwhere(dominated).tolist():
        findings.append(Finding("F2", f"rejected[{j}] dominates accepted[{i}]"))
    rows, UR = a._margin_rows(), a.transformed_rejected()
    avoids = False
    for j in np.flatnonzero(~dominated.any(axis=1)).tolist():
        decision = _margin_lp(rows, UR[:, j])
        y = decision.certificate
        if decision.accepted:
            findings.append(
                Finding(
                    "F3",
                    f"rejected[{j}] lies in the accepted cone, "
                    f"witness lambda={_fmt_vec(decision.witness)}",
                )
            )
        elif not avoids and y is not None and (y >= 0).all():
            avoids = (y @ rows[:-1, :-1]).min(initial=0.0) >= -_TOL
    if not avoids:
        loss = check_partial_loss(a)
        if not loss.avoids:
            detail = f"witness lambda={_fmt_vec(loss.witness)} combination="
            findings.insert(0, Finding("F1", detail + _fmt_vec(loss.combination)))
    return tuple(findings)


def cross_check_functional(
    a: AssessmentSet, ell: Functional, candidates=(), tol: float = _TOL
) -> bool:
    """Audit that generator-accepted gambles score rho >= 0 under ``ell``.

    Checks every accepted generator, plus any candidate gambles that the
    natural extension accepts.
    """
    _check_weights(ell, a.space)
    if (ell.weights @ a.transformed_generators() < -tol).any():
        return False
    for g in candidates:
        if accepts(a, g) and rho(ell, a.utility, g) < -tol:
            return False
    return True
