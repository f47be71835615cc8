"""Acceptance sets over a utility-transformed cone, decided by linear programming.

Two acceptance semantics are exposed and cross-checked rather than collapsed:

* :func:`accepts` decides the natural extension of finitely many accepted
  generators: g is accepted iff u(g) componentwise dominates some conic
  combination of the transformed generators (decided by an LP with a
  margin-maximizing objective, tolerance 1e-9).
* :func:`rho` evaluates the representation semantics: a nonnegative weight
  vector ell with acceptance iff rho = ell . u(g) >= 0.

:func:`fit_functional` searches for a representation compatible with stated
accepted and rejected gambles; strict rejection is encoded with a
user-chosen margin epsilon because an LP cannot express strict inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import SpaceMismatch
from .gamble import Gamble, StateSpace, dominates, transform
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


@dataclass(frozen=True)
class AssessmentSet:
    """Generator gambles marked accepted (and optionally rejected) under one utility."""

    space: StateSpace
    utility: Utility
    accepted: tuple[Gamble, ...]
    rejected: tuple[Gamble, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "accepted", tuple(self.accepted))
        object.__setattr__(self, "rejected", tuple(self.rejected))
        for g in self.accepted + self.rejected:
            if g.space != self.space:
                raise SpaceMismatch(
                    f"gamble on {g.space.labels} does not live on {self.space.labels}"
                )
        # Fast necessary check: a sure loss can never be accepted.
        for i, g in enumerate(self.accepted):
            if g.rewards.max() < 0:
                raise ValueError(
                    f"accepted[{i}] is everywhere strictly negative: {g!r}"
                )

    def transformed_generators(self) -> np.ndarray:
        """m x n matrix whose columns are the utility transforms of the accepted gambles.

        Computed on the first call, so a DomainError surfaces at the query, and
        cached as a read-only array for later calls.
        """
        return self._transformed("accepted")

    def transformed_rejected(self) -> np.ndarray:
        """m x r matrix of the rejected gambles' transforms, built and cached the same way."""
        return self._transformed("rejected")

    def _transformed(self, side: str) -> np.ndarray:
        U = self.__dict__.get("_u_" + side)
        if U is None:
            gambles = getattr(self, side)
            U = np.zeros((self.space.m, len(gambles)))
            for i, g in enumerate(gambles):
                U[:, i] = transform(self.utility, g)
            U.flags.writeable = False
            self.__dict__["_u_" + side] = U  # frozen: a cache past __setattr__
        return U


@dataclass(frozen=True, eq=False)
class Functional:
    """A nonnegative, not-all-zero weight vector, stored normalized to unit l1 norm."""

    weights: np.ndarray

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


@dataclass(frozen=True, eq=False)
class AcceptanceDecision:
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


def _check_query(a: AssessmentSet, g: Gamble) -> None:
    if g.space != a.space:
        raise SpaceMismatch(
            f"gamble on {g.space.labels} does not live on {a.space.labels}"
        )


def accept_decision(a: AssessmentSet, g: Gamble) -> AcceptanceDecision:
    """Decide acceptance of ``g`` by LP over the transformed cone, with evidence."""
    _check_query(a, g)
    U = a.transformed_generators()
    c = transform(a.utility, g)
    m, n = U.shape

    # maximize s subject to U lam + s <= c, lam >= 0, s <= 1 (cap keeps it bounded).
    objective = np.append(np.zeros(n), 1.0)  # also the cap row
    rows = np.vstack([np.column_stack([U, np.ones(m)]), objective])
    bounds = np.append(np.zeros(n), -math.inf)
    sol = lp.solve(lp.LpProblem(objective, rows, (lp.LE,) * (m + 1), np.append(c, 1.0), bounds))
    if sol.status is not lp.LpStatus.OPTIMAL:
        raise AssertionError(f"margin LP cannot be {sol.status}")
    margin = float(sol.value)
    if margin >= -_TOL:
        witness = np.array(sol.x[:n])
        witness.flags.writeable = False
        return AcceptanceDecision(True, margin, witness=witness)

    # Rejected: the duals of the state rows, l1-normalized, are the certificate
    # (the cap row is slack, so its dual is 0).  The kernel checked their signs
    # and b . y = margin within its tolerance, which does not imply c . y < 0.
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


@dataclass(frozen=True, eq=False)
class PartialLossReport:
    """Result of the sure-loss search; ``witness`` combines generators into a loss."""

    avoids: bool
    margin: float
    witness: np.ndarray | None = None
    combination: np.ndarray | None = None


def check_partial_loss(a: AssessmentSet) -> PartialLossReport:
    """Search the transformed cone for an everywhere strictly negative element.

    Decided by the LP  max eps : U lam <= -eps, sum lam <= 1, lam >= 0,
    eps >= 0.  A positive optimum exhibits the violating combination.
    """
    U = a.transformed_generators()
    m, n = U.shape
    objective = np.append(np.zeros(n), 1.0)
    rows = np.vstack([np.column_stack([U, np.ones(m)]), np.append(np.ones(n), 0.0)])
    rhs = np.append(np.zeros(m), 1.0)
    sol = lp.solve(lp.LpProblem(objective, rows, (lp.LE,) * (m + 1), rhs))
    if sol.status is not lp.LpStatus.OPTIMAL:
        raise AssertionError(f"partial-loss LP cannot be {sol.status}")
    margin = float(sol.value)
    if margin <= _TOL:
        return PartialLossReport(True, margin)
    witness = np.array(sol.x[:n])
    witness.flags.writeable = False
    combo = U @ witness
    combo.flags.writeable = False
    return PartialLossReport(False, margin, witness=witness, combination=combo)


def avoids_partial_loss(a: AssessmentSet) -> bool:
    """True iff no everywhere strictly negative gamble is accepted by extension."""
    return check_partial_loss(a).avoids


@dataclass(frozen=True)
class Infeasible:
    """No compatible functional exists; ``conflict`` is an irreducible conflicting subset.

    Entries are ("accepted", i) or ("rejected", j) indices into the assessment
    set, found by greedy single-constraint deletion in input order; constraints
    with a zero entry in the last evidence (a Farkas certificate, or duals that
    bound the margin below zero, both checked by the LP kernel) are dropped
    without a solve.
    """

    conflict: tuple[tuple[str, int], ...]


def fit_functional(a: AssessmentSet, strict_margin: float = 1e-6) -> Functional | Infeasible:
    """Fit representation weights to the assessments by margin-maximizing LP.

    Searches w >= 0, sum w = 1 with w . u(f_i) >= 0 on every accepted f_i and
    w . u(g_j) <= -strict_margin on every rejected g_j, maximizing the minimum
    accepted margin.  With finitely many assessments the compatible weights
    form a polytope; the returned element is the margin maximizer, with no
    uniqueness claim.
    """
    if not 0 < strict_margin <= 1e-2:
        raise ValueError(f"strict margin must lie in (0, 1e-2], got {strict_margin!r}")
    UA, UR = a.transformed_generators(), a.transformed_rejected()
    labels = [("accepted", i) for i in range(UA.shape[1])]
    labels += [("rejected", j) for j in range(UR.shape[1])]

    def attempt(active: list[tuple[str, int]]):
        return _fit_lp(a.space.m, UA, UR, active, strict_margin)

    active = list(labels)
    result, droppable = attempt(active)
    if result is not None:
        return result

    # Greedy deletion in input order; a constraint outside the support of the
    # current evidence is dropped without a solve, as the evidence still holds.
    for constraint in labels:
        trial = [c for c in active if c != constraint]
        if constraint in droppable:
            active = trial
            continue
        result, evidence = attempt(trial)
        if result is None:
            active, droppable = trial, evidence
    return Infeasible(conflict=tuple(active))


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
    relations = (lp.GE,) * n + (lp.LE,) * r + (lp.EQ,) + (lp.GE,) * m
    rhs = [0.0] * n + [-float(strict_margin)] * r + [1.0] + [0.0] * m
    return tuple(zip(coeffs, relations, rhs))


def _fit_lp(m, UA, UR, active, eps):
    """Margin LP over a constraint subset: (Functional, set()), or (None, droppable).

    ``droppable`` holds the active constraints with a zero entry in the evidence:
    the kernel-checked Farkas certificate, or the kernel-checked duals when their
    bound b . y on the margin lies below -_TOL by the kernel's ``lp._CHECK_TOL``.
    """
    acc = [i for kind, i in active if kind == "accepted"]
    rej = [j for kind, j in active if kind == "rejected"]
    # Variables: w_1..w_m, margin (free).
    objective = np.append(np.zeros(m), 1.0)
    cap = [] if acc else [objective]  # margin otherwise unbounded
    rows = np.vstack([
        np.column_stack([UA[:, acc].T, np.full(len(acc), -1.0)]),
        np.column_stack([UR[:, rej].T, np.zeros(len(rej))]),
        np.append(np.ones(m), 0.0),
        *cap,
    ])
    relations = (lp.GE,) * len(acc) + (lp.LE,) * len(rej) + (lp.EQ,) + (lp.LE,) * len(cap)
    rhs = np.concatenate([np.zeros(len(acc)), np.full(len(rej), -eps), [1.0] * (1 + len(cap))])
    bounds = np.append(np.zeros(m), -math.inf)
    sol = lp.solve(lp.LpProblem(objective, rows, relations, rhs, bounds))
    if sol.status is lp.LpStatus.OPTIMAL and sol.value >= -_TOL:
        return Functional(np.maximum(sol.x[:m], 0.0)), set()
    evidence = sol.certificate
    if sol.y is not None and sol.y @ rhs < -_TOL - lp._CHECK_TOL:  # weak duality: margin <= b . y
        evidence = sol.y
    # Rows follow ``active``: accepted constraints, then rejected ones.
    return None, set() if evidence is None else {c for c, v in zip(active, evidence) if v == 0.0}


def rho(ell: Functional, u: Utility, f: Gamble) -> float:
    """Risk functional: belief weights applied to the utility transform of ``f``."""
    return float(np.dot(ell.weights, transform(u, f)))


def check_ordering_invariance(ell: Functional, c: float, u: Utility, fs) -> bool:
    """True iff scaling the weights by c > 0 preserves acceptance signs and ranking."""
    if not c > 0:
        raise ValueError(f"scale must be positive, got {c!r}")
    fs = list(fs)
    if not fs:
        raise ValueError("need at least one gamble")
    U = np.column_stack([transform(u, f) for f in fs])
    base, scaled = ell.weights @ U, (c * ell.weights) @ U
    return bool(
        np.array_equal(np.sign(base), np.sign(scaled))
        and np.array_equal(np.sign(base[:, None] - base), np.sign(scaled[:, None] - scaled))
    )


def check_transform_invariance(u: Utility, phi, fs) -> bool:
    """True iff acceptance signs under pointwise thresholds agree for u and phi(u).

    ``phi`` must be strictly increasing with phi(0) = 0 on the evaluated
    range; violations of the precondition raise ValueError.
    """
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


@dataclass(frozen=True)
class Finding:
    """One coherence violation, renderable as an audit report line."""

    axiom: str
    detail: str

    def __str__(self) -> str:
        return f"{self.axiom} VIOLATION: {self.detail}"


def _fmt_vec(v) -> str:
    return "[" + ", ".join(f"{x:.6g}" for x in np.asarray(v)) + "]"


def audit(a: AssessmentSet) -> tuple[Finding, ...]:
    """Run the executable F1-F3 checks and collect findings (empty when coherent)."""
    findings: list[Finding] = []
    loss = check_partial_loss(a)
    if not loss.avoids:
        findings.append(
            Finding(
                "F1",
                f"witness lambda={_fmt_vec(loss.witness)} "
                f"combination={_fmt_vec(loss.combination)}",
            )
        )
    flagged: set[int] = set()
    for j, g in enumerate(a.rejected):
        for i, f in enumerate(a.accepted):
            if dominates(g, f):
                flagged.add(j)
                findings.append(
                    Finding("F2", f"rejected[{j}] dominates accepted[{i}]")
                )
    for j, g in enumerate(a.rejected):
        if j in flagged:
            continue
        decision = accept_decision(a, g)
        if decision.accepted:
            findings.append(
                Finding(
                    "F3",
                    f"rejected[{j}] lies in the accepted cone, "
                    f"witness lambda={_fmt_vec(decision.witness)}",
                )
            )
    return tuple(findings)


def cross_check_functional(
    a: AssessmentSet, ell: Functional, candidates=(), tol: float = _TOL
) -> bool:
    """Audit that generator-accepted gambles score rho >= 0 under ``ell``.

    Checks every accepted generator, plus any candidate gambles that the
    natural extension accepts.
    """
    if (ell.weights @ a.transformed_generators() < -tol).any():
        return False
    for g in candidates:
        if accepts(a, g) and rho(ell, a.utility, g) < -tol:
            return False
    return True
