import json
import math
import re
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from desirables import (
    AssessmentSet,
    DomainError,
    Functional,
    Gamble,
    Infeasible,
    Linear,
    LogShift,
    NumericalInstability,
    PowerDiscounted,
    SpaceMismatch,
    Sqrt,
    StateSpace,
    accept_decision,
    accepts,
    audit,
    avoids_partial_loss,
    check_ordering_invariance,
    check_partial_loss,
    check_transform_invariance,
    cross_check_functional,
    dominates,
    fit_constraints,
    fit_functional,
    rho,
    transform,
    u_convex_combine,
)
from desirables import coherence, lp

from helpers import random_assessment, random_gamble, random_query, utility_zoo
from oracles import (
    audit_by_dominates,
    basis_gives_x,
    cut_problem_check,
    farkas_check,
    farkas_verdict,
    fit_feasible_w1,
    greedy_conflict,
    grid_witness,
    inline_accept_check,
    unshifted_fit_lp,
    unshifted_margin_lp,
)

S2 = StateSpace(("s1", "s2"))


def G(*rewards, w=None):
    return Gamble(S2, list(rewards), wealth_floor=w)


def linear_set(accepted, rejected=()):
    return AssessmentSet(S2, Linear(), tuple(accepted), tuple(rejected))


def test_empty_set_accepts_nonnegative():
    empty = linear_set([])
    assert accepts(empty, G(0.5, 0.0))
    assert accepts(empty, G(0.0, 0.0))
    assert not accepts(empty, G(-0.1, 5.0))


def test_accepts_with_scaling_witness():
    aset = linear_set([G(1, -1)])
    decision = accept_decision(aset, G(2, -2))
    assert decision.accepted
    # lam = 2 witnesses; confirm independently on the lambda grid.
    U, c = aset.transformed_generators(), transform(Linear(), G(2, -2))
    assert grid_witness(U, c) is not None
    assert np.all(U @ decision.witness <= c + 1e-8)


def test_accepts_negative_example():
    # No lam >= 0 gives (-1, 0.5) >= (lam, -lam): first component forces lam <= -1.
    aset = linear_set([G(1, -1)])
    decision = accept_decision(aset, G(-1, 0.5))
    assert not decision.accepted
    U, c = aset.transformed_generators(), transform(Linear(), G(-1, 0.5))
    assert grid_witness(U, c, slack=np.zeros(2)) is None
    y = decision.certificate
    assert y is not None
    assert y.min() >= -1e-9 and np.all(U.T @ y >= -1e-9) and float(c @ y) < 0


def test_reject_without_generators_certifies_from_duals():
    # With no generators the margin LP's duals single out the worst state.
    decision = accept_decision(linear_set([]), G(-0.1, 5.0))
    assert not decision.accepted
    assert decision.margin == pytest.approx(-0.1, abs=1e-12)
    assert decision.certificate.tolist() == [1.0, 0.0]
    assert not decision.certificate.flags.writeable


def test_space_mismatch_rejected():
    with pytest.raises(SpaceMismatch):
        accepts(linear_set([G(1, 0)]), Gamble(StateSpace(("a", "b")), [1, 0]))


def test_functionals_with_another_weight_count_are_a_space_mismatch():
    three = Functional([1.0, 1.0, 1.0])
    message = "functional has 3 weights for 2 states"
    with pytest.raises(SpaceMismatch, match=message):
        rho(three, Linear(), G(1, 0))
    with pytest.raises(SpaceMismatch, match=message):
        check_ordering_invariance(three, 2.0, Linear(), [G(1, 0), G(0, 1)])
    with pytest.raises(SpaceMismatch, match=message):
        cross_check_functional(linear_set([G(1, 0)]), three)


def test_avoids_partial_loss_line_pair():
    assert avoids_partial_loss(linear_set([G(1, -1), G(-1, 1)]))


def test_constructor_rejects_sure_loss_generator():
    with pytest.raises(ValueError):
        linear_set([G(-1, -2)])


def test_transformed_generators_cached_read_only_and_lazy():
    aset = linear_set([G(1, -1), G(0.5, 2)])
    U = aset.transformed_generators()
    assert aset.transformed_generators() is U and not U.flags.writeable
    # An out-of-domain generator is accepted at construction and reported at the query.
    outside = AssessmentSet(S2, Sqrt(), (G(1.0, -0.5),))
    with pytest.raises(DomainError):
        accepts(outside, G(1.0, 1.0))


def test_transformed_rejected_cached_read_only_and_lazy():
    aset = AssessmentSet(S2, LogShift(), (G(1, -0.5),), (G(-0.5, -0.25), G(2, -0.75)))
    UR = aset.transformed_rejected()
    assert aset.transformed_rejected() is UR and not UR.flags.writeable
    assert UR.shape == (2, 2)
    assert np.array_equal(UR[:, 1], transform(LogShift(), G(2, -0.75)))
    assert linear_set([G(1, 0)]).transformed_rejected().shape == (2, 0)
    # An out-of-domain rejected gamble is accepted at construction and reported
    # when the matrix is first built, naming the state.
    outside = AssessmentSet(S2, Sqrt(), (G(1.0, 1.0),), (G(1.0, -0.5),))
    with pytest.raises(DomainError, match="^state 's2': "):
        outside.transformed_rejected()


def test_partial_loss_witness():
    report = check_partial_loss(linear_set([G(1, -2), G(-2, 1)]))
    assert not report.avoids
    # lam = (1, 1) scales to (0.5, 0.5) on the normalized simplex.
    assert report.witness == pytest.approx([0.5, 0.5], abs=1e-9)
    assert np.all(report.combination < 0)


def test_a_partial_loss_without_checked_duals_is_a_numerical_instability(monkeypatch):
    # The witness is read from the duals, so a loss whose duals failed the
    # kernel's check raises, carrying the LP; a set with no loss needs none.
    real_solve = lp.solve

    def without_duals(p):
        sol = real_solve(p)
        return lp.LpSolution(sol.status, x=sol.x, value=sol.value, basis=sol.basis)

    monkeypatch.setattr(lp, "solve", without_duals)
    message = "^partial-loss LP found a loss without checked duals$"
    with pytest.raises(NumericalInstability, match=message) as err:
        check_partial_loss(linear_set([G(1, -2), G(-2, 1)]))
    assert err.value.problem.constraints.shape == (3, 2)
    assert check_partial_loss(linear_set([G(1, -1), G(-1, 1)])).avoids


def test_fit_functional_nonnegative_generators():
    result = fit_functional(linear_set([G(1, 0), G(0, 1)]))
    assert isinstance(result, Functional)
    U = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.all(result.weights @ U >= -1e-9)


def test_fit_functional_with_rejection():
    aset = linear_set([G(2, -1)], [G(-1, 0.4)])
    result = fit_functional(aset, strict_margin=1e-3)
    assert isinstance(result, Functional)
    w = result.weights
    assert 2 * w[0] - w[1] >= -1e-9
    assert -w[0] + 0.4 * w[1] <= -1e-3 + 1e-12
    # Brute-force over the simplex grid: the LP's w1 lies in the feasible band.
    feas = fit_feasible_w1(np.array([[2.0], [-1.0]]), np.array([[-1.0], [0.4]]), 1e-3)
    assert feas.size > 0
    assert abs(w[0] - feas[np.argmin(np.abs(feas - w[0]))]) <= 1e-4


def test_fit_functional_conflict_is_irreducible():
    aset = linear_set([G(1, -1)], [G(1, -1)])
    result = fit_functional(aset)
    assert isinstance(result, Infeasible)
    assert result.conflict == (("accepted", 0), ("rejected", 0))


@st.composite
def _conflicting_sets(draw):
    """Linear-utility sets that admit no functional, in both infeasible modes of the fit LP.

    Rejected gambles are planted at a weight vector w0 (w0 . g = -delta < 0), so
    the rejection rows alone are satisfiable.  In "dominance" mode one rejected
    gamble lies above a planted accepted one, and the LP is optimal with a
    negative margin; in "infeasible" mode one rejected gamble is nonnegative
    in every state, and the LP is infeasible.
    """
    m = draw(st.integers(2, 4))
    tenths = st.integers(-20, 20).map(lambda k: k / 10)
    vec = st.lists(tenths, min_size=m, max_size=m).map(np.array)
    w0 = np.array(draw(st.lists(st.integers(1, 5), min_size=m, max_size=m)), dtype=float)
    w0 /= w0.sum()

    def planted(delta):
        v = draw(vec)
        return v - (w0 @ v + delta)

    accepted = draw(st.lists(vec.filter(lambda v: v.max() >= 0), min_size=1, max_size=6))
    deltas = draw(st.lists(st.sampled_from((0.05, 0.2, 0.5)), max_size=3))
    rejected = [planted(delta) for delta in deltas]
    if draw(st.sampled_from(("dominance", "infeasible"))) == "dominance":
        f = planted(0.6)
        assume(f.max() >= 0)
        accepted.insert(draw(st.integers(0, len(accepted))), f)
        bump = np.array(draw(st.lists(st.sampled_from((0.0, 0.1, 0.3)), min_size=m, max_size=m)))
        culprit = f + bump
    else:
        culprit = np.abs(draw(vec))
    rejected.insert(draw(st.integers(0, len(rejected))), culprit)
    return assessment_on(m, Linear(), accepted, rejected)


def assessment_on(m, u, accepted, rejected):
    """Assessment set under ``u`` from reward vectors on m states."""
    space = StateSpace(tuple(f"s{i}" for i in range(m)))
    return AssessmentSet(
        space,
        u,
        tuple(Gamble(space, g) for g in accepted),
        tuple(Gamble(space, g) for g in rejected),
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_conflicting_sets())
def test_conflict_search_matches_plain_greedy_deletion(aset):
    # Dropping zero-evidence constraints without a solve must not change the
    # conflict that solving every trial subset finds.
    result = fit_functional(aset)
    assert isinstance(result, Infeasible)
    assert result.conflict == greedy_conflict(aset)


def _relaxed_problem(base, keep):
    """The problem ``lp.solve_relaxed(base, keep)`` solves: base's problem with only the rows keep."""
    q, keep = base._tableau.problem, np.asarray(keep, dtype=bool)
    return lp.LpProblem(q.objective, q.constraints[keep], q.rhs[keep])


@contextmanager
def _recorded_solves():
    """Log [problem, solution, raw evidence, warm] per ``lp.solve`` or ``lp.solve_relaxed`` call.

    The conflict search solves its first LP, and a trial after a fallback,
    with ``lp.solve``; every other trial is warm, an ``lp.solve_relaxed`` call
    (``warm`` is True).  The raw evidence is the vector the kernel checked
    before deciding whether to return it: the duals, or the Farkas
    certificate (the check sees -y).
    """
    log = []
    real_solve, real_relaxed, real_check = lp.solve, lp.solve_relaxed, lp._dual_feasible

    def check(p, y, c, tol):
        log[-1][2] = np.array(y)
        return real_check(p, y, c, tol)

    def recorded(p, run, warm):
        entry = [p, None, None, warm]
        log.append(entry)
        entry[1] = sol = run()
        if sol.status is lp.LpStatus.INFEASIBLE:
            entry[2] = -entry[2]
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "solve", lambda p: recorded(p, lambda: real_solve(p), False))
        mp.setattr(
            lp,
            "solve_relaxed",
            lambda base, keep: recorded(
                _relaxed_problem(base, keep), lambda: real_relaxed(base, keep), True
            ),
        )
        mp.setattr(lp, "_dual_feasible", check)
        yield log


def test_accept_evidence_is_returned_exactly_when_the_inline_check_passes():
    rng = np.random.default_rng(21)
    rejected = 0
    with _recorded_solves() as log:
        for _ in range(400):
            aset = random_assessment(rng, m_max=6, n_max=8)
            g = random_query(rng, aset)
            decision = accept_decision(aset, g)
            if decision.accepted:
                continue
            rejected += 1
            U, c = aset.transformed_generators(), transform(aset.utility, g)
            proven, y = inline_accept_check(U, c, log[-1][2][: aset.space.m])
            assert (decision.certificate is not None) == proven
            if proven:
                assert np.array_equal(decision.certificate, y)
    assert rejected >= 100


def _assert_fit_evidence_matches_cut_check(aset, eps=1e-6):
    """Solve the full fit LP and each single-deletion subset; compare evidence both ways.

    The masks cover the whole row block, the row sum (and the cap row) that
    no subset drops included.  The subsets start from the full LP's tableau,
    as the conflict search's trials do, so most of them are warm.  Returns
    (status, warm) per LP with no functional.
    """
    UA, UR = aset.transformed_generators(), aset.transformed_rejected()
    fit = coherence._fit_rows(UA, UR, eps)
    full = np.ones(fit.rows.shape[0], dtype=bool)
    statuses, restart = [], None
    with _recorded_solves() as log:
        deletions = range(UA.shape[1] + UR.shape[1])
        for active in [full] + [np.arange(full.size) != d for d in deletions]:
            result, droppable, solved = coherence._fit_lp(fit, active, restart)
            restart = solved if active is full else restart
            problem, sol, raw, warm = log[-1]
            if result is not None:
                continue
            statuses.append((sol.status, warm))
            if sol.status is lp.LpStatus.INFEASIBLE:
                proven = farkas_check(problem, raw)
                assert (sol.certificate is not None) == proven
            else:
                # The margin is the shift L plus the LP's value, so L + b . y bounds it.
                proven = cut_problem_check(problem, raw, fit.shift)
                bound = None if sol.y is None else fit.shift + sol.y @ problem.rhs
                assert (bound is not None and bound < -1e-9 - 1e-7) == proven
            zero = np.zeros_like(active)
            if proven:
                zero[active] = raw == 0.0
            assert np.array_equal(droppable, zero)
    return statuses


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_conflicting_sets())
def test_fit_evidence_is_returned_exactly_when_the_cut_problem_check_passes(aset):
    # The full set admits no functional, so its LP always reaches the evidence path.
    assert _assert_fit_evidence_matches_cut_check(aset)


def test_fit_evidence_matches_cut_check_on_random_sets():
    rng = np.random.default_rng(22)
    statuses = []
    for _ in range(40):
        aset = random_assessment(rng, m_max=5, n_max=6)
        rejected = tuple(random_gamble(rng, aset.space, aset.utility) for _ in range(3))
        aset = AssessmentSet(aset.space, aset.utility, aset.accepted, rejected)
        statuses += _assert_fit_evidence_matches_cut_check(aset)
    assert {status for status, _ in statuses} == {lp.LpStatus.OPTIMAL, lp.LpStatus.INFEASIBLE}
    assert {status for status, warm in statuses if warm} == {lp.LpStatus.OPTIMAL}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_conflicting_sets())
def test_conflict_search_without_certificates_matches_greedy_deletion(aset):
    # A Farkas certificate that fails its check (here judged negated) is withheld
    # by the kernel; the search then solves every infeasible trial and must
    # still find the plain greedy conflict.
    expected = greedy_conflict(aset)
    real, wrong = lp.check_infeasibility_certificate, []

    def check_negated(p, y):
        wrong.append(True)
        return real(p, -y)

    with _recorded_solves() as log, pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "check_infeasibility_certificate", check_negated)
        result = fit_functional(aset)
    infeasible = [sol for _, sol, _, _ in log if sol.status is lp.LpStatus.INFEASIBLE]
    assert len(infeasible) == len(wrong)
    assert all(sol.certificate is None for sol in infeasible)
    if any(g.rewards.min() >= 0 for g in aset.rejected):  # the full LP is infeasible
        assert wrong
    assert isinstance(result, Infeasible)
    assert result.conflict == expected


@contextmanager
def _warm_trials_checked_cold(shift):
    """Solve every warm trial's problem cold as well; log (problem, solution, base, keep) per solve.

    A warm trial (``lp.solve_relaxed``) must have the status and the verdict
    (margin L + value >= -1e-9, L = ``shift``) of a cold ``lp.solve`` of the
    same trial problem, and its value within ``lp._CHECK_TOL``.  ``base`` and
    ``keep`` are None for a cold solve.  A warm solution's basis must give
    its x by an exact solve, as a cold one's does.
    """
    log = []
    real_solve, real_relaxed = lp.solve, lp.solve_relaxed

    def solve(p):
        sol = real_solve(p)
        log.append((p, sol, None, None))
        return sol

    def solve_relaxed(base, keep):
        p = _relaxed_problem(base, keep)
        sol, cold = real_relaxed(base, keep), real_solve(p)
        assert sol.status is cold.status
        assert _fits(sol, shift) == _fits(cold, shift)
        if sol.status is lp.LpStatus.OPTIMAL:
            assert abs(sol.value - cold.value) <= lp._CHECK_TOL
            assert basis_gives_x(p, sol)
        log.append((p, sol, base, np.asarray(keep)))
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "solve", solve)
        mp.setattr(lp, "solve_relaxed", solve_relaxed)
        yield log


def _fits(sol, shift):
    # UNBOUNDED: no accepted row is left to bound the margin, so a functional exists.
    if sol.status is lp.LpStatus.UNBOUNDED:
        return True
    return sol.status is lp.LpStatus.OPTIMAL and shift + sol.value >= -1e-9


def _search_paths(log, shift):
    """The warm-start paths one conflict search took, checking where each trial started.

    A warm trial starts from the last trial (or first LP) without a
    functional; a cold trial follows one that ended INFEASIBLE in phase 1.  A
    warm trial ends UNBOUNDED only when no row bounds the margin h.
    """
    problem_of = {id(sol): p for p, sol, _, _ in log}
    restart, fitted_from, paths = log[0][1], set(), set()
    for p, sol, base, keep in log[1:]:
        if base is None:
            assert restart.status is lp.LpStatus.INFEASIBLE
            paths.add("cold after phase 1 infeasible")
        else:
            assert base is restart
            if sol.status is lp.LpStatus.UNBOUNDED:
                assert not p.constraints[:, -1].any()
                paths.add("warm trial without an accepted row, UNBOUNDED")
            if (problem_of[id(base)].rhs[~keep] < 0).any():
                paths.add("negated row relaxed")
            if np.count_nonzero(~keep) > 1:
                paths.add("rows dropped without a solve relaxed")
            if id(base) in fitted_from:
                paths.add("saved tableau restored after a fit")
            if _fits(sol, shift):
                fitted_from.add(id(base))
        if not _fits(sol, shift):
            restart = sol
    return paths


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_conflicting_sets())
def test_warm_trials_match_cold_solves(aset):
    fit = coherence._fit_rows(aset.transformed_generators(), aset.transformed_rejected(), 1e-6)
    with _warm_trials_checked_cold(fit.shift) as log:
        result = fit_functional(aset)
    assert isinstance(result, Infeasible)
    _search_paths(log, fit.shift)


#: (path, m, accepted, rejected): small linear-utility sets whose conflict
#: search takes the named path (the smallest of 4,000 sets drawn like
#: _conflicting_sets, rewards then rounded).
WARM_START_CASES = [
    ("negated row relaxed", 2, [[-1.7, 1.6], [-0.3, 1.4]], [[0.1, -0.4], [-1.4, 1.6]]),
    ("rows dropped without a solve relaxed", 2, [[2.0, 0.3], [-0.8, 0.3]], [[-0.5, 0.6]]),
    ("saved tableau restored after a fit", 2, [[0.3, -0.8], [1.5, 2.0]], [[0.4, -0.7]]),
    ("cold after phase 1 infeasible", 2, [[-1.4, 0.9]], [[0.8, 0.0]]),
    ("warm trial without an accepted row, UNBOUNDED", 2, [[2.0, 0.3], [-0.8, 0.3]], [[-0.5, 0.6]]),
]


@pytest.mark.parametrize(
    "path, m, accepted, rejected", WARM_START_CASES, ids=[case[0] for case in WARM_START_CASES]
)
def test_warm_start_paths_match_cold_solves(path, m, accepted, rejected):
    aset = assessment_on(m, Linear(), accepted, rejected)
    fit = coherence._fit_rows(aset.transformed_generators(), aset.transformed_rejected(), 1e-6)
    with _warm_trials_checked_cold(fit.shift) as log:
        result = fit_functional(aset)
    assert isinstance(result, Infeasible)
    assert result.conflict == greedy_conflict(aset)
    assert path in _search_paths(log, fit.shift)


def _highs_fit_feasible(UA, UR, eps):
    """HiGHS: is {w >= 0, sum w = 1, w . UA >= 0, w . UR <= -eps} nonempty?"""
    linprog = pytest.importorskip("scipy.optimize").linprog
    m = UA.shape[0]
    res = linprog(
        np.zeros(m),
        A_ub=np.vstack([-UA.T, UR.T]),
        b_ub=np.concatenate([np.zeros(UA.shape[1]), np.full(UR.shape[1], -eps)]),
        A_eq=np.ones((1, m)),
        b_eq=[1.0],
        bounds=[(0, None)] * m,
        method="highs",
    )
    assert res.status in (0, 2), res.message
    return res.status == 0


def test_conflict_search_on_captured_set_returns_verified_conflict():
    # Captured from a benchmark fit set whose conflict search used to solve a
    # sub-LP on which the kernel raises NumericalInstability; the evidence of
    # the earlier solves shows that constraint droppable, so it is not solved.
    data = json.loads((Path(__file__).parent / "data" / "fit_conflict_seed11.json").read_text())
    m = len(data["accepted"][0])
    aset = assessment_on(m, LogShift(), data["accepted"], data["rejected"])
    eps = data["strict_margin"]
    result = fit_functional(aset, strict_margin=eps)
    assert isinstance(result, Infeasible)
    UA = aset.transformed_generators()
    UR = np.column_stack([transform(aset.utility, g) for g in aset.rejected])

    def feasible(conflict):
        acc = [i for kind, i in conflict if kind == "accepted"]
        rej = [j for kind, j in conflict if kind == "rejected"]
        return _highs_fit_feasible(UA[:, acc], UR[:, rej], eps)

    assert not feasible(result.conflict)
    for k in range(len(result.conflict)):  # irreducible
        assert feasible(result.conflict[:k] + result.conflict[k + 1 :])


def _sampled_conflicting_set(rng):
    """A set like those of _conflicting_sets, larger, drawn from a numpy generator.

    Rewards are tenths, shifted by sums taken with math.fsum, so the set does
    not depend on the BLAS build.
    """
    m = int(rng.integers(2, 6))
    w0 = rng.integers(1, 6, m).astype(float)
    w0 /= w0.sum()

    def vec():
        return rng.integers(-20, 21, m) / 10

    def planted(delta):
        v = vec()
        return v - (math.fsum(w0 * v) + delta)

    accepted = []
    for _ in range(int(rng.integers(1, 11))):
        v = vec()
        accepted.append(v if v.max() >= 0 else np.abs(v))
    rejected = [planted(delta) for delta in rng.choice((0.05, 0.2, 0.5), int(rng.integers(0, 6)))]
    if rng.random() < 0.5:  # a rejected gamble above a planted accepted one
        f = planted(0.6)
        f[int(np.argmax(f))] = max(f.max(), 0.0)
        accepted.insert(int(rng.integers(len(accepted) + 1)), f)
        culprit = f + rng.choice((0.0, 0.1, 0.3), m)
    else:  # a nonnegative rejected gamble
        culprit = np.abs(vec())
    rejected.insert(int(rng.integers(len(rejected) + 1)), culprit)
    return assessment_on(m, Linear(), accepted, rejected)


#: LPs solved per conflict search (the first LP and every solved trial) by the
#: cold search that warm trials replaced, on fit_conflict_seed11.json and on
#: _sampled_conflicting_set(np.random.default_rng([23, i])) for i in 0..39.
COLD_SEARCH_SOLVES_SEED11 = 6
COLD_SEARCH_SOLVES = [
    4, 4, 3, 4, 5, 3, 2, 5, 2, 3, 4, 5, 4, 5, 2, 3, 3, 2, 5, 8,
    2, 4, 3, 5, 4, 3, 2, 5, 3, 4, 6, 6, 5, 7, 5, 5, 3, 6, 5, 2,
]  # fmt: skip


def test_warm_conflict_search_solves_as_many_trials_as_the_cold_search():
    # A constraint with an exact 0.0 in the last evidence is dropped without a
    # solve.  Warm duals that left 1e-16 where a cold solve has 0.0 would add
    # solves and change no conflict; the counts pin that they do not.
    data = json.loads((Path(__file__).parent / "data" / "fit_conflict_seed11.json").read_text())
    m = len(data["accepted"][0])
    captured = assessment_on(m, LogShift(), data["accepted"], data["rejected"])
    sets = [(captured, data["strict_margin"])]
    sets += [(_sampled_conflicting_set(np.random.default_rng([23, i])), 1e-6) for i in range(40)]
    counts, warm = [], 0
    for aset, eps in sets:
        with _recorded_solves() as log:
            assert isinstance(fit_functional(aset, strict_margin=eps), Infeasible)
        counts.append(len(log))
        warm += sum(entry[3] for entry in log)
    assert counts == [COLD_SEARCH_SOLVES_SEED11] + COLD_SEARCH_SOLVES
    assert warm > sum(counts) // 2


# The kernel's absolute tolerances do not scale with rewards near 1e9: the fit
# LP's solution fails its own <= row check by 2.4e-7 (ROADMAP item 1).
@pytest.mark.xfail(raises=NumericalInstability, strict=True)
def test_fit_on_rewards_near_1e9_finds_the_planted_functional():
    data = json.loads((Path(__file__).parent / "data" / "fit_scale_1e9.json").read_text())
    m = len(data["accepted"][0])
    aset = assessment_on(m, Linear(), data["accepted"], data["rejected"])
    eps = data["strict_margin"]
    UA = aset.transformed_generators()
    UR = np.array(data["rejected"]).T
    assert _highs_fit_feasible(UA, UR, eps)
    result = fit_functional(aset, strict_margin=eps)
    assert isinstance(result, Functional)
    scale = np.abs(UA).max()
    assert (result.weights @ UA >= -1e-9 * scale).all()
    assert (result.weights @ UR <= -eps + 1e-9 * scale).all()


def test_fit_functional_margin_bounds():
    with pytest.raises(ValueError):
        fit_functional(linear_set([G(1, 0)]), strict_margin=0.5)


def test_fit_constraints_describe_the_compatible_polytope():
    aset = linear_set([G(2, -1)], [G(-1, 0.4)])
    rows = fit_constraints(aset, strict_margin=1e-3)
    result = fit_functional(aset, strict_margin=1e-3)
    assert isinstance(result, Functional)
    # The fitted weights satisfy every row; a known-incompatible point fails one.
    def satisfies(w):
        for coeffs, rel, rhs in rows:
            lhs = float(np.dot(coeffs, w))
            ok = lhs >= rhs - 1e-9 if rel == ">=" else lhs <= rhs + 1e-9 if rel == "<=" else abs(lhs - rhs) <= 1e-9
            if not ok:
                return False
        return True

    assert satisfies(result.weights)
    assert not satisfies(np.array([0.0, 1.0]))  # violates the acceptance row


@st.composite
def _feasible_sets(draw):
    """Linear-utility sets planted at a weight vector w0 that every assessment admits.

    Accepted gambles have w0 . f >= 0; rejected ones w0 . g = -delta <= -0.05.
    """
    m = draw(st.integers(1, 5))
    tenths = st.integers(-20, 20).map(lambda k: k / 10)
    vec = st.lists(tenths, min_size=m, max_size=m).map(np.array)
    w0 = np.array(draw(st.lists(st.integers(1, 5), min_size=m, max_size=m)), dtype=float)
    w0 /= w0.sum()
    accepted = [v - min(w0 @ v, 0.0) for v in draw(st.lists(vec, max_size=6))]
    deltas = draw(st.lists(st.sampled_from((0.05, 0.2, 0.5)), max_size=3))
    rejected = [v - (w0 @ v + delta) for v, delta in zip(draw(st.lists(vec, min_size=3)), deltas)]
    return assessment_on(m, Linear(), accepted, rejected)


def _assert_fit_constraints_hold(aset, w, eps=1e-6):
    for coeffs, rel, rhs in fit_constraints(aset, eps):
        lhs = float(np.dot(coeffs, w))
        assert {">=": lhs >= rhs - 1e-9, "<=": lhs <= rhs + 1e-9, "=": abs(lhs - rhs) <= 1e-9}[rel]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_feasible_sets())
def test_fit_constraints_rows_hold_at_the_fitted_weights(aset):
    m, n, r = aset.space.m, len(aset.accepted), len(aset.rejected)
    assert len(fit_constraints(aset)) == n + r + 1 + m
    result = fit_functional(aset)
    assert isinstance(result, Functional)
    _assert_fit_constraints_hold(aset, result.weights)


@st.composite
def _fit_sets(draw):
    """Linear sets on 1-6 states, with or without accepted and rejected gambles."""
    m = draw(st.integers(1, 6))
    vec = st.lists(st.integers(-20, 20).map(lambda k: k / 10), min_size=m, max_size=m)
    accepted = draw(st.lists(vec.filter(lambda v: max(v) >= 0), max_size=5))
    return assessment_on(m, Linear(), accepted, draw(st.lists(vec, max_size=4)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_fit_sets())
@example(assessment_on(1, Linear(), [[2.0]], [[-1.0]]))  # m = 1: no weight left
@example(assessment_on(1, Linear(), [[2.0]], [[0.5]]))
@example(assessment_on(3, Linear(), [], [[-1.0, 0.5, 0.2]]))  # no accepted: the cap row
@example(assessment_on(3, Linear(), [[1.0, -1.0, 0.0]], []))  # no rejected
@example(assessment_on(2, Linear(), [], []))
def test_fit_lp_matches_the_unshifted_oracle(aset):
    # The eliminated, shifted LP against the free-margin LP with sum w = 1 it replaces:
    # same verdict, same LP status, the same max-min margin.
    eps = 1e-6
    UA, UR = aset.transformed_generators(), aset.transformed_rejected()
    feasible, margin = unshifted_fit_lp(UA, UR, eps)
    with _recorded_solves() as log:
        result = fit_functional(aset, eps)
    sol = log[0][1]
    assert isinstance(result, Functional) == feasible
    assert (sol.status is lp.LpStatus.OPTIMAL) == (margin is not None)
    if margin is not None:
        assert abs(coherence._fit_rows(UA, UR, eps).shift + sol.value - margin) <= 1e-9
    if feasible:
        scores = UA.T @ result.weights
        assert abs((scores.min() if scores.size else 1.0) - margin) <= 1e-9
        _assert_fit_constraints_hold(aset, result.weights, eps)


def _fit_lp_built_per_call(UA, UR, eps):
    """The first fit LP as it was built before the bounds joined the row block.

    The assessment rows of the eliminated, shifted LP, with the row sum
    w_{-k} <= 1 stacked after them and, when no gamble is accepted, the cap
    row h <= (1 - L)/2 last.
    """
    (m, n), L = UA.shape, float(UA.min(initial=0.0))
    k = int(np.argmin(UR.max(axis=1, initial=-math.inf)))
    A, R, others = UA / 2, UR / 2, np.arange(m) != k
    rows = [
        np.column_stack([(A[k] - A[others]).T, np.ones(n)]),
        np.column_stack([(R[others] - R[k]).T, np.zeros(R.shape[1])]),
        np.append(np.ones(m - 1), 0.0),
    ]
    rhs = [A[k] - L / 2, -eps / 2 - R[k], [1.0]]
    if n == 0:
        rows.append(np.append(np.zeros(m - 1), 1.0))
        rhs.append([0.5 - L / 2])
    return np.append(np.zeros(m - 1), 2.0), np.vstack(rows), np.concatenate(rhs)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_fit_sets(), st.booleans())
@example(assessment_on(3, Linear(), [], [[-1.0, 0.5, 0.2]]), False)  # no accepted: the cap row
@example(assessment_on(2, Linear(), [], []), True)
@example(assessment_on(1, Linear(), [[2.0]], [[-1.0]]), False)
def test_first_fit_lp_is_the_lp_built_per_call(aset, log_shift):
    if log_shift:  # rewards scaled into log(1 + x)'s domain
        scaled = [[0.45 * g.rewards for g in gs] for gs in (aset.accepted, aset.rejected)]
        aset = assessment_on(aset.space.m, LogShift(), *scaled)
    with _recorded_solves() as log:
        fit_functional(aset)
    first, warm = log[0][0], log[0][3]
    expected = _fit_lp_built_per_call(aset.transformed_generators(), aset.transformed_rejected(), 1e-6)
    assert not warm
    for got, want in zip((first.objective, first.constraints, first.rhs), expected):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "m, accepted, rejected, expected",
    [
        (1, [[2.0]], [[-1.0]], [1.0]),  # m = 1: no weight is left after the elimination
        (1, [[2.0]], [[0.5]], (("rejected", 0),)),
        (1, [[2.0]], [[0.0]], (("rejected", 0),)),
        (2, [], [[-1.0, 0.5], [-2.0, 0.5]], None),  # no accepted: only the cap row bounds d
        (2, [[1.0, -1.0], [-1.0, 3.0]], [], [2 / 3, 1 / 3]),  # no rejected: max-min at 2/3
    ],
)
def test_fit_edge_shapes(m, accepted, rejected, expected):
    aset = assessment_on(m, Linear(), accepted, rejected)
    result = fit_functional(aset)
    if isinstance(expected, tuple):
        assert result == Infeasible(expected)
        return
    assert isinstance(result, Functional)
    _assert_fit_constraints_hold(aset, result.weights)
    if expected is not None:
        assert result.weights == pytest.approx(expected, abs=1e-12)


def test_fit_of_the_overflow_set_does_not_overflow():
    # Utilities of +-1e308: the eliminated rows are formed from halved columns.
    aset = assessment_on(2, Linear(), [[1e308, -1e308], [-1e308, 1e308]], [[1e308, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = fit_functional(aset)
    assert result == Infeasible((("rejected", 0),))


def test_rho_examples():
    ell = Functional(np.array([0.5, 0.5]))
    assert rho(ell, LogShift(), G(1, 3)) == pytest.approx(
        0.5 * math.log(2) + 0.5 * math.log(4), rel=1e-12
    )
    assert rho(ell, LogShift(), G(0, 0)) == 0.0
    assert rho(Functional(np.array([1.0, 0.0])), Linear(), G(-2, 100)) == -2.0


def test_functional_normalizes_and_validates():
    ell = Functional(np.array([2.0, 2.0]))
    assert ell.weights == pytest.approx([0.5, 0.5])
    with pytest.raises(ValueError):
        Functional(np.array([-1.0, 2.0]))
    with pytest.raises(ValueError):
        Functional(np.array([0.0, 0.0]))


def test_functional_normalizes_weights_whose_sum_overflows():
    # 1e308 + 1e308 overflows; the weights are scaled before they are summed.
    assert Functional([1e308, 1e308]).weights.tolist() == [0.5, 0.5]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_functional_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="weights must be a nonempty finite vector"):
        Functional([bad, 1.0])


def test_ordering_invariance():
    rng = np.random.default_rng(9)
    ell = Functional(np.array([0.3, 0.7]))
    for c in (1.0, 2.0, 1e-3, 1e3):
        fs = [G(*rng.uniform(-0.9, 2, 2)) for _ in range(20)]
        assert check_ordering_invariance(ell, c, LogShift(), fs)
    # rho exactly zero stays zero under scaling.
    ell0 = Functional(np.array([0.5, 0.5]))
    assert check_ordering_invariance(ell0, 2.0, Linear(), [G(1, -1)])
    with pytest.raises(ValueError):
        check_ordering_invariance(ell, -1.0, Linear(), [G(1, 1)])


def test_transform_invariance():
    rng = np.random.default_rng(10)
    fs = [G(*rng.uniform(-0.9, 3, 2)) for _ in range(50)]
    assert check_transform_invariance(LogShift(), lambda v: 2 * v, fs)
    assert check_transform_invariance(LogShift(), lambda v: v**3, fs)
    with pytest.raises(ValueError):
        check_transform_invariance(LogShift(), lambda v: v + 1, fs)


@pytest.mark.parametrize(
    "other",
    [Gamble(StateSpace(("s1", "s2", "s3")), [1, 0, 2]), Gamble(StateSpace(("a", "b")), [1, 0])],
    ids=["three-states", "same-size-other-labels"],
)
def test_invariance_checks_reject_gambles_off_the_first_gamble_space(other):
    # The rule accept_decision applies to a query: the gambles must live on the
    # first gamble's space, whatever the number of states.
    message = f"gamble on {other.space.labels} does not live on {S2.labels}"
    fs = [G(1, -0.5), other]
    with pytest.raises(SpaceMismatch, match=re.escape(message)):
        check_ordering_invariance(Functional([0.3, 0.7]), 2.0, Linear(), fs)
    with pytest.raises(SpaceMismatch, match=re.escape(message)):
        check_transform_invariance(Linear(), lambda v: 2 * v, iter(fs))


def test_accept_witness_resubstitutes():
    rng = np.random.default_rng(11)
    for _ in range(100):
        aset = random_assessment(rng, m_max=3, n_max=3)
        g = random_query(rng, aset)
        decision = accept_decision(aset, g)
        if decision.accepted:
            U = aset.transformed_generators()
            c = transform(aset.utility, g)
            assert np.all(U @ decision.witness <= c + 1e-8)


def test_oracle_equivalence_small_instances():
    # accepts() against the grid/vertex oracle on m <= 3, <= 3 generators.
    rng = np.random.default_rng(12)
    grid_checked = 0
    for _ in range(120):
        aset = random_assessment(rng, m_max=3, n_max=3)
        g = random_query(rng, aset)
        decision = accept_decision(aset, g)
        U = aset.transformed_generators()
        c = transform(aset.utility, g)
        feasible, y = farkas_verdict(U, c)
        assert feasible == decision.accepted
        if decision.accepted:
            if grid_checked < 12 and np.all(decision.witness <= 10.0):
                assert grid_witness(U, c) is not None
                grid_checked += 1
        else:
            # Farkas-style dual sign test on the kernel's own certificate.
            ycert = decision.certificate
            assert ycert is not None
            assert ycert.min() >= -1e-9
            if U.shape[1]:
                assert np.all(U.T @ ycert >= -1e-9)
            assert float(c @ ycert) < 0
    assert grid_checked == 12


def test_representation_consistency_recheck():
    rng = np.random.default_rng(13)
    for _ in range(60):
        aset = random_assessment(rng, m_max=3, n_max=3)
        rejected = []
        g = random_gamble(rng, aset.space, aset.utility)
        if not accepts(aset, g):
            rejected.append(g)
        full = AssessmentSet(aset.space, aset.utility, aset.accepted, tuple(rejected))
        result = fit_functional(full, strict_margin=1e-6)
        if isinstance(result, Infeasible):
            continue
        for f in full.accepted:
            assert rho(result, full.utility, f) >= -1e-9
        for r in full.rejected:
            assert rho(result, full.utility, r) <= -1e-6 + 1e-9
        assert cross_check_functional(full, result)


def test_a_fitted_functional_applies_only_on_its_own_space():
    updown = StateSpace(("up", "down"))
    a = AssessmentSet(updown, Linear(), (Gamble(updown, [1, -1]),))
    ell = fit_functional(a)
    assert ell.space == updown and rho(ell, Linear(), Gamble(updown, [2, 1])) > 0
    other = Gamble(StateSpace(("x", "y")), [2, 1])
    message = "functional fitted on ('up', 'down') applied on ('x', 'y')"
    with pytest.raises(SpaceMismatch, match=re.escape(message)):
        rho(ell, Linear(), other)
    with pytest.raises(SpaceMismatch, match=re.escape(message)):
        check_ordering_invariance(ell, 2.0, Linear(), [other])
    with pytest.raises(SpaceMismatch, match=re.escape(message)):
        cross_check_functional(AssessmentSet(other.space, Linear(), (other,)), ell)
    # A hand-built functional checks the number of states only, and equality
    # compares the weights alone.
    hand = Functional(ell.weights)
    assert hand.space is None and hand == ell
    assert rho(hand, Linear(), other) == rho(ell, Linear(), Gamble(updown, [2, 1]))


def test_cross_check_functional_audits_the_accepted_candidates():
    a = AssessmentSet(S2, Linear(), (G(1, -1),))
    ell = Functional([1, 1])
    assert not accepts(a, G(-1, 0.5)) and rho(ell, a.utility, G(-1, 0.5)) < 0
    assert cross_check_functional(a, ell, [G(2, -1), G(-1, 0.5)])  # a rejected one is skipped
    near = G(1 - 5e-10, -1 - 5e-10)  # accepted within the LP's 1e-9; rho = -5e-10
    assert accepts(a, near) and rho(ell, a.utility, near) < 0
    assert cross_check_functional(a, ell, [near])
    assert not cross_check_functional(a, ell, [near], tol=1e-12)
    assert not cross_check_functional(a, Functional([1, 3]), [G(2, -1)])  # a generator fails


def test_closure_under_limits():
    # f_n = f + (1/n) 1 with rho(f_n) >= 0 throughout; the limit stays >= -1e-9.
    cases = [
        (Linear(), Functional(np.array([0.5, 0.5])), G(1.0, -1.0)),
        (LogShift(), Functional(np.array([0.5, 0.5])), G(1.0, -0.5)),
    ]
    for u, ell, f in cases:
        assert abs(rho(ell, u, f)) <= 1e-12
        n = 1
        while n <= 10**6:
            fn = Gamble(S2, f.rewards + 1.0 / n, wealth_floor=f.wealth_floor)
            assert rho(ell, u, fn) >= 0
            n *= 10
        assert rho(ell, u, f) >= -1e-9


def test_convex_cone_law_random():
    rng = np.random.default_rng(14)
    done = 0
    while done < 60:
        aset = random_assessment(rng, m_max=3, n_max=3)
        if len(aset.accepted) < 2:
            continue
        f, g = aset.accepted[0], aset.accepted[1]
        lam, mu = rng.uniform(0, 1.5, 2)
        try:
            h = u_convex_combine(aset.utility, f, g, float(lam), float(mu))
        except Exception:
            continue
        assert accepts(aset, h)
        done += 1


def test_upward_closure_random():
    rng = np.random.default_rng(15)
    for _ in range(60):
        aset = random_assessment(rng, m_max=3, n_max=3)
        g = random_query(rng, aset)
        if not accepts(aset, g):
            continue
        bump = rng.uniform(0, 1, size=aset.space.m)
        better = Gamble(aset.space, g.rewards + bump, wealth_floor=g.wealth_floor)
        assert dominates(better, g)
        assert accepts(aset, better)


def test_audit_reports_expected_findings():
    clean = linear_set([G(1, -1), G(-1, 1)])
    assert audit(clean) == ()

    f1 = audit(linear_set([G(1, -2), G(-2, 1)]))
    assert any(x.axiom == "F1" for x in f1)
    assert str(f1[0]).startswith("F1 VIOLATION: witness lambda=[")

    f2 = audit(linear_set([G(1, 0)], [G(2, 1)]))
    assert any(x.axiom == "F2" for x in f2)

    f3 = audit(linear_set([G(1, -1)], [G(2, -2)]))
    assert any(x.axiom == "F3" for x in f3)
    assert not any(x.axiom == "F2" for x in f3)


def test_power_discounted_acceptance_uses_wealth_shift():
    u = PowerDiscounted(0.5)
    aset = AssessmentSet(S2, u, (Gamble(S2, [1.0, -0.5], wealth_floor=2.0),))
    assert accepts(aset, Gamble(S2, [0.0, 0.0], wealth_floor=2.0))
    assert accepts(aset, Gamble(S2, [2.0, -1.0], wealth_floor=2.0)) in (True, False)


def test_result_records_compare_by_identity_and_functional_by_value():
    # Generated == on records that hold arrays would raise; these compare by identity.
    records = [
        coherence.AcceptanceDecision(True, 1.0, witness=np.array([1.0, 2.0])),
        coherence.PartialLossReport(False, 0.5, witness=np.array([1.0, 2.0])),
        lp.LpSolution(lp.LpStatus.OPTIMAL, x=np.array([1.0, 2.0]), value=1.0),
    ]
    for record in records:
        twin = type(record)(**vars(record))
        assert record == record and record != twin
        assert len({record, twin}) == 2  # hashed by identity
    assert Functional([1.0, 1.0]) == Functional([2.0, 2.0])
    with pytest.raises(TypeError, match="unhashable type: 'Functional'"):
        hash(Functional([1.0, 1.0]))


def _linear_query(accepted, query):
    """(assessment set, query gamble) under linear utility, from reward lists."""
    aset = assessment_on(len(query), Linear(), accepted, [])
    return aset, Gamble(aset.space, query)


@st.composite
def _margin_queries(draw):
    """Linear sets of up to 6 generators, queried above the cap, below 0, mixed, or in the cone."""
    m = draw(st.integers(1, 5))
    tenths = st.integers(-20, 20).map(lambda k: k / 10)
    vec = st.lists(tenths, min_size=m, max_size=m)
    accepted = [f for f in draw(st.lists(vec, max_size=6)) if max(f) >= 0]
    kind = draw(st.sampled_from(("above_cap", "negative", "mixed", "cone")))
    if kind == "cone" and accepted:  # a multiple of a generator: in the cone, often on its boundary
        f = draw(st.sampled_from(accepted))
        query = [draw(st.sampled_from((1, 2, 3))) * x for x in f]
    else:
        entries = {"above_cap": st.integers(11, 30), "negative": st.integers(-20, -1)}
        query = draw(st.lists(entries.get(kind, st.integers(-20, 20)), min_size=m, max_size=m))
        query = [k / 10 for k in query]
    return _linear_query(accepted, query)


def _highs_margin(U, c):
    """HiGHS: max s s.t. U lam + s <= c, s <= 1, lam >= 0, s free."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    m, n = U.shape
    cap = np.append(np.zeros(n), 1.0)
    res = linprog(
        -cap,
        A_ub=np.vstack([np.column_stack([U, np.ones(m)]), cap]),
        b_ub=np.append(c, 1.0),
        bounds=[(0, None)] * n + [(None, None)],
        method="highs",
    )
    assert res.status == 0, res.message
    return -float(res.fun)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_margin_queries())
@example(_linear_query([[1, -1]], [2, -2]))  # g = 2f on the cone's boundary: margin 0
@example(_linear_query([[1, -1], [0, 1]], [1.5, 2.5]))  # every entry above 1: the cap binds
@example(_linear_query([[1, -1]], [-1, -0.5]))  # every entry negative
@example(_linear_query([[1, -1], [-1, 2]], [-1, 0.5]))  # mixed signs
@example(_linear_query([], [0.5, -0.5]))  # no generators
@example(_linear_query([], [0.0, 3.0]))  # no generators, margin 0
def test_shifted_margin_lp_matches_the_unshifted_lp_and_highs(case):
    aset, g = case
    decision = accept_decision(aset, g)
    U, c = aset.transformed_generators(), transform(aset.utility, g)
    margin, _, _ = unshifted_margin_lp(U, c)
    highs, tol = _highs_margin(U, c), lp._CHECK_TOL
    assert abs(decision.margin - margin) <= tol and abs(decision.margin - highs) <= tol
    assert decision.accepted == (margin >= -1e-9) == (highs >= -1e-9)
    if decision.accepted:
        assert np.all(U @ decision.witness + decision.margin <= c + tol)
    else:
        y = decision.certificate
        assert y is not None
        assert y.min() >= -tol and (U.T @ y).min(initial=0.0) >= -tol and c @ y < 0


def test_margin_lp_rhs_overflow_is_a_numerical_instability():
    # c - min(c) overflows for u(g) = (1e308, -1e308); it must not reach LpProblem's ValueError.
    aset, g = _linear_query([[1, 0]], [1e308, -1e308])
    with pytest.raises(NumericalInstability, match="overflows"):
        accept_decision(aset, g)


def _fresh_margin_decision(U, c):
    """accept_decision's shifted margin LP with its matrix and objective built afresh for the query."""
    m, n = U.shape
    s0 = min(float(c.min()), 1.0)
    try:
        with np.errstate(over="raise"):
            rhs = np.append(c - s0, 1.0 - s0)
    except FloatingPointError:
        raise NumericalInstability(f"margin LP rhs u(g) - {s0:g} overflows") from None
    objective = np.append(np.zeros(n), 1.0)
    rows = np.vstack([np.column_stack([U, np.ones(m)]), objective])
    sol = lp.solve(lp.LpProblem(objective, rows, rhs))
    margin = s0 + float(sol.value)
    if margin >= -1e-9:
        return coherence.AcceptanceDecision(True, margin, witness=np.array(sol.x[:n]))
    if sol.y is None:
        return coherence.AcceptanceDecision(False, margin)
    y = sol.y[:m]
    total = float(np.abs(y).sum())
    y = y / total if total > 0 else y
    return coherence.AcceptanceDecision(False, margin, certificate=y if c @ y < 0 else None)


def _fresh_generators(aset):
    """The accepted gambles' transforms in a matrix of their own, not the set's cache."""
    U = np.zeros((aset.space.m, len(aset.accepted)))
    for i, g in enumerate(aset.accepted):
        U[:, i] = transform(aset.utility, g)
    return U


def _outcome(run, *args):
    """A decision's bytes, or the message it raised."""
    try:
        d = run(*args)
    except NumericalInstability as exc:
        return "raised", str(exc)
    vectors = [None if v is None else v.tobytes() for v in (d.witness, d.certificate)]
    return d.accepted, np.float64(d.margin).tobytes(), vectors


@st.composite
def _cached_matrix_cases(draw):
    """Linear or log-utility sets with accepted and rejected gambles, and queries on their space."""
    m = draw(st.integers(1, 5))
    u = draw(st.sampled_from((Linear(), LogShift())))
    vec = st.lists(st.integers(-5, 20).map(lambda k: k / 10), min_size=m, max_size=m)
    accepted = [f for f in draw(st.lists(vec, max_size=6)) if max(f) >= 0]
    aset = assessment_on(m, u, accepted, draw(st.lists(vec, max_size=4)))
    return aset, [Gamble(aset.space, q) for q in draw(st.lists(vec, min_size=1, max_size=4))]


def _linear_case(accepted, rejected, queries):
    aset = assessment_on(len(queries[0]), Linear(), accepted, rejected)
    return aset, [Gamble(aset.space, q) for q in queries]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_cached_matrix_cases())
@example(_linear_case([], [[1, 0], [-1, 0]], [[0.5, -0.5], [0.0, 3.0]]))  # no accepted gamble
@example(_linear_case([[1, 0]], [[1e308, -1e308]], [[1e308, -1e308], [1, 1]]))  # rhs overflow
def test_cached_margin_matrix_decisions_bit_identical_to_a_fresh_build(case):
    # Every margin LP over a set shares its cached [[U, 1], [0, 1]]; the
    # decisions of accept_decision and of audit's F3 queries must be the bytes
    # (or the overflow message) of the LP built afresh per query.
    aset, queries = case
    U = _fresh_generators(aset)
    for g in queries:
        c = transform(aset.utility, g)
        assert _outcome(accept_decision, aset, g) == _outcome(_fresh_margin_decision, U, c)

    real, queried = coherence._margin_lp, []

    def checked(rows, c):
        assert rows is aset._margin_rows() and not rows.flags.writeable
        assert _outcome(real, rows, c) == _outcome(_fresh_margin_decision, U, c)
        queried.append(c)
        return real(rows, c)

    def audit_outcome(margin_lp):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coherence, "_margin_lp", margin_lp)
            try:
                return audit(aset)
            except NumericalInstability as exc:
                return str(exc)

    findings = audit_outcome(checked)
    assert findings == audit_outcome(lambda rows, c: _fresh_margin_decision(U, c))
    assert len(queried) <= len(aset.rejected)


def test_margin_lps_share_the_sets_cached_matrix(monkeypatch):
    aset = AssessmentSet(S2, LogShift(), (G(1, -0.5), G(-0.5, 2)), (G(-0.5, -0.25),))
    problems, real_solve = [], lp.solve
    monkeypatch.setattr(lp, "solve", lambda p: problems.append(p) or real_solve(p))
    accept_decision(aset, G(0.5, 0.5))
    accept_decision(aset, G(-0.5, 0.25))
    audit(aset)  # one F3 query, whose certificate decides F1: no partial-loss LP
    rows = aset._margin_rows()
    assert not rows.flags.writeable and rows.flags.owndata
    assert [p.constraints is rows for p in problems] == [True, True, True]
    U = aset.transformed_generators()
    assert np.shares_memory(U, rows) and np.array_equal(U, rows[:-1, :-1])
    assert np.array_equal(U, _fresh_generators(aset))
    assert rows[-1].tolist() == [0.0, 0.0, 1.0] and rows[:, -1].tolist() == [1.0, 1.0, 1.0]


def test_audit_of_an_overflowing_tableau_is_a_numerical_instability():
    aset = assessment_on(2, Linear(), [[1e308, -1e308], [-1e308, 1e308]], [[1e308, 1e308]])
    with pytest.raises(NumericalInstability, match="^tableau arithmetic failed: overflow"):
        audit(aset)


@pytest.mark.parametrize("status", [lp.LpStatus.UNBOUNDED, lp.LpStatus.INFEASIBLE])
def test_an_lp_status_the_lp_rules_out_is_a_numerical_instability(monkeypatch, status):
    # Both LPs are feasible at lam = 0 and bounded, so any other status is the
    # kernel's fault: an error carrying the LP, as the kernel's own errors do.
    aset = AssessmentSet(S2, LogShift(), (G(1, -0.5), G(-0.5, 2)), (G(-0.5, -0.25),))
    problems, real_solve = [], lp.solve
    monkeypatch.setattr(lp, "solve", lambda p: problems.append(p) or lp.LpSolution(status))
    for decide, name in ((lambda: accept_decision(aset, G(0.5, 0.5)), "margin"),
                         (lambda: check_partial_loss(aset), "partial-loss")):
        with pytest.raises(NumericalInstability, match=f"^{name} LP cannot be {status}$") as err:
            decide()
        assert err.value.problem is problems[-1]
        assert real_solve(problems[-1]).status is lp.LpStatus.OPTIMAL


@st.composite
def _audit_sets(draw):
    """Linear sets over the rewards -1, 0, 1, 2, so equal rewards (weak dominance) are common."""
    m = draw(st.integers(1, 4))
    vec = st.lists(st.sampled_from((-1.0, 0.0, 1.0, 2.0)), min_size=m, max_size=m)
    accepted = [f for f in draw(st.lists(vec, max_size=5)) if max(f) >= 0]
    return assessment_on(m, Linear(), accepted, draw(st.lists(vec, max_size=4)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_audit_sets())
@example(assessment_on(2, Linear(), [[1, 0], [0, 1]], []))  # no rejected gambles
@example(assessment_on(2, Linear(), [], [[1, 0], [-1, 0]]))  # no accepted gambles
@example(assessment_on(2, Linear(), [[1, 0], [1, 0], [2, -2]], [[1, 0], [1, -1], [-1, 2]]))
def test_audit_matches_the_dominates_loop(aset):
    # F2 findings in (rejected, accepted) order; F3 skips every F2-flagged gamble.
    assert audit(aset) == audit_by_dominates(aset)


@pytest.mark.parametrize(
    "rejected, queries",
    [((), 0), ((G(1.5, -0.25),), 0), ((G(0.5, 0.5),), 1)],
    ids=["none", "F2-flagged", "in-the-cone"],
)
def test_audit_solves_the_partial_loss_lp_when_no_certificate_decides_f1(
    monkeypatch, rejected, queries
):
    # No rejection certificate: the F3 queries over the set's cached matrix, if
    # any, then the partial-loss LP: the fit rows of the accepted gambles, one
    # per generator, and the simplex row, over (w without w_k, h).
    aset = AssessmentSet(S2, LogShift(), (G(1, -0.5), G(-0.5, 2)), rejected)
    expected, problems, real_solve = audit_by_dominates(aset), [], lp.solve
    monkeypatch.setattr(lp, "solve", lambda p: problems.append(p) or real_solve(p))
    assert audit(aset) == expected
    rows = aset._margin_rows()
    assert [p.constraints is rows for p in problems] == [True] * queries + [False]
    partial_loss, U = problems[-1], aset.transformed_generators()
    fit = coherence._fit_rows(U, np.zeros((2, 0)), 1e-6)
    assert partial_loss.constraints.shape == (3, 2) and partial_loss.objective.tolist() == [0.0, 2.0]
    assert np.array_equal(partial_loss.constraints, fit.rows)
    assert partial_loss.rhs.tolist() == fit.rhs.tolist() == [(U[0, 0] - U.min()) / 2, 0.0, 1.0]


def _highs_partial_loss(U):
    """HiGHS's eps* = max eps s.t. U lam + eps <= 0, sum lam <= 1: check_partial_loss's margin, by LP duality."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    m, n = U.shape
    res = linprog(
        np.append(np.zeros(n), -1.0),
        A_ub=np.vstack([np.column_stack([U, np.ones(m)]), np.append(np.ones(n), 0.0)]),
        b_ub=np.append(np.zeros(m), 1.0),
        bounds=[(0, None)] * (n + 1),
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def _certificate_decides_f1(aset):
    """audit's rule, recomputed: some unflagged rejection has y >= 0 and min(y . U) >= -1e-9."""
    U = aset._margin_rows()[:-1, :-1]
    for g in aset.rejected:
        if any(dominates(g, f) for f in aset.accepted):
            continue
        decision = accept_decision(aset, g)
        y = decision.certificate
        if not decision.accepted and y is not None and y.min() >= 0:
            if (y @ U).min(initial=0.0) >= -1e-9:
                return True
    return False


@st.composite
def _scaled_audit_sets(draw):
    """Linear and log-shift sets on 1-4 states with 1-5 rejected gambles, rewards tenths x 1e-3 to 1e3.

    Log-shift rewards are clipped to -0.9, inside its domain x > -1.
    """
    m = draw(st.integers(1, 4))
    u = draw(st.sampled_from((Linear(), LogShift())))
    scale, floor = 10.0 ** draw(st.integers(-3, 3)), -0.9 if u.kind == "log_shift" else -math.inf
    vec = st.lists(
        st.integers(-20, 20).map(lambda k: max(k / 10 * scale, floor)), min_size=m, max_size=m
    )
    accepted = [f for f in draw(st.lists(vec, max_size=5)) if max(f) >= 0]
    return assessment_on(m, u, accepted, draw(st.lists(vec, min_size=1, max_size=5)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_scaled_audit_sets())
# min(y . U) of the certificate is about -2e-8 (1e-8 scale rounding): the LP decides F1.
@example(assessment_on(2, Linear(), [[141589126.813, -138314580.644]], [[0.927, -1.117]]))
# The certificate's first entry is -1.1e-16, so it does not decide F1.
@example(
    assessment_on(
        4,
        LogShift(),
        [[-0.9, 80, 70, 60], [90, 120, -0.9, 20], [100, 160, 80, 70], [-0.9, 0, -0.9, -0.9],
         [180, 180, -0.9, 200]],
        [[-0.9, -0.9, 160, 110]],
    )
)
def test_audit_decides_f1_from_certificates_as_the_partial_loss_lp_does(aset):
    # The certificate route gives the F1-first reference's findings, agrees with
    # HiGHS where eps* is clear of 0, and leaves the partial-loss LP to exactly
    # the sets that no certificate decides.
    real, solved = coherence.check_partial_loss, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coherence, "check_partial_loss", lambda a: solved.append(a) or real(a))
        findings = audit(aset)
    assert findings == audit_by_dominates(aset)
    eps = _highs_partial_loss(aset.transformed_generators())
    if abs(eps) > 1e-7:
        assert any(f.axiom == "F1" for f in findings) == (eps > 0)
    assert len(solved) == (not _certificate_decides_f1(aset))
    if not solved:
        assert eps <= 1e-7


def _mixed_scale_set():
    data = json.loads((Path(__file__).parent / "data" / "partial_loss_mixed_scale.json").read_text())
    return assessment_on(2, Linear(), data["accepted"], data["rejected"])


def test_audit_of_a_mixed_scale_set_reports_no_false_partial_loss():
    # The partial-loss LP reports a false loss (see the xfail below); HiGHS
    # finds eps* = 0, and rejected[1]'s certificate shows that F1 holds.
    aset = _mixed_scale_set()
    assert audit(aset) == (coherence.Finding("F2", "rejected[0] dominates accepted[2]"),)
    assert _highs_partial_loss(aset.transformed_generators()) <= 1e-7


# The kernel's absolute tolerances accept an optimum 3.1e-7 below the true
# t* = 0 against generators near 1e6, so the LP reports eps = 3.1e-7, with a
# witness whose combination is not negative in every state (ROADMAP item 1).
@pytest.mark.xfail(raises=AssertionError, strict=True)
def test_partial_loss_lp_on_a_mixed_scale_set_finds_no_loss():
    assert check_partial_loss(_mixed_scale_set()).avoids


def test_audit_of_a_planted_64_by_255_set_solves_only_its_f3_lps(monkeypatch):
    # 255 generators on a planted functional w, so no partial loss; one
    # rejected gamble inside the cone (an F3 finding) and one outside it
    # (w . c < 0), whose certificate decides F1.  Two LPs, both F3 queries.
    m, n = 64, 255
    rng = np.random.default_rng([m, n, 1])
    w, accepted = _planted_generators(rng, m, n)
    U = np.column_stack(accepted)
    lam = rng.exponential(1.0, n) * (rng.random(n) < 0.1)
    inside, outside = U @ lam + rng.uniform(0.0, 0.1, m), rng.uniform(-1.0, 1.0, m)
    outside -= w @ outside + 0.01
    aset = assessment_on(m, Linear(), accepted, [inside, outside])
    problems, real_solve = [], lp.solve
    monkeypatch.setattr(lp, "solve", lambda p: problems.append(p) or real_solve(p))
    findings = audit(aset)
    assert [p.constraints is aset._margin_rows() for p in problems] == [True, True]
    assert [f.axiom for f in findings] == ["F3"] and findings[0].detail.startswith("rejected[0] ")
    assert _highs_partial_loss(U) <= 1e-7
    assert _highs_margin(U, inside) >= -1e-9 > _highs_margin(U, outside)


def _planted_generators(rng, m, n):
    """A random functional w on the simplex and n reward vectors with w . f >= 0 (U(-1, 1), 3 decimals)."""
    w, accepted = rng.dirichlet(np.ones(m)), []
    while len(accepted) < n:
        f = np.round(rng.uniform(-1.0, 1.0, m), 3)
        if w @ f >= 0 and f.max() >= 0:
            accepted.append(f)
    return w, accepted


def _highs_least_score(U):
    """HiGHS's t* = max over w on the simplex of min_i w . U_i, the signed form of eps* = max(0, -t*)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    m, n = U.shape
    res = linprog(
        np.append(np.zeros(m), -1.0),
        A_ub=np.column_stack([-U.T, np.ones(n)]),
        b_ub=np.zeros(n),
        A_eq=np.append(np.ones(m), 0.0)[None, :],
        b_eq=[1.0],
        bounds=[(0, None)] * m + [(None, None)],
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def _assert_partial_loss_matches_highs(aset):
    """The report's margin is HiGHS's eps*, its verdict HiGHS's wherever |t*| > 1e-6, and a loss has a witness."""
    U = aset.transformed_generators()
    report, t = check_partial_loss(aset), _highs_least_score(U)
    assert _highs_partial_loss(U) == pytest.approx(max(0.0, -t), abs=1e-9)  # LP duality
    assert abs(report.margin - max(0.0, -t)) <= 1e-7
    if abs(t) > 1e-6:
        assert report.avoids == (t > 0)
    if not report.avoids:
        lam = report.witness
        assert lam.min() >= 0 and abs(lam.sum() - 1) <= 1e-12
        assert np.array_equal(report.combination, U @ lam) and report.combination.max() < 0
    return report.avoids


def test_partial_loss_on_random_linear_sets_matches_highs():
    # 2-8 states and 1-11 generators, rewards in hundredths, a fifth of them
    # scaled by 10: the fit-row LP's eps* is HiGHS's on each, losses or not.
    rng = np.random.default_rng(31)
    verdicts = []
    for _ in range(200):
        m, n = int(rng.integers(2, 9)), int(rng.integers(1, 12))
        accepted = []
        while len(accepted) < n:
            f = np.round(rng.uniform(-1.0, 1.0, m) * (10.0 if rng.random() < 0.2 else 1.0), 2)
            if f.max() >= 0:
                accepted.append(f)
        verdicts.append(_assert_partial_loss_matches_highs(assessment_on(m, Linear(), accepted, [])))
    assert 40 <= verdicts.count(False) <= 160


@pytest.mark.parametrize("m", [64, 128, 200])
def test_partial_loss_on_planted_sets_of_255_generators_matches_highs(m):
    # 255 generators on a planted functional, so no partial loss, and the
    # same set with its last two replaced by f and -f - 0.1, whose mean loses
    # 0.05 in every state.  At 200 x 255 the zero-rhs LP that the fit rows
    # replaced raised at the kernel's 100,000-pivot cap.
    n = 255
    rng = np.random.default_rng([m, n, 31])
    _, accepted = _planted_generators(rng, m, n)
    assert _assert_partial_loss_matches_highs(assessment_on(m, Linear(), accepted, []))
    f = np.round(rng.uniform(-1.0, 1.0, m), 3)
    f[:2] = 0.5, -0.5  # f and -f - 0.1 each have a nonnegative reward
    loss = assessment_on(m, Linear(), accepted[:-2] + [f, -f - 0.1], [])
    assert not _assert_partial_loss_matches_highs(loss)
    assert check_partial_loss(loss).margin >= 0.05 - 1e-9


@pytest.mark.parametrize("m, n", [(32, 128), (64, 255), (16, 200)])
def test_natural_extension_past_63_generators_matches_highs(m, n):
    # Generators on a planted functional w (w . u(f) >= 0), so the cone has a
    # separating w; queries planted inside the cone, drawn at random, and
    # planted outside it (w . c < 0).  Verdicts and margins agree with HiGHS,
    # and every witness and certificate is checked.
    rng = np.random.default_rng([m, n])
    w, accepted = _planted_generators(rng, m, n)
    aset = assessment_on(m, Linear(), accepted, [])
    space, U, tol = aset.space, aset.transformed_generators(), lp._CHECK_TOL
    assert check_partial_loss(aset).avoids
    lam = rng.exponential(1.0, n) * (rng.random(n) < 0.1)
    queries = [U @ lam + rng.uniform(0.0, 0.1, m) for _ in range(3)]
    queries += [np.round(rng.uniform(-1.0, 1.0, m), 3) for _ in range(3)]
    queries += [q - (w @ q + 0.01) for q in rng.uniform(-1.0, 1.0, (2, m))]
    verdicts = set()
    for c in queries:
        decision = accept_decision(aset, Gamble(space, c))
        highs = _highs_margin(U, c)
        assert abs(decision.margin - highs) <= tol
        assert decision.accepted == (highs >= -1e-9)
        if decision.accepted:
            assert np.all(U @ decision.witness + decision.margin <= c + tol)
        else:
            y = decision.certificate
            assert y is not None
            assert y.min() >= -tol and (U.T @ y).min() >= -tol and c @ y < 0
        verdicts.add(decision.accepted)
    assert verdicts == {True, False}


def test_fit_on_256_states_matches_highs():
    rng = np.random.default_rng(256)
    w = rng.dirichlet(np.ones(256))
    vectors = np.round(rng.uniform(-1.0, 1.0, (40, 256)), 3)
    accepted = [v for v in vectors if w @ v >= 0][:12]
    rejected = [v - (w @ v + 0.01) for v in vectors[:6]]
    for conflict in (False, True):
        if conflict:  # a rejected gamble dominating an accepted one
            rejected[0] = accepted[0] + 0.05
        aset = assessment_on(256, Linear(), accepted, rejected)
        UA, UR = aset.transformed_generators(), aset.transformed_rejected()
        result = fit_functional(aset)
        assert isinstance(result, Functional) == (not conflict) == _highs_fit_feasible(UA, UR, 1e-6)
        if conflict:
            assert ("rejected", 0) in result.conflict
        else:
            _assert_fit_constraints_hold(aset, result.weights)
