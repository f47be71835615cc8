import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from desirables import (
    AssessmentSet,
    DomainError,
    Functional,
    Gamble,
    Infeasible,
    Linear,
    LogShift,
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
    cut_problem_check,
    farkas_check,
    farkas_verdict,
    fit_feasible_w1,
    greedy_conflict,
    grid_witness,
    inline_accept_check,
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


@contextmanager
def _recorded_solves():
    """Log (problem, solution, raw evidence) per ``lp.solve``.

    The raw evidence is the vector the kernel checked before deciding whether
    to return it: the duals, or the Farkas certificate (the check sees -y).
    """
    log = []
    real_solve, real_check = lp.solve, lp._dual_feasible

    def check(p, y, c, tol):
        log[-1][2] = np.array(y)
        return real_check(p, y, c, tol)

    def solve(p):
        entry = [p, None, None]
        log.append(entry)
        entry[1] = sol = real_solve(p)
        if sol.status is lp.LpStatus.INFEASIBLE:
            entry[2] = -entry[2]
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "solve", solve)
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
    """Solve the full fit LP and each single-deletion subset; compare evidence both ways."""
    UA, UR = aset.transformed_generators(), aset.transformed_rejected()
    labels = [("accepted", i) for i in range(UA.shape[1])]
    labels += [("rejected", j) for j in range(UR.shape[1])]
    statuses = []
    with _recorded_solves() as log:
        for active in [labels] + [[c for c in labels if c != d] for d in labels]:
            result, droppable = coherence._fit_lp(aset.space.m, UA, UR, active, eps)
            problem, sol, raw = log[-1]
            if result is not None:
                continue
            statuses.append(sol.status)
            if sol.status is lp.LpStatus.INFEASIBLE:
                proven = farkas_check(problem, raw)
                assert (sol.certificate is not None) == proven
            else:
                proven = cut_problem_check(problem, raw)
                bound = None if sol.y is None else sol.y @ problem.rhs
                assert (bound is not None and bound < -1e-9 - 1e-7) == proven
            assert droppable == ({c for c, v in zip(active, raw) if v == 0.0} if proven else set())
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
    assert set(statuses) == {lp.LpStatus.OPTIMAL, lp.LpStatus.INFEASIBLE}


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
    infeasible = [sol for _, sol, _ in log if sol.status is lp.LpStatus.INFEASIBLE]
    assert len(infeasible) == len(wrong)
    assert all(sol.certificate is None for sol in infeasible)
    if any(g.rewards.min() >= 0 for g in aset.rejected):  # the full LP is infeasible
        assert wrong
    assert isinstance(result, Infeasible)
    assert result.conflict == expected


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_feasible_sets())
def test_fit_constraints_rows_hold_at_the_fitted_weights(aset):
    rows = fit_constraints(aset)
    m, n, r = aset.space.m, len(aset.accepted), len(aset.rejected)
    assert len(rows) == n + r + 1 + m
    result = fit_functional(aset)
    assert isinstance(result, Functional)
    for coeffs, rel, rhs in rows:
        lhs = float(np.dot(coeffs, result.weights))
        assert {">=": lhs >= rhs - 1e-9, "<=": lhs <= rhs + 1e-9, "=": abs(lhs - rhs) <= 1e-9}[rel]


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
