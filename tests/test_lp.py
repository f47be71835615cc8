import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from desirables import DimensionError, NumericalInstability, lp
from desirables.lp import (
    LpProblem,
    LpStatus,
    _recheck,
    check_infeasibility_certificate,
    format_problem,
    solve,
)

from oracles import bland_solve, farkas_check, vertex_lp_optimum

INF = float("-inf")


def P(objective, rows, bounds=None):
    """LpProblem from a list of (coefficients, relation, rhs) rows."""
    coeffs, relations, rhs = zip(*rows)
    return LpProblem(objective, coeffs, relations, rhs, bounds)


def test_single_variable_box():
    sol = solve(P((1.0,), [((1.0,), "<=", 3.0)]))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x == pytest.approx([3.0], abs=1e-12)
    assert sol.value == pytest.approx(3.0, abs=1e-12)


def test_contradictory_bounds_infeasible():
    p = P((0.0,), [((1.0,), ">=", 1.0), ((1.0,), "<=", 0.0)])
    sol = solve(p)
    assert sol.status is LpStatus.INFEASIBLE
    assert check_infeasibility_certificate(p, sol.certificate)


def test_wrong_certificate_is_withheld(monkeypatch):
    # The check judges the negated vector, as it would a certificate of the wrong sign.
    real = lp.check_infeasibility_certificate
    monkeypatch.setattr(lp, "check_infeasibility_certificate", lambda p, y: real(p, -y))
    sol = solve(P((0.0,), [((1.0,), ">=", 1.0), ((1.0,), "<=", 0.0)]))
    assert sol.status is LpStatus.INFEASIBLE
    assert sol.certificate is None and sol.x is None


def test_certificate_check_matches_the_row_by_row_convention():
    # Random problems with sign patterns of y near the tolerance boundary.
    rng = np.random.default_rng(5)
    verdicts = set()
    for _ in range(400):
        p = _random_problem(rng)
        sol = solve(p)
        y = sol.certificate if sol.certificate is not None else rng.normal(size=len(p.rhs))
        for cand in (y, -y, y + rng.choice((0.0, 2e-7, -2e-7), size=y.shape)):
            verdict = check_infeasibility_certificate(p, cand)
            assert verdict == farkas_check(p, cand)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_margin_maximization_on_simplex():
    # maximize m subject to 2w1 - w2 >= m, w1 + w2 = 1, w >= 0.
    p = P(
        (0.0, 0.0, 1.0),
        [((2.0, -1.0, -1.0), ">=", 0.0), ((1.0, 1.0, 0.0), "=", 1.0)],
        (0.0, 0.0, INF),
    )
    sol = solve(p)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.value == pytest.approx(2.0, abs=1e-12)
    assert sol.x[:2] == pytest.approx([1.0, 0.0], abs=1e-12)


def test_redundant_row_is_dropped_as_a_zero_row_with_a_zero_dual(monkeypatch):
    # maximize x1 + 2 x2 s.t. x1 + x2 = 1 (stated twice), x1 <= 0.7.  The kernel
    # keeps no list of dropped rows: a dropped row is a zero row of the tableau.
    twice = P((1.0, 2.0), [((1.0, 1.0), "=", 1.0), ((1.0, 1.0), "=", 1.0), ((1.0, 0.0), "<=", 0.7)])
    once = P((1.0, 2.0), [((1.0, 1.0), "=", 1.0), ((1.0, 0.0), "<=", 0.7)])
    real, zero_rows = lp._drive_out_artificials, []

    def drive_out(tab, art):
        real(tab, art)
        zero_rows.extend(np.flatnonzero(~tab.T.any(axis=1)).tolist())

    monkeypatch.setattr(lp, "_drive_out_artificials", drive_out)
    sol = solve(twice)
    assert zero_rows == [1]
    assert sol.status is LpStatus.OPTIMAL and sol.y[1] == 0.0
    ref = solve(once)
    assert sol.x.tolist() == ref.x.tolist() and sol.value == ref.value


# Regression corpus: tiny problems spanning optimal/infeasible/unbounded,
# free variables, equalities, and negative right-hand sides.
CORPUS = [
    P((1.0,), [((1.0,), "<=", 3.0)]),
    P((0.0,), [((1.0,), ">=", 1.0), ((1.0,), "<=", 0.0)]),
    P((1.0, 1.0), [((1.0, 1.0), "<=", 4.0), ((1.0, -1.0), "<=", 2.0)]),
    P((3.0, 2.0), [((1.0, 0.0), "<=", 2.0), ((0.0, 1.0), "<=", 3.0), ((1.0, 1.0), "<=", 4.0)]),
    P((1.0, -1.0), [((1.0, 1.0), "=", 1.0)]),
    P((-1.0, -2.0), [((1.0, 1.0), ">=", 2.0), ((1.0, 0.0), "<=", 5.0), ((0.0, 1.0), "<=", 5.0)]),
    P((1.0,), [((1.0,), ">=", -3.0), ((1.0,), "<=", -1.0)], (INF,)),
    P((0.0, 1.0), [((1.0, 1.0), "<=", -1.0), ((-2.0, 1.0), "<=", 4.0)], (INF, INF)),
    P((2.0, 1.0, 0.0), [((1.0, 1.0, 1.0), "=", 6.0), ((1.0, -1.0, 0.0), ">=", 1.0), ((0.0, 0.0, 1.0), "<=", 2.0)]),
    P((1.0, 1.0), [((1.0, 0.0), ">=", 1.0), ((0.0, 1.0), ">=", 1.0), ((1.0, 1.0), "<=", 1.0)]),
    P((1.0, 2.0, 3.0), [((1.0, 1.0, 1.0), "<=", 1.0), ((1.0, 2.0, 0.0), "<=", 2.0), ((0.0, 1.0, 2.0), "<=", 2.0)]),
    P((1.0, 0.0), [((1.0, -1.0), "<=", 0.0)]),
    P((-1.0,), [((1.0,), ">=", 2.0)]),
    P((1.0, -1.0), [((1.0, 1.0), "<=", -2.0), ((1.0, 0.0), ">=", 0.0)], (INF, INF)),
]


@pytest.mark.parametrize("idx", range(len(CORPUS)))
def test_corpus_against_vertex_enumeration(idx):
    p = CORPUS[idx]
    sol = solve(p)
    rows = list(zip(p.constraints, p.relations, p.rhs))
    status, x_ref, val_ref = vertex_lp_optimum(p.objective, rows, p.lower_bounds)
    assert sol.status.value == status
    if sol.status is LpStatus.OPTIMAL:
        assert sol.value == pytest.approx(val_ref, abs=1e-9)
        for coeffs, rel, rhs in rows:
            lhs = float(np.dot(coeffs, sol.x))
            if rel == "<=":
                assert lhs <= rhs + 1e-9
            elif rel == ">=":
                assert lhs >= rhs - 1e-9
            else:
                assert lhs == pytest.approx(rhs, abs=1e-9)
        for xj, lb in zip(sol.x, p.lower_bounds):
            if lb == 0.0:
                assert xj >= -1e-9
    if sol.status is LpStatus.INFEASIBLE:
        assert check_infeasibility_certificate(p, sol.certificate)


def test_deterministic_bit_identical_solutions():
    for p in CORPUS:
        first = solve(p)
        second = solve(p)
        assert first.status == second.status
        if first.status is LpStatus.OPTIMAL:
            assert first.x.tobytes() == second.x.tobytes()
            assert first.value == second.value
        if first.status is LpStatus.INFEASIBLE:
            assert first.certificate.tobytes() == second.certificate.tobytes()


def _random_problem(rng):
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 5))
    A, relations, rhs = np.empty((m, n)), [], np.empty(m)
    for k in range(m):
        A[k] = rng.uniform(-2, 2, n)
        relations.append(("<=", ">=", "=")[int(rng.integers(3))])
        rhs[k] = rng.uniform(-3, 3)
    bounds = [0.0 if rng.random() < 0.8 else INF for _ in range(n)]
    return LpProblem(rng.uniform(-2, 2, n), A, tuple(relations), rhs, bounds)


def test_scale_invariance_of_verdicts():
    rng = np.random.default_rng(8)
    for _ in range(100):
        p = _random_problem(rng)
        scaled = LpProblem(
            p.objective, 1e3 * p.constraints, p.relations, 1e3 * p.rhs, p.lower_bounds
        )
        s1, s2 = solve(p), solve(scaled)
        assert s1.status == s2.status
        if s1.status is LpStatus.OPTIMAL:
            assert s1.value == pytest.approx(s2.value, rel=1e-7, abs=1e-7)


def test_dimension_limits():
    LpProblem([1.0] * 64, np.ones((256, 64)), ("<=",) * 256, np.ones(256))  # at the limits
    with pytest.raises(DimensionError):
        LpProblem([1.0] * 65, (), (), ())
    with pytest.raises(DimensionError):
        LpProblem((1.0,), np.ones((257, 1)), ("<=",) * 257, np.ones(257))
    with pytest.raises(DimensionError):  # a row of the wrong length
        LpProblem((1.0, 2.0), [[1.0]], ("<=",), (1.0,))
    with pytest.raises(DimensionError):  # one relation per row
        LpProblem((1.0,), [[1.0], [2.0]], ("<=",), (1.0, 2.0))
    with pytest.raises(DimensionError):  # one rhs per row
        LpProblem((1.0,), [[1.0]], ("<=",), (1.0, 2.0))


@pytest.mark.parametrize(
    "objective, rows, relations, rhs, bounds",
    [
        ((1.0,), [[1.0]], ("<",), (1.0,), None),  # unknown relation
        ((1.0,), [[float("nan")]], ("<=",), (1.0,), None),
        ((1.0,), [[math.inf]], ("<=",), (1.0,), None),
        ((1.0,), [[1.0]], ("<=",), (math.nan,), None),
        ((1.0,), [[1.0]], ("=",), (-math.inf,), None),
        ((math.nan,), [[1.0]], ("<=",), (1.0,), None),
        ((), (), (), (), None),  # no variables
        ((1.0,), (), (), (), (-2.0,)),  # lower bounds must be 0 or -inf
        ((1.0,), (), (), (), (0.0, 0.0)),  # one lower bound per variable
    ],
)
def test_problem_validation(objective, rows, relations, rhs, bounds):
    with pytest.raises(ValueError):
        LpProblem(objective, rows, relations, rhs, bounds)


def test_problem_stores_read_only_copies():
    A, b = np.ones((1, 2)), np.ones(1)
    p = LpProblem([1.0, 1.0], A, ["<="], b, [0.0, INF])
    A[0, 0] = b[0] = 5.0
    assert p.constraints.tolist() == [[1.0, 1.0]] and p.rhs.tolist() == [1.0]
    assert p.relations == ("<=",) and p.lower_bounds.tolist() == [0.0, INF]
    for arr in (p.objective, p.constraints, p.rhs, p.lower_bounds):
        assert arr.dtype == float and not arr.flags.writeable


def test_free_variable_reaches_negative_optimum():
    sol = solve(P((-1.0,), [((1.0,), ">=", -3.0)], (INF,)))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x == pytest.approx([-3.0], abs=1e-12)
    assert sol.value == pytest.approx(3.0, abs=1e-12)


def test_format_problem_mentions_rows_and_bounds():
    p = P((1.0, -1.0), [((1.0, 1.0), "<=", 4.0)], (0.0, INF))
    text = format_problem(p)
    assert "maximize" in text and "<=" in text and "free" in text


def test_kernel_error_is_one_line_and_carries_the_problem():
    p = P((1.0, 1.0), [((1.0, 1.0), "<=", 1.0), ((1.0, -1.0), ">=", 0.0)])
    with pytest.raises(NumericalInstability) as info:
        _recheck(p, np.array([2.0, 0.0]))
    assert str(info.value) == "solution violates <= row by 1.000e+00"
    assert info.value.problem is p
    assert "row 0:" in format_problem(info.value.problem)


def test_ratio_tie_goes_to_smallest_basis_index():
    # Reference kernel.  Phase 1 enters x1; rows 1 and 2 tie at ratio 3.  Row
    # 1's basic column is its artificial (index 5), row 2's is its slack
    # (index 3), so Bland's (ratio, basis index) rule pivots on row 2 and ends
    # at (3, 3); taking the lower row index would end at (0, 3).
    p = P((0.0, 0.0), [((0.0, 1.0), "=", 3.0), ((1.0, 2.0), ">=", 3.0), ((1.0, 0.0), "<=", 3.0)])
    sol = bland_solve(p)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x.tolist() == [3.0, 3.0]


def test_ratio_tie_under_dantzig_pricing_goes_to_smallest_basis_index():
    # Phase 1 enters x2, whose reduced cost -4 is the most negative (Bland's
    # rule enters x1, at -3); rows 0 and 2 tie at ratio 1/2.  Row 0's basic
    # column is its artificial (index 5), row 2's is its slack (index 4), so
    # the kernel pivots on row 2 and ends at (1/2, 1/2); taking the lower row
    # index would end at (1, 0), where the reference kernel ends.
    p = P((0.0, 0.0), [((1.0, 2.0), ">=", 1.0), ((2.0, 2.0), ">=", 2.0), ((0.0, 2.0), "<=", 1.0)])
    sol = solve(p)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x.tolist() == [0.5, 0.5]
    assert bland_solve(p).x.tolist() == [1.0, 0.0]


def test_stalling_falls_back_to_blands_rule(monkeypatch):
    # Beale's example, on which the most-negative-reduced-cost rule cycles
    # through six degenerate bases at the origin.
    p = P(
        (0.75, -20.0, 0.5, -6.0),
        [
            ((0.25, -8.0, -1.0, 9.0), "<=", 0.0),
            ((0.5, -12.0, -0.5, 3.0), "<=", 0.0),
            ((0.0, 0.0, 1.0, 0.0), "<=", 1.0),
        ],
    )
    monkeypatch.setattr(lp, "_MAX_ITER", 1000)
    sol = solve(p)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.value == pytest.approx(1.25, abs=1e-12)
    assert sol.y is not None
    monkeypatch.setattr(lp, "_STALL", 10**9)  # no fallback
    with pytest.raises(NumericalInstability, match="iteration cap exceeded"):
        solve(p)


def _pinned_problem(rng):
    """Random LP with up to 35 rows and 18 variables, built to force degenerate pivots.

    Mixes <=, >= and = rows, free variables, zero right-hand sides and repeated
    rows; most problems are planted around an integer point x0 with many rows
    tight at x0, the rest are unplanted and mostly infeasible.
    """
    n = int(rng.integers(1, 19))
    m = int(rng.integers(1, 36))
    integral = rng.random() < 0.5

    def draw(size):
        if integral:
            return rng.integers(-3, 4, size).astype(float)
        return np.round(rng.uniform(-2.0, 2.0, size), 3)

    bounds = tuple(INF if rng.random() < 0.2 else 0.0 for _ in range(n))
    planted = rng.random() < 0.7
    x0 = rng.integers(0, 3, n) * (rng.random() < 0.8)
    A, rels, b = [], [], []  # rows of the constraint matrix, relations, right-hand sides

    def add(row, rel, rhs):
        A.append(row)
        rels.append(rel)
        b.append(rhs)

    if planted and rng.random() < 0.6:  # box the variables so many are bounded
        for j in range(min(n, m)):
            e = np.eye(n)[j]
            add(e, "<=", 4.0)
            if bounds[j] == INF:
                add(e, ">=", -4.0)
    while len(A) < m:
        rel = ("<=", ">=", "=")[int(rng.integers(3))]
        if A and rng.random() < 0.15:
            src = int(rng.integers(len(A)))
            add(A[src], rels[src] if planted else rel, b[src])
            continue
        a = draw(n)
        if planted:
            slack = 0.0 if rel == "=" or rng.random() < 0.4 else float(rng.integers(1, 4))
            rhs = float(a @ x0) + (slack if rel == "<=" else -slack)
        else:
            rhs = 0.0 if rng.random() < 0.3 else float(draw(1)[0])
        add(a, rel, rhs)
    return LpProblem(draw(n), A[:m], tuple(rels[:m]), b[:m], bounds)


def _pinned_corpus():
    rng = np.random.default_rng(2024)
    return [_pinned_problem(rng) for _ in range(300)]


#: sha256 of the kernel's outputs on the pinned corpus, recorded under Dantzig
#: pricing with the Bland fallback and certificates read from the phase-1
#: reduced costs.  Any change to a pivot choice or to the arithmetic order of a
#: step changes it.  ``value`` is np.dot(objective, x), whose summation order
#: belongs to the BLAS build, so another BLAS may also change it.  BLAND_CORPUS_SHA256 is the same digest of the reference kernel,
#: recorded when it was the package's kernel.
PINNED_CORPUS_SHA256 = "f69c0a9b19130fc5c387ef3c230b204560848feb8a1bd6b86762c48e524ef222"
BLAND_CORPUS_SHA256 = "476d6d43086b811eaabc03bb1cdbe5551dfe6c1139ba26418fd7d11ca61d6c64"


def _corpus_digest(solve_fn):
    h = hashlib.sha256()
    seen = set()
    for p in _pinned_corpus():
        try:
            sol = solve_fn(p)
        except NumericalInstability as exc:  # part of the kernel's pinned behaviour
            h.update(b"error:" + str(exc).splitlines()[0].encode())
            seen.add("error")
            continue
        seen.add(sol.status)
        h.update(sol.status.value.encode())
        for arr in (sol.x, sol.certificate):
            if arr is not None:
                h.update(arr.tobytes())
        if sol.value is not None:
            h.update(np.float64(sol.value).tobytes())
    assert set(LpStatus) <= seen
    return h.hexdigest()


def test_pinned_corpus_outputs_are_bit_identical():
    assert _corpus_digest(solve) == PINNED_CORPUS_SHA256


def test_reference_kernel_reproduces_its_recorded_corpus_digest():
    assert _corpus_digest(bland_solve) == BLAND_CORPUS_SHA256


def _assert_agrees_with_reference(p):
    """Same status as the reference Bland kernel and an optimum within the scaled
    tolerance, with duals on every optimum and a checked certificate on every
    infeasible problem (x may be another optimal vertex)."""
    sol, ref = solve(p), bland_solve(p)
    assert sol.status is ref.status
    if sol.status is LpStatus.OPTIMAL:
        size = max(1.0, float(np.abs(p.objective).max()))
        assert abs(sol.value - ref.value) <= 1e-7 * size * (1.0 + abs(ref.value))
        assert sol.y is not None
    if sol.status is LpStatus.INFEASIBLE:
        assert check_infeasibility_certificate(p, sol.certificate)


def test_kernel_agrees_with_reference_on_pinned_corpus():
    for p in _pinned_corpus():
        _assert_agrees_with_reference(p)


def _highs(p):
    """Re-solve p with scipy's HiGHS: (status, optimal value or None), or None if it gives up."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    A, b, rels = p.constraints, p.rhs, np.array(p.relations)
    A_ub = np.vstack([A[rels == "<="], -A[rels == ">="]])
    b_ub = np.concatenate([b[rels == "<="], -b[rels == ">="]])
    eq = rels == "="
    # HiGHS reports status 4 (numerical difficulties) on some homogeneous
    # systems with large coefficients, with presolve on or off but not both.
    for presolve in (True, False):
        res = linprog(
            -np.array(p.objective),
            A_ub=A_ub if len(b_ub) else None,
            b_ub=b_ub if len(b_ub) else None,
            A_eq=A[eq] if eq.any() else None,
            b_eq=b[eq] if eq.any() else None,
            bounds=[(0, None) if lb == 0.0 else (None, None) for lb in p.lower_bounds],
            method="highs",
            options={"presolve": presolve},
        )
        if res.status != 4:
            status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
            return status, (-res.fun if res.status == 0 else None)
    return None


@st.composite
def _highs_sized_problems(draw):
    """Integer-pattern LPs with 10-24 rows and 8-14 variables, rows times a common scale.

    Half are planted around a nonnegative integer point so they are feasible,
    with rows tight at that point; the rest have free right-hand sides.
    """
    n = draw(st.integers(8, 14))
    m = draw(st.integers(10, 24))
    scale = draw(st.sampled_from((1.0, 0.25, 1e-3, 1e3)))
    ints = st.integers(-4, 4)
    A = np.array(draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=m, max_size=m)))
    rels = draw(st.lists(st.sampled_from(("<=", ">=", "=")), min_size=m, max_size=m))
    c = draw(st.lists(ints, min_size=n, max_size=n))
    bounds = draw(st.lists(st.sampled_from((0.0, INF)), min_size=n, max_size=n))
    if draw(st.booleans()):
        x0 = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        slack = np.array(draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)))
        sign = np.array([{"<=": 1, ">=": -1, "=": 0}[r] for r in rels])
        b = A @ x0 + sign * slack
    else:
        b = np.array(draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m)))
    return LpProblem(c, scale * A, tuple(rels), scale * b, bounds)


def _assert_duals_prove_optimum(p, sol, tol):
    """y >= 0 on <= rows, <= 0 on >= rows; A^T y >= c (= c on free variables); b . y = value."""
    y = sol.y
    assert y is not None
    assert y.shape == (len(p.constraints),) and not y.flags.writeable
    rels = np.array(p.relations)
    assert y[rels == "<="].min(initial=0.0) >= -tol
    assert y[rels == ">="].max(initial=0.0) <= tol
    gap = y @ p.constraints - p.objective
    free = p.lower_bounds == INF
    assert gap[~free].min(initial=0.0) >= -tol
    assert np.abs(gap[free]).max(initial=0.0) <= tol
    assert float(y @ p.rhs) == pytest.approx(sol.value, abs=tol)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_highs_sized_problems())
def test_differential_against_highs(p):
    sol = solve(p)
    if sol.status is LpStatus.INFEASIBLE:
        assert check_infeasibility_certificate(p, sol.certificate)
    size = max(1.0, max(abs(v) for v in p.objective))
    if sol.status is LpStatus.OPTIMAL:
        _assert_duals_prove_optimum(p, sol, 1e-7 * size * (1.0 + abs(sol.value)))
    verdict = _highs(p)
    assume(verdict is not None)
    status, value = verdict
    assert sol.status.value == status
    if sol.status is LpStatus.OPTIMAL:
        assert sol.value == pytest.approx(value, abs=1e-7 * size * (1.0 + abs(value)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_highs_sized_problems())
def test_kernel_agrees_with_reference_on_highs_sized_problems(p):
    _assert_agrees_with_reference(p)


def test_conflict_search_lp_reaches_verified_optimum():
    # Captured at full precision from a fit_functional conflict search, where
    # the reference kernel's optimum misses a <= row by 6.2e-6 and the recheck
    # raises.
    data = json.loads((Path(__file__).parent / "data" / "lp_violates_le_row.json").read_text())
    p = P(
        data["objective"],
        [(c["coeffs"], c["rel"], c["rhs"]) for c in data["constraints"]],
        [float(b) for b in data["lower_bounds"]],
    )
    sol = solve(p)
    assert sol.status is LpStatus.OPTIMAL
    for coeffs, rel, rhs in zip(p.constraints, p.relations, p.rhs):
        lhs = float(np.dot(coeffs, sol.x))
        assert {"<=": lhs <= rhs + 1e-7, ">=": lhs >= rhs - 1e-7, "=": abs(lhs - rhs) <= 1e-7}[rel]
    assert sol.value == pytest.approx(data["highs_optimum"], abs=1e-7)
