import hashlib
import itertools
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from desirables import (
    AssessmentSet,
    DimensionError,
    Gamble,
    Linear,
    LogShift,
    NumericalInstability,
    StateSpace,
    accept_decision,
    coherence,
    lp,
)
from desirables.lp import LpProblem, LpStatus, _recheck, format_problem

from oracles import (
    GeneralLp,
    bland_solve,
    check_infeasibility_certificate,
    basis_gives_x,
    exact_basic_solution,
    exact_duals,
    farkas_check,
    recheck,
    solve_general as solve,
    to_canonical,
    vertex_lp_optimum,
)

INF = float("-inf")


def P(objective, rows, bounds=None):
    """GeneralLp from a list of (coefficients, relation, rhs) rows; ``solve`` takes it to the kernel."""
    coeffs, relations, rhs = zip(*rows)
    return GeneralLp(objective, coeffs, relations, rhs, bounds)


def test_single_variable_box():
    sol = solve(P((1.0,), [((1.0,), "<=", 3.0)]))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x == pytest.approx([3.0], abs=1e-12)
    assert sol.value == pytest.approx(3.0, abs=1e-12)


def test_problem_without_rows():
    # No row to enter the ratio test: an improving column is unbounded at once.
    assert lp.solve(LpProblem([1.0, 0.0], (), ())).status is LpStatus.UNBOUNDED
    sol = lp.solve(LpProblem([-1.0, 0.0], (), ()))
    assert sol.status is LpStatus.OPTIMAL and sol.x.tolist() == [0.0, 0.0] and sol.y.size == 0


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
    # Random problems with sign patterns of y near the tolerance boundary: the
    # kernel's check on the canonical problem, and the general-form check on
    # the problem as stated.
    rng = np.random.default_rng(5)
    verdicts = set()
    for _ in range(400):
        p = _random_problem(rng)
        q = to_canonical(p).problem
        for problem, sol, check in ((q, lp.solve(q), lp.check_infeasibility_certificate),
                                    (p, solve(p), check_infeasibility_certificate)):
            y = sol.certificate if sol.certificate is not None else rng.normal(size=len(problem.rhs))
            for cand in (y, -y, y + rng.choice((0.0, 2e-7, -2e-7), size=y.shape)):
                verdict = check(problem, cand)
                assert verdict == farkas_check(problem, cand)
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


def test_repeated_equality_drives_its_artificials_out_on_slack_or_surplus_columns(monkeypatch):
    # maximize x1 + 2 x2 s.t. x1 + x2 = 1 (stated twice), x1 <= 0.7.  The two
    # "=" rows reach the kernel as four "<=" rows; phase 1 leaves artificials
    # basic at level 0, and every row has its own slack or surplus column, so
    # a pivot on one of those takes each one's place.
    twice = P((1.0, 2.0), [((1.0, 1.0), "=", 1.0), ((1.0, 1.0), "=", 1.0), ((1.0, 0.0), "<=", 0.7)])
    once = P((1.0, 2.0), [((1.0, 1.0), "=", 1.0), ((1.0, 0.0), "<=", 0.7)])
    q = to_canonical(twice).problem
    assert q.constraints.shape == (5, 2) and (q.rhs < 0).sum() == 2
    real, driven = lp._drive_out_artificials, []

    def drive_out(tab, kept):
        rows = np.flatnonzero(tab.basis >= kept)  # rows whose basic column is an artificial
        levels = tab.T[rows, -1].tolist()
        real(tab, kept)
        driven.append((kept, levels, tab.basis[rows].tolist(), tab.T.shape[1]))

    monkeypatch.setattr(lp, "_drive_out_artificials", drive_out)
    sol = solve(twice)
    # 2 structural columns, then 5 slack or surplus columns; the artificial columns are deleted.
    (kept, levels, cols, width), = driven
    assert (kept, width) == (7, 7 + 1) and levels and set(levels) == {0.0}
    assert all(2 <= col < 7 for col in cols)
    assert sol.status is LpStatus.OPTIMAL
    _assert_duals_prove_optimum(twice, sol, 1e-7 * 2.0 * (1.0 + abs(sol.value)))
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
    return GeneralLp(rng.uniform(-2, 2, n), A, tuple(relations), rhs, bounds)


def test_scale_invariance_of_verdicts():
    rng = np.random.default_rng(8)
    for _ in range(100):
        p = _random_problem(rng)
        scaled = GeneralLp(
            p.objective, 1e3 * p.constraints, p.relations, 1e3 * p.rhs, p.lower_bounds
        )
        s1, s2 = solve(p), solve(scaled)
        assert s1.status == s2.status
        if s1.status is LpStatus.OPTIMAL:
            assert s1.value == pytest.approx(s2.value, rel=1e-7, abs=1e-7)


def test_dimension_limits():
    LpProblem([1.0] * 256, np.ones((256, 256)), np.ones(256))  # at the limit
    with pytest.raises(DimensionError, match="^257 variables exceeds the kernel limit of 256$"):
        LpProblem([1.0] * 257, (), ())
    with pytest.raises(DimensionError, match="^257 constraints exceeds the kernel limit of 256$"):
        LpProblem((1.0,), np.ones((257, 1)), np.ones(257))
    with pytest.raises(DimensionError):  # a row of the wrong length
        LpProblem((1.0, 2.0), [[1.0]], (1.0,))
    with pytest.raises(DimensionError):  # more rows than rhs entries
        LpProblem((1.0,), [[1.0], [2.0]], (1.0,))
    with pytest.raises(DimensionError):  # one rhs per row
        LpProblem((1.0,), [[1.0]], (1.0, 2.0))
    with pytest.raises(DimensionError):  # the rhs is a vector
        LpProblem((1.0,), [[1.0]], [[1.0]])


def _frozen_array(values):
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


def _readonly_view(values):
    v = np.array(values, dtype=float)[:]  # a view of a writeable array
    v.flags.writeable = False
    return v


_LP_FIELDS = {  # LpProblem's arguments, in order, as lists
    "objective": [1.0, 2.0],
    "constraints": [[1.0, 0.0], [0.0, 1.0]],
    "rhs": [3.0, 4.0],
}


@pytest.mark.parametrize("field", _LP_FIELDS)
def test_lp_problem_shares_a_read_only_float64_array_that_owns_its_data(field):
    args = [_frozen_array(values) for values in _LP_FIELDS.values()]
    k, values = list(_LP_FIELDS).index(field), _LP_FIELDS[field]
    assert getattr(LpProblem(*args), field) is args[k]
    # A shared array is still checked: shape and finiteness.
    bad = np.array(values, dtype=float)
    bad.flat[0] = math.nan
    args[k] = _frozen_array(bad)
    with pytest.raises(ValueError, match="finite"):
        LpProblem(*args)
    args[k] = _frozen_array(np.append(values, 1.0))  # finite, one entry too many
    with pytest.raises(DimensionError):
        LpProblem(*args)


@pytest.mark.parametrize("field", _LP_FIELDS)
@pytest.mark.parametrize(
    "make",
    [
        lambda v: np.array(v, dtype=float),  # writeable
        _readonly_view,
        lambda v: np.array(v, dtype=np.int64),
        lambda v: v,  # a list
    ],
    ids=["writeable", "read-only view", "int", "list"],
)
def test_lp_problem_copies_any_other_input(field, make):
    k, values = list(_LP_FIELDS).index(field), _LP_FIELDS[field]
    args = [np.array(v, dtype=float) for v in _LP_FIELDS.values()]
    passed = args[k] = make(values)
    p = LpProblem(*args)
    stored = getattr(p, field)
    assert stored is not passed and stored.dtype == np.float64
    assert not stored.flags.writeable and stored.flags.owndata
    assert np.array_equal(stored, np.array(values, dtype=float))
    # Writing to the caller's array (or to a view's writeable base) afterwards
    # changes nothing in the problem.
    for a in args:
        base = a.base if isinstance(a, np.ndarray) and a.base is not None else a
        if isinstance(base, np.ndarray) and base.flags.writeable:
            base[...] = 7
    for name, v in _LP_FIELDS.items():
        assert np.array_equal(getattr(p, name), np.array(v, dtype=float))


def _solution_bytes(sol):
    arrays = (sol.x, sol.y, sol.certificate, sol.basis)
    return sol.status, sol.value, [None if a is None else a.tobytes() for a in arrays]


def _relaxation_bases():
    """Optimal solves to relax: the 4-row LP with a negated row, and fit-sized random LPs."""
    p = LpProblem((1.0, 1.0), [[1, 0], [0, 1], [-1, -1], [1, 2]], [1.0, 2.0, -0.5, 4.0])
    yield p, list(map(np.array, itertools.product((True, False), repeat=4)))
    rng = np.random.default_rng(23)
    for m, n in [(12, 5), (36, 16)]:
        q = LpProblem(rng.uniform(0, 1, n), rng.normal(size=(m, n)), rng.uniform(0.5, 2, m))
        yield q, [rng.uniform(size=m) < 0.9 for _ in range(8)] + [np.zeros(m, dtype=bool)]


def test_solve_relaxed_restricted_problem_is_the_checked_problem_of_the_kept_rows(monkeypatch):
    # solve_relaxed builds the trial problem from rows of base's checked problem
    # without checking them again; it must be the problem a caller would build,
    # read-only, and solve to the same bytes.
    for q, keeps in _relaxation_bases():
        base = lp.solve(q)
        assert base.status is LpStatus.OPTIMAL
        for keep in keeps:
            checked = LpProblem(q.objective, q.constraints[keep], q.rhs[keep])
            restricted = lp._kept_rows(q, keep)
            assert type(restricted) is LpProblem
            for name in LpProblem._fields:
                a, b = getattr(restricted, name), getattr(checked, name)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                assert not a.flags.writeable
            assert restricted.objective is q.objective
            warm = lp.solve_relaxed(base, keep)
            if warm.status is LpStatus.OPTIMAL:
                assert warm._tableau.problem.constraints.tobytes() == checked.constraints.tobytes()
            with monkeypatch.context() as mp:
                mp.setattr(lp, "_kept_rows", lambda q, keep, checked=checked: checked)
                assert _solution_bytes(lp.solve_relaxed(base, keep)) == _solution_bytes(warm)


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
    # Relations and lower bounds belong to the general form; every other case
    # reaches the kernel's LpProblem through to_canonical.
    with pytest.raises(ValueError):
        to_canonical(GeneralLp(objective, rows, relations, rhs, bounds))


def test_problem_stores_read_only_copies():
    A, b = np.ones((1, 2)), np.ones(1)
    p = LpProblem([1.0, 1.0], A, b)
    A[0, 0] = b[0] = 5.0
    assert p.constraints.tolist() == [[1.0, 1.0]] and p.rhs.tolist() == [1.0]
    for arr in (p.objective, p.constraints, p.rhs):
        assert arr.dtype == float and not arr.flags.writeable


def test_free_variable_reaches_negative_optimum():
    sol = solve(P((-1.0,), [((1.0,), ">=", -3.0)], (INF,)))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x == pytest.approx([-3.0], abs=1e-12)
    assert sol.value == pytest.approx(3.0, abs=1e-12)


def test_format_problem_mentions_rows_and_bounds():
    # The canonical form: one "<=" row per line, x >= 0 stated once, no bounds line.
    p = to_canonical(P((1.0, -1.0), [((1.0, 1.0), "<=", 4.0), ((1.0, 0.0), "=", 1.0)], (0.0, INF))).problem
    lines = format_problem(p).splitlines()
    assert lines[0].startswith("maximize") and lines[0].endswith("over x >= 0")
    assert len(lines) == 1 + 3 and all(line.endswith(("<=  4", "<=  1", "<=  -1")) for line in lines[1:])
    assert "free" not in "\n".join(lines)


def test_kernel_error_is_one_line_and_carries_the_problem():
    p = LpProblem((1.0, 1.0), [[1.0, 1.0], [-1.0, 1.0]], [1.0, 0.0])  # x1 - x2 >= 0, negated
    with pytest.raises(NumericalInstability) as info:
        _recheck(p, np.array([2.0, 0.0]))
    assert str(info.value) == "solution violates <= row by 1.000e+00"
    assert info.value.problem is p
    assert "row 0:" in format_problem(info.value.problem)


def test_recheck_rejects_a_row_feasible_negative_x():
    p = LpProblem((1.0, 1.0), [[1.0, 1.0]], [1.0])
    with pytest.raises(NumericalInstability) as info:
        _recheck(p, np.array([0.5, -1e-3]))  # the row holds: 0.499 <= 1
    assert str(info.value) == "solution violates nonnegativity: -1.000e-03"
    assert info.value.problem is p
    _recheck(p, np.array([0.5, -0.5 * lp._CHECK_TOL]))  # within the tolerance


def test_pivot_on_a_tiny_entry_raises_and_carries_the_problem():
    p = LpProblem((1.0, 1.0), [[1e-13, 1.0], [1.0, 1.0]], [1.0, 2.0])
    tab = lp._cold_start(p)[0]
    before = tab.T.copy()
    with pytest.raises(NumericalInstability) as info:
        lp._pivot(tab, 0, 0)
    assert str(info.value) == f"pivot magnitude 1.000e-13 below {lp._PIVOT_MIN}"
    assert info.value.problem is p
    assert np.array_equal(tab.T, before) and list(tab.basis) == [2, 3]  # nothing was updated
    lp._pivot(tab, 1, 0)
    assert list(tab.basis) == [2, 0]


def test_overflowing_tableau_raises_numerical_instability():
    # max eps s.t. U lam + eps <= 0, sum lam <= 1 over the generators
    # (1e308, -1e308) and (-1e308, 1e308).
    rows = [[1e308, -1e308, 1.0], [-1e308, 1e308, 1.0], [1.0, 1.0, 0.0]]
    p = LpProblem((0.0, 0.0, 1.0), rows, [0.0, 0.0, 1.0])
    with pytest.raises(NumericalInstability, match="^tableau arithmetic failed: overflow") as info:
        lp.solve(p)
    assert info.value.problem is p


def _rank1_overflow_small():
    # maximize x1 s.t. x1 + 1e200 x2 <= 1, 1e200 x1 <= 1e200: x1 enters, row 0
    # wins the ratio tie on its basis index, and its pivot row's 1e200 times
    # row 1's 1e200 overflows.
    return LpProblem((1.0, 0.0), [[1.0, 1e200], [1e200, 0.0]], [1.0, 1e200])


def _rank1_overflow_largest():
    # 256 rows over 256 variables, every rhs negative: 256 artificials, so the
    # tableau is 257 x 769, the largest the kernel builds.  Phase 1 enters x1
    # (reduced cost -1e200), rows 0 and 1 tie at ratio 1 and row 0 (the lower
    # basis index) leaves: its 1e200 times row 1's 1e200 overflows.
    A = np.zeros((256, 256))
    A[0, :2] = -1.0, -1e200
    A[1, 0] = -1e200
    A[np.arange(2, 256), np.arange(2, 256)] = -1.0
    rhs = np.full(256, -1.0)
    rhs[1] = -1e200
    return LpProblem(np.ones(256), A, rhs)


@pytest.mark.parametrize("problem", [_rank1_overflow_small, _rank1_overflow_largest], ids=["2x2", "256x256"])
def test_overflowing_rank1_product_raises_numerical_instability(monkeypatch, problem):
    # The rank-1 product is a BLAS call: its overflow flag must reach the
    # errstate of the solve.  OpenBLAS runs a k = 1 product of 257 x 769 on the
    # calling thread, so the largest tableau raises too; a BLAS build that
    # threads it loses the flag, and this test fails.
    p, shapes, real = problem(), [], lp._pivot

    def pivot(tab, row, col):
        shapes.append(tab.T.shape)
        real(tab, row, col)

    monkeypatch.setattr(lp, "_pivot", pivot)
    with pytest.raises(NumericalInstability) as info:
        lp.solve(p)
    assert str(info.value) == "tableau arithmetic failed: overflow encountered in dot"
    assert info.value.problem is p
    m, n = p.constraints.shape
    assert shapes == [(m + 1, n + m + np.count_nonzero(p.rhs < 0) + 1)]  # the first pivot raised


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
            rhs = math.fsum(a * x0) + (slack if rel == "<=" else -slack)
        else:
            rhs = 0.0 if rng.random() < 0.3 else float(draw(1)[0])
        add(a, rel, rhs)
    return GeneralLp(draw(n), A[:m], tuple(rels[:m]), b[:m], bounds)


def _pinned_corpus():
    rng = np.random.default_rng(2024)
    return [_pinned_problem(rng) for _ in range(300)]


#: sha256 of the kernel's outputs on the pinned corpus, solved through
#: to_canonical and mapped back, recorded under Dantzig pricing with the Bland
#: fallback and certificates read from the phase-1 reduced costs.  Any change
#: to a pivot choice, to the arithmetic order of a step or to the canonical
#: form changes it.  The corpus's planted right-hand sides and the ``value``
#: of a solution are math.fsum sums of products, correctly rounded, so the
#: digest does not depend on the BLAS build or on the CPU kernel it picks.
#: BLAND_CORPUS_SHA256 is the same digest of the reference kernel, recorded
#: when it was the package's kernel; it solves the general form directly.
#: Both were re-recorded when those sums stopped being BLAS dot products.
#: PINNED_CORPUS_SHA256 was re-recorded once more when certificates began to
#: be read with + 0.0, as x is: the earlier certificates carried -0.0 entries,
#: and with + 0.0 applied to them the earlier kernel's digest equals this one's.
PINNED_CORPUS_SHA256 = "2516b6d57a0c9d333b5c7cbf2a9052e09f4c42b2b2b6a934891701ba98fd97b5"
BLAND_CORPUS_SHA256 = "ba4f0e07ade33f6ef8574982b41590c7fdbf9bef7aa7079d0c59eab890c87f95"


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


_ZERO_SUBNORMAL_HUGE = (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308)


@settings(max_examples=60, deadline=None, derandomize=True)
@example(1, 1, 0)
@example(257, 577, 1)
@given(st.integers(1, 257), st.integers(1, 577), st.integers(0, 2**32 - 1))
def test_rank1_product_bytes_equal_the_broadcast_product(rows, cols, seed):
    # _pivot's k = 1 BLAS product against the broadcast multiply it replaced,
    # on the shapes the kernel can build.  Each entry is one rounded product,
    # so only the sign of a zero may differ; entries mix signed zeros,
    # subnormals, near-overflow values (whose products overflow to inf) and
    # ordinary magnitudes.
    rng = np.random.default_rng(seed)

    def draw(size):
        ordinary = rng.standard_normal(size) * 10.0 ** rng.uniform(-8, 8, size)
        special = rng.choice(_ZERO_SUBNORMAL_HUGE, size)
        special *= np.where(rng.random(size) < 0.5, 1.0, rng.uniform(0.5, 1.0, size))
        a = np.where(rng.random(size) < 0.3, special, ordinary)
        return np.where(rng.random(size) < 0.5, -a, a)

    f, r = draw((rows, 1)), draw(cols)
    work = np.empty((rows, cols))
    with np.errstate(over="ignore", under="ignore"):
        np.dot(f, r[None], out=work)
        expected = np.multiply(f, r)
    assert (work + 0.0).tobytes() == (expected + 0.0).tobytes()


def test_pinned_corpus_rank1_products_equal_the_broadcast_product(monkeypatch):
    # At every pivot of the pinned corpus, the rank-1 product left in tab.work
    # and the updated tableau equal, up to the sign of zeros, the broadcast
    # product of the pivot column and the divided pivot row and the tableau it
    # gives.
    real, shapes = lp._pivot, []

    def pivot(tab, row, col):
        T = tab.T.copy()
        real(tab, row, col)
        pivot_row = T[row] / T[row, col]
        f = T[:, col, None].copy()
        f[row] = 0.0
        product = np.multiply(f, pivot_row)
        assert (tab.work + 0.0).tobytes() == (product + 0.0).tobytes()
        T[row] = pivot_row
        T -= product
        assert (tab.T + 0.0).tobytes() == (T + 0.0).tobytes()
        shapes.append(T.shape)

    monkeypatch.setattr(lp, "_pivot", pivot)
    for p in _pinned_corpus():
        try:
            solve(p)
        except NumericalInstability:
            pass
    assert len(shapes) > 3000 and len(set(shapes)) > 300, (len(shapes), len(set(shapes)))


def test_basis_gives_x_by_an_exact_solve_on_a_sample_of_the_pinned_corpus():
    checked = 0
    for p in _pinned_corpus()[::10]:
        q = to_canonical(p).problem
        try:
            sol = lp.solve(q)
        except NumericalInstability:
            continue
        if sol.status is not LpStatus.OPTIMAL:
            assert sol.basis is None
            continue
        assert basis_gives_x(q, sol)
        checked += 1
    assert checked >= 15


def test_final_bases_of_a_sample_of_the_pinned_corpus_have_exact_duals():
    # Every tenth pinned problem that ends OPTIMAL: its final basis, solved in
    # rational arithmetic, is dual feasible with no tolerance, and the kernel's
    # y and value round the exact ones.  In exact arithmetic the basic
    # solution z can be slightly negative (-1.33e-13 on problem 40 and
    # -7.2e-17 on problem 80, with entries up to 3; ROADMAP item 7), so z >= 0
    # is asserted within basis_gives_x's rounding of z, 1e-12 * (1 + max |z|).
    checked = []
    for idx, p in enumerate(_pinned_corpus()):
        if idx % 10:
            continue
        q = to_canonical(p).problem
        try:
            sol = lp.solve(q)
        except NumericalInstability:
            continue
        if sol.status is not LpStatus.OPTIMAL:
            continue
        _assert_basis_is_exactly_optimal(q, sol)
        checked.append(idx)
    assert len(checked) == 16


def _assert_basis_is_exactly_optimal(q, sol):
    """The final basis of ``sol``, solved in rational arithmetic, is dual
    feasible with no tolerance and primal feasible within 1e-12 (1 + max |z|),
    and the kernel's y and value round the exact ones."""
    A, c = q.constraints, q.objective
    m, n = A.shape
    basis = sol.basis.tolist()
    y = exact_duals(q, basis)
    assert min(y, default=0) >= 0
    for j in range(n):
        assert sum(y[i] * Fraction(float(A[i, j])) for i in range(m)) >= Fraction(float(c[j]))
    assert np.abs(sol.y - [float(v) for v in y]).max(initial=0.0) <= lp._CHECK_TOL
    z = exact_basic_solution(q, basis)
    value = sum(Fraction(float(c[j])) * z[j] for j in range(n))
    assert value == sum(yi * Fraction(float(b)) for yi, b in zip(y, q.rhs))
    assert abs(sol.value - float(value)) <= 1e-12 * abs(float(value))
    assert float(min(z)) >= -1e-12 * (1.0 + float(max(map(abs, z))))


def test_margin_lps_of_a_32_state_60_generator_set_have_exactly_optimal_bases(monkeypatch):
    # ROADMAP item 7, route 1, at the size of the largest accept sets: a
    # seeded log_shift set of 60 generators on 32 states, accepted under a
    # planted functional w, and 8 queries, 4 inside the cone and 4 with
    # w . u(g) <= -0.05.  Every margin LP the kernel solves is checked.
    rng = np.random.default_rng(32)
    m, n = 32, 60
    space = StateSpace(tuple(f"s{i}" for i in range(m)))
    w = rng.dirichlet(np.ones(m))

    def draw(accepted):
        while True:
            g = np.round(rng.uniform(-0.9, 2.0, m), 3)
            if (w @ np.log1p(g) >= 0) if accepted else (w @ np.log1p(g) <= -0.05):
                return g

    aset = AssessmentSet(space, LogShift(), tuple(Gamble(space, draw(True)) for _ in range(n)))
    U = aset.transformed_generators()
    queries = []
    for k in range(8):
        if k % 2:
            queries.append(draw(False))
        else:
            lam = np.zeros(n)
            picks = rng.choice(n, size=n // 5, replace=False)
            lam[picks] = rng.exponential(1.0, picks.size)
            queries.append(np.expm1(U @ lam + rng.uniform(0.01, 0.1, m)))
    solved, real = [], lp.solve

    def solve_and_keep(p):
        sol = real(p)
        solved.append((p, sol))
        return sol

    monkeypatch.setattr(lp, "solve", solve_and_keep)
    verdicts = [accept_decision(aset, Gamble(space, g)).accepted for g in queries]
    monkeypatch.undo()
    assert verdicts == [True, False] * 4
    assert len(solved) == 8
    for p, sol in solved:
        assert p.constraints.shape == (m + 1, n + 1) and sol.status is LpStatus.OPTIMAL
        _assert_basis_is_exactly_optimal(p, sol)


def test_partial_loss_lps_have_exactly_optimal_bases_and_exact_witnesses(monkeypatch):
    # ROADMAP item 7 on check_partial_loss's LP, the fit rows of the accepted
    # gambles: linear sets of 12 generators on 6 states, three on a planted
    # functional (no loss) and three whose last two generators f and -f - 0.1
    # lose 0.05 on average.  Every final basis is exactly optimal, and on a
    # loss the exact duals of the accepted rows, normalized, give U lam < 0
    # in every state in rational arithmetic.
    rng = np.random.default_rng(7)
    m, n = 6, 12
    space = StateSpace(tuple(f"s{i}" for i in range(m)))
    sets = []
    for k in range(6):
        w, accepted = rng.dirichlet(np.ones(m)), []
        while len(accepted) < n:
            f = np.round(rng.uniform(-1.0, 1.0, m), 3)
            if w @ f >= 0 and f.max() >= 0:
                accepted.append(f)
        if k % 2:
            f = np.round(rng.uniform(-1.0, 1.0, m), 3)
            f[:2] = 0.5, -0.5
            accepted[-2:] = f, -f - 0.1
        sets.append(AssessmentSet(space, Linear(), tuple(Gamble(space, f) for f in accepted)))
    solved, real = [], lp.solve
    monkeypatch.setattr(lp, "solve", lambda p: solved.append((p, real(p))) or solved[-1][1])
    reports = [coherence.check_partial_loss(a) for a in sets]
    monkeypatch.undo()
    assert [r.avoids for r in reports] == [True, False] * 3 and len(solved) == 6
    for a, report, (p, sol) in zip(sets, reports, solved):
        assert p.constraints.shape == (n + 1, m) and sol.status is LpStatus.OPTIMAL
        _assert_basis_is_exactly_optimal(p, sol)
        if report.avoids:
            continue
        y = exact_duals(p, sol.basis.tolist())[:n]
        lam = [v / sum(y) for v in y]
        U = [[Fraction(float(v)) for v in row] for row in a.transformed_generators()]
        assert min(lam) >= 0
        assert all(sum(u * l for u, l in zip(row, lam)) < 0 for row in U)
        assert np.abs(report.witness - [float(v) for v in lam]).max() <= 1e-12


@pytest.mark.parametrize("m", [8, 16])
def test_lps_of_an_infeasible_30_generator_conflict_search_have_exactly_optimal_bases(monkeypatch, m):
    # ROADMAP item 7 on the fit LPs at full size: a seeded log_shift set of 30
    # accepted gambles on m states, under a planted functional w, and 4 rejected
    # ones, the last of which dominates accepted[7], so no functional fits.
    # Its conflict search solves a cold LP, with a phase 1, and then only warm
    # trials, whose basis _phase2 renumbers into the kept rows' problem; each
    # final basis is checked against the problem it solved.
    rng = np.random.default_rng([30, m])
    n = 30
    space = StateSpace(tuple(f"s{i}" for i in range(m)))
    w = rng.dirichlet(np.ones(m))

    def draw(accepted):
        while True:
            g = np.round(rng.uniform(-0.9, 2.0, m), 3)
            if (w @ np.log1p(g) >= 0) if accepted else (w @ np.log1p(g) <= -1e-3):
                return g

    accepted = [draw(True) for _ in range(n)]
    rejected = [draw(False) for _ in range(3)] + [np.round(accepted[7] + rng.uniform(0.001, 0.1, m), 3)]
    aset = AssessmentSet(space, LogShift(), *(tuple(Gamble(space, g) for g in gs) for gs in (accepted, rejected)))
    solved, real_solve, real_relaxed = [], lp.solve, lp.solve_relaxed

    def keep(problem, sol, warm):
        solved.append((problem, sol, warm))
        return sol

    monkeypatch.setattr(lp, "solve", lambda p: keep(p, real_solve(p), False))
    monkeypatch.setattr(lp, "solve_relaxed", lambda base, k: keep(None, real_relaxed(base, k), True))
    result = coherence.fit_functional(aset)
    monkeypatch.undo()
    assert result.conflict == (("accepted", 7), ("rejected", 3))
    assert [warm for *_, warm in solved] == [False] + [True] * (len(solved) - 1) and len(solved) >= 6
    assert (solved[0][0].rhs < 0).any()  # the cold LP runs a phase 1
    for p, sol, warm in solved:
        assert sol.status is LpStatus.OPTIMAL
        q = sol._tableau.problem
        assert (warm or q is p) and q.constraints.shape[1] == m
        _assert_basis_is_exactly_optimal(q, sol)


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


def test_carried_reduced_cost_row_matches_the_final_basis(monkeypatch):
    # Row m of the tableau is the reduced-cost row, updated by every pivot.  At
    # each optimal phase it must equal cost - c_B B^-1 [D | b], recomputed from
    # the original standardized system and the final basis.  The bound is
    # relative to the largest reduced cost, which reaches 3.6e4 on the corpus.
    real, finals = lp._simplex_min, []

    def simplex_min(tab, cost):
        status = real(tab, cost)
        if status == "optimal":
            finals.append((tab.T[-1].copy(), tab.basis.copy(), cost))
        return status

    monkeypatch.setattr(lp, "_simplex_min", simplex_min)
    phases = 0
    for p in _pinned_corpus():
        finals.clear()
        q = to_canonical(p).problem
        try:
            lp.solve(q)
        except NumericalInstability:
            continue
        full = lp._cold_start(q)[0].T[:-1]
        for row, basis, cost in finals:
            # Phase 2 prices the columns left after the artificial ones are deleted.
            system = np.column_stack([full[:, : cost.size], full[:, -1]])
            prices = np.linalg.solve(system[:, basis].T, cost[basis])
            reduced = np.append(cost, 0.0) - prices @ system
            assert np.abs(row - reduced).max() <= 1e-9 * max(1.0, np.abs(reduced).max())
            phases += 1
    assert phases > 300


class _PivotRuleOracle:
    """Recompute the documented pivot rule at every ``lp._pivot``, with plain Python loops.

    Inside a phase the entering column is the most negative reduced cost below
    -_TOL (lowest index among equals), or after _STALL consecutive degenerate
    pivots the lowest index below -_TOL (Bland); the leaving row has the
    minimum ratio rhs / entry over entries above _TOL, ties to the smallest
    basis index.  Outside a phase a pivot drives a basic artificial out on the
    first column among the kept ones with an entry of magnitude above _TOL.
    """

    def __init__(self, monkeypatch):
        self.in_phase, self.degenerate = False, 0
        self.counts = dict(dantzig=0, bland=0, tied=0, drive_out=0)
        real_min, real_pivot = lp._simplex_min, lp._pivot

        def simplex_min(tab, cost):
            self.in_phase, self.degenerate = True, 0
            try:
                return real_min(tab, cost)
            finally:
                self.in_phase = False

        def pivot(tab, row, col):
            rows, basis = tab.T.tolist(), tab.basis.tolist()
            if self.in_phase:
                assert (row, col) == self.phase_pivot(rows, basis)
            else:
                kept = sum(tab.problem.constraints.shape)  # the columns before the artificials
                assert (row, col) == self.drive_out(rows, basis, row, kept)
            real_pivot(tab, row, col)

        monkeypatch.setattr(lp, "_simplex_min", simplex_min)
        monkeypatch.setattr(lp, "_pivot", pivot)

    def phase_pivot(self, rows, basis):
        m = len(basis)
        reduced = rows[m][:-1]
        improving = [j for j, d in enumerate(reduced) if d < -lp._TOL]
        assert improving  # the kernel pivots only while a reduced cost is below -_TOL
        bland, entering = self.degenerate >= lp._STALL, improving[0]
        if not bland:  # Dantzig: the most negative, the lowest index among equals
            for j in improving:
                if reduced[j] < reduced[entering]:
                    entering = j
        self.counts["bland" if bland else "dantzig"] += 1
        least, leaving, tied = math.inf, None, 0
        for i in range(m):
            if rows[i][entering] > lp._TOL:
                ratio = rows[i][-1] / rows[i][entering]
                if ratio < least:
                    least, leaving, tied = ratio, i, 1
                elif ratio == least:
                    tied += 1
                    if basis[i] < basis[leaving]:
                        leaving = i
        assert leaving is not None  # an unbounded phase returns before it pivots
        self.counts["tied"] += tied > 1
        self.degenerate = self.degenerate + 1 if rows[leaving][-1] == 0.0 else 0
        return leaving, entering

    def drive_out(self, rows, basis, row, kept):
        assert basis[row] >= kept
        self.counts["drive_out"] += 1
        return row, next(j for j in range(kept) if abs(rows[row][j]) > lp._TOL)


def _tied_margin_lps(rng, m, n, count):
    """Margin LPs over small-integer generator columns, each drawn column repeated."""
    for _ in range(count):
        base = rng.integers(-3, 4, (m, (n + 1) // 2)).astype(float)
        U = base[:, np.sort(rng.integers(0, base.shape[1], n))]
        yield U, rng.integers(-2, 4, m).astype(float)


@pytest.mark.parametrize("m, n", [(4, 8), (32, 60)])
def test_margin_lp_pivots_follow_the_documented_rule(monkeypatch, m, n):
    oracle = _PivotRuleOracle(monkeypatch)
    for U, c in _tied_margin_lps(np.random.default_rng(m), m, n, 60):
        coherence._margin_lp(np.block([[U, np.ones((m, 1))], [np.zeros(n), 1.0]]), c)
    assert oracle.counts["dantzig"] > 100 and oracle.counts["tied"] > 10


@pytest.mark.parametrize("stall", [lp._STALL, 2], ids=["stall", "stall2"])
def test_pinned_corpus_pivots_follow_the_documented_rule(monkeypatch, stall):
    # At _STALL = 2 Bland's rule takes over often, so both entering rules are checked.
    monkeypatch.setattr(lp, "_STALL", stall)
    oracle = _PivotRuleOracle(monkeypatch)
    for p in _pinned_corpus():
        try:
            solve(p)
        except NumericalInstability:
            pass
    assert oracle.counts["tied"] > 100 and oracle.counts["drive_out"] > 0
    assert stall == lp._STALL or oracle.counts["bland"] > 100


@pytest.mark.parametrize(
    "objective, rows, rhs, pivots, tie, tied_rhs",
    [
        # The second pivot's least ratios are 0.0 on row 0 (on its slack,
        # column 2) and -0.0 on row 1 (on x_0, column 0): row 1 leaves.
        ((3.0, 3.0), [[-2.0, 2.0], [2.0, 1.0], [2.0, 2.0]], (0.0, -0.0, 1.0), [(1, 0), (1, 1)], 1, (0.0, -0.0)),
        # Phase 1's least ratios are 0.5 on row 0 (on its artificial, column
        # 3) and on row 1 (on its slack, column 2): row 1 leaves, and the
        # artificial, at level 0, is driven out on column 1.
        ((0.0,), [[-2.0], [2.0]], (-1.0, 1.0), [(1, 0), (0, 1)], 0, (1.0, 1.0)),
        # The second pivot's least ratios are 1.0 on row 0 (on its slack) and
        # on row 1 (on x_0): row 1 leaves.
        ((1.0, 1.0), [[1.0, 1.0], [2.0, 1.0]], (1.0, 1.0), [(1, 0), (1, 1)], 1, (0.5, 0.5)),
    ],
    ids=["signed_zeros", "phase1_positive", "phase2_positive"],
)
def test_tied_ratios_leave_on_the_smallest_basis_index(monkeypatch, objective, rows, rhs, pivots, tie, tied_rhs):
    # Pivot ``tie`` ties two rows, whose rhs entries (the tied ratios' numerators,
    # over an entering entry of 1.0, 2.0 or 0.5) are ``tied_rhs``.  The later
    # row has the smaller basis index, so a rule that took the first least
    # ratio would pivot elsewhere; the oracle checks every pivot.
    oracle = _PivotRuleOracle(monkeypatch)
    checked, made = lp._pivot, []

    def pivot(tab, row, col):
        made.append(((row, col), tab.T[:2, -1].copy()))
        checked(tab, row, col)

    monkeypatch.setattr(lp, "_pivot", pivot)
    sol = lp.solve(LpProblem(objective, rows, rhs))
    assert sol.status is LpStatus.OPTIMAL
    assert [p for p, _ in made] == pivots and oracle.counts["tied"] == 1
    assert made[tie][1].tobytes() == np.array(tied_rhs).tobytes()  # -0.0 is not 0.0 here


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
    return GeneralLp(c, scale * A, tuple(rels), scale * b, bounds)


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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_highs_sized_problems())
def test_to_canonical_maps_solutions_back_to_the_general_form(p):
    # The vectors mapped back obey the general form's rules row by row and
    # variable by variable, and the status is the general-form kernels' and HiGHS's.
    canonical = to_canonical(p)
    q = canonical.problem
    eq, free = np.array(p.relations) == "=", p.lower_bounds == INF
    assert q.constraints.shape == (len(p.rhs) + eq.sum(), len(p.objective) + free.sum())
    sol = canonical.solution(lp.solve(q))
    assert sol.status is bland_solve(p).status
    verdict = _highs(p)
    assert verdict is None or sol.status.value == verdict[0]
    if sol.status is LpStatus.OPTIMAL:
        assert sol.x.shape == p.objective.shape
        recheck(p, sol.x)  # raises on a violated row or bound
        assert sol.value == math.fsum(p.objective * sol.x)
        size = max(1.0, float(np.abs(p.objective).max()))
        _assert_duals_prove_optimum(p, sol, 1e-7 * size * (1.0 + abs(sol.value)))
    if sol.status is LpStatus.INFEASIBLE:
        assert check_infeasibility_certificate(p, sol.certificate)
        assert farkas_check(p, sol.certificate)


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


def test_solve_relaxed_matches_a_cold_solve_of_the_kept_rows():
    # maximize x1 + x2 s.t. x1 <= 1, x2 <= 2, x1 + x2 >= 0.5 (a negated row), x1 + 2 x2 <= 4;
    # every subset of the rows, unbounded ones included, from the full problem's tableau.
    p = LpProblem((1.0, 1.0), [[1, 0], [0, 1], [-1, -1], [1, 2]], [1.0, 2.0, -0.5, 4.0])
    base = lp.solve(p)
    for keep in map(np.array, itertools.product((True, False), repeat=4)):
        q = LpProblem(p.objective, p.constraints[keep], p.rhs[keep])
        cold, warm = lp.solve(q), lp.solve_relaxed(base, keep)
        assert warm.status is cold.status
        if warm.status is LpStatus.OPTIMAL:
            assert warm.value == pytest.approx(cold.value, abs=1e-12)
            assert basis_gives_x(q, warm)


def test_chained_warm_solves_equal_cold_solves_of_the_kept_rows_bit_for_bit():
    # maximize 2 x1 + x2 over seven rows, the last a negated x1 + x2 >= 1; every
    # pivot entry is 1, so both paths compute exactly.  Each step relaxes a warm
    # solution (after the first) and drops rows whose slacks are basic and rows
    # whose slacks are nonbasic, which are pivoted in first.
    q = LpProblem((2.0, 1.0), [[1, 0], [0, 1], [1, 1], [1, 0], [0, 1], [1, 1], [-1, -1]],
                  [4.0, 4.0, 6.0, 5.0, 5.0, 7.0, -1.0])
    sol, rows = lp.solve(q), np.arange(7)
    steps = [([0, 4, 6], [False, True, True], [5.0, 1.0]), ([3, 1], [True, False], [6.0, 0.0]),
             ([2], [False], [7.0, 0.0])]  # dropped rows, is each one's slack basic, x
    for dropped, basic, x in steps:
        keep = ~np.isin(rows, dropped)
        assert [2 + k in sol.basis for k in np.flatnonzero(~keep)] == basic
        shape = sol._tableau.T.shape
        sol, rows = lp.solve_relaxed(sol, keep), rows[keep]
        cold = lp.solve(LpProblem(q.objective, q.constraints[rows], q.rhs[rows]))
        assert sol.status is cold.status is LpStatus.OPTIMAL
        assert sol.x.tobytes() == cold.x.tobytes() and sol.x.tolist() == x
        assert sol.y.tobytes() == cold.y.tobytes() and sol.value == cold.value
        assert sorted(sol.basis) == sorted(cold.basis)  # row order follows each path's pivots
        # The warm tableau keeps the first one's shape; relaxed rows are zero.
        tab = sol._tableau
        assert tab.T.shape == shape and np.count_nonzero(tab.live) == rows.size
        assert not tab.T[:-1][~tab.live].any()


def test_relaxing_a_slack_without_a_pivot_raises_with_the_trial_problem():
    # No solve reaches this, so the optimal tableau is built by hand: x is
    # basic in row 0 and row 1's slack in row 1, and row 0's slack column has
    # no entry in either row, so neither r_0's column nor s_0's has a pivot.
    q = LpProblem((1.0,), [[1.0], [1.0]], [1.0, 2.0])
    T = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]])
    base = lp.LpSolution(LpStatus.OPTIMAL, x=np.array([1.0]), value=1.0)
    object.__setattr__(base, "_tableau", lp._Tableau(q, T, np.array([0, 2])))
    with pytest.raises(NumericalInstability, match="^a relaxed row's slack has no pivot$") as info:
        lp.solve_relaxed(base, [False, True])
    trial = info.value.problem
    assert trial.constraints.tolist() == [[1.0]] and trial.rhs.tolist() == [2.0]
    assert trial.objective is q.objective


@pytest.mark.parametrize(
    "problem, status",
    [
        (LpProblem((0.0,), [[1.0], [-1.0]], [0.0, -1.0]), LpStatus.INFEASIBLE),  # x <= 0, x >= 1
        (LpProblem((1.0,), [[-1.0]], [0.0]), LpStatus.UNBOUNDED),
    ],
    ids=["infeasible", "unbounded"],
)
def test_solve_relaxed_refuses_a_base_that_is_not_optimal(problem, status):
    base = lp.solve(problem)
    assert base.status is status
    message = f"only an OPTIMAL solution can be relaxed, not {status}"
    with pytest.raises(ValueError, match=re.escape(message)):
        lp.solve_relaxed(base, [True] * problem.rhs.size)


@pytest.mark.parametrize(
    "keep", [[True], [True, True, False], [[True, False]]], ids=["short", "long", "2-d"]
)
def test_solve_relaxed_refuses_a_keep_that_does_not_mask_the_rows(keep):
    base = lp.solve(LpProblem((1.0, 1.0), [[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0]))
    with pytest.raises(ValueError, match="does not mask the 2 rows"):
        lp.solve_relaxed(base, keep)
