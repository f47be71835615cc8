"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from desirables import (
    AssessmentSet,
    DatedPayment,
    Exponential,
    Functional,
    Gamble,
    GeneralizedHyperbolic,
    Hybrid,
    Hyperbolic,
    Infeasible,
    InverseLog,
    Linear,
    LogShift,
    PaymentSchedule,
    Preference,
    QuasiHyperbolic,
    ScaleDependent,
    Sqrt,
    StateDependent,
    StateSpace,
    accept_decision,
    accepts,
    check_ordering_invariance,
    check_transform_invariance,
    compare,
    dominates,
    effective_utility,
    fit_functional,
    reversal_scan,
    rho,
    schedule_value,
    transform,
    u_convex_combine,
)
from desirables.cli import main as cli_main
from desirables.lp import LpStatus

from helpers import random_assessment, random_gamble, random_query
from oracles import check_infeasibility_certificate, farkas_verdict, grid_witness, vertex_lp_optimum
from oracles import solve_general as solve
from test_lp import CORPUS

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:>2} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:>2} {name}: PASS")


def one_payment(amount, t, state=None, label=""):
    return PaymentSchedule((DatedPayment(amount, t, state),), label=label)


def eval_rows(capsys, *argv):
    rc = cli_main(list(argv))
    out, _ = capsys.readouterr()
    assert rc == 0, out
    lines = out.strip().splitlines()
    assert lines[0] == "schedule\tvalue"
    return {name: float(v) for name, v in (ln.split("\t") for ln in lines[1:])}


def test_criterion_1_hyperbolic_example():
    with criterion(1, "hyperbolic log-utility example"):
        u, d = LogShift(), Hyperbolic(0.5)
        assert abs(effective_utility(u, d, 1000, 0) - 6.9088) <= 0.005
        assert abs(effective_utility(u, d, 1200, 1) - 6.6859) <= 0.005
        assert abs(effective_utility(u, d, 1000, 5) - 5.6614) <= 0.005
        assert abs(effective_utility(u, d, 1200, 6) - 5.7071) <= 0.005
        a0, b0 = one_payment(1000, 0), one_payment(1200, 1)
        res = reversal_scan(u, d, a0, b0, [0, 5])
        assert res.trace == ((0.0, Preference.A), (5.0, Preference.B))
        assert res.first_flip == 5.0


def test_criterion_2_quasi_hyperbolic_example():
    with criterion(2, "quasi-hyperbolic savings example"):
        u, d = Sqrt(), QuasiHyperbolic(0.7, 0.95)
        assert effective_utility(u, d, 100, 0) == 10.0
        assert abs(effective_utility(u, d, 120, 1) - 8.933) <= 0.01
        assert abs(effective_utility(u, d, 100, 12) - 6.151) <= 0.01
        assert abs(effective_utility(u, d, 120, 13) - 6.567) <= 0.01
        plan_a, plan_b = one_payment(100, 0), one_payment(120, 1)
        assert compare(u, d, plan_a, plan_b) is Preference.A
        shifted = reversal_scan(u, d, plan_a, plan_b, [0, 12])
        assert shifted.first_flip == 12.0


def test_criterion_3_generalized_hyperbolic(capsys):
    with criterion(3, "generalized hyperbolic branches"):
        u = Linear()
        d2 = GeneralizedHyperbolic(0.2, 2.0)
        assert abs(d2.factor(2.0) - 0.5102) <= 5e-5
        assert abs(d2.factor(4.0) - 0.3086) <= 5e-5
        assert d2.factor(5.0) == 0.25
        option_a = PaymentSchedule((DatedPayment(100, 0), DatedPayment(120, 5)))
        option_b = PaymentSchedule((DatedPayment(110, 2), DatedPayment(150, 4)))
        assert schedule_value(u, d2, option_a) == 130.0
        assert abs(schedule_value(u, d2, option_b, round_factors=True) - 102.6) <= 0.1
        assert abs(schedule_value(u, d2, option_b) - 102.42) <= 0.1

        rows = eval_rows(
            capsys, "eval", "--config", str(DATA / "ghyp_p05.conf"), "--paper-rounding"
        )
        assert abs(rows["A"] - 185.2) <= 0.1
        rows = eval_rows(capsys, "eval", "--config", str(DATA / "ghyp_p05.conf"))
        assert abs(rows["B"] - 204.8) <= 0.5  # documented deviation from the printed 201.2


def test_criterion_4_state_dependent(capsys):
    with criterion(4, "state-dependent business cycle"):
        rows = eval_rows(capsys, "eval", "--config", str(DATA / "cycle_expansion.conf"))
        for name, target in (("y1", 951), ("y3", 861), ("y5", 779)):
            assert abs(rows[name] - target) <= 1.0
        rows = eval_rows(capsys, "eval", "--config", str(DATA / "cycle_recession.conf"))
        for name, target in (("y1", 861), ("y3", 638), ("y5", 472)):
            assert abs(rows[name] - target) <= 1.0


def test_criterion_5_hybrid_mixture():
    with criterion(5, "hybrid exponential/hyperbolic mixture"):
        u = Linear()
        d = Hybrid(0.5, Exponential(0.5), Hyperbolic(1.0))
        assert abs(effective_utility(u, d, 1500, 1) - 832) <= 3.0  # exact 829.9
        assert abs(effective_utility(u, d, 1500, 1, round_factors=True) - 832) <= 0.5 + 1e-9
        assert abs(effective_utility(u, d, 1000, 10) - 48.5) <= 0.5  # exact 48.8
        assert abs(effective_utility(u, d, 1500, 11) - 66.0) <= 0.7  # exact 65.6
        res = reversal_scan(u, d, one_payment(1000, 0), one_payment(1500, 1), [0, 10])
        assert res.trace == ((0.0, Preference.A), (10.0, Preference.B))
        assert res.first_flip == 10.0


def test_criterion_6_magnitude_effect_qualitative():
    with criterion(6, "magnitude effect, base-10 eta"):
        u = Linear()
        d = ScaleDependent(Exponential(1.0), InverseLog(10.0))
        assert compare(u, d, one_payment(10, 0), one_payment(15, 1)) is Preference.A
        assert compare(u, d, one_payment(1000, 0), one_payment(1500, 1)) is Preference.B


def test_criterion_7_oracle_agreement_500_instances():
    with criterion(7, "natural extension vs brute-force oracle (500 sets)"):
        rng = np.random.default_rng(20240811)
        grid_capacity = 25
        accepted = rejected = grid_checked = 0
        for _ in range(500):
            aset = random_assessment(rng, m_max=4, n_max=4)
            g = random_query(rng, aset)
            decision = accept_decision(aset, g)
            U = aset.transformed_generators()
            c = transform(aset.utility, g)
            feasible, _ = farkas_verdict(U, c)
            assert feasible == decision.accepted
            if decision.accepted:
                accepted += 1
                assert np.all(U @ decision.witness <= c + 1e-8)
                n = U.shape[1]
                in_range = bool(np.all(decision.witness <= 10.0))
                if n <= 2 and in_range:
                    assert grid_witness(U, c) is not None
                    grid_checked += 1
                elif n == 3 and in_range and grid_capacity > 0:
                    assert grid_witness(U, c) is not None
                    grid_capacity -= 1
                    grid_checked += 1
            else:
                rejected += 1
        assert accepted > 100 and rejected > 100  # both outcomes well exercised
        assert grid_checked > 50


def test_criterion_8_propositions_as_invariants():
    with criterion(8, "non-triviality, closure, convexity, transform invariance"):
        rng = np.random.default_rng(20240812)
        # Every gamble with nonnegative transform is accepted.
        for _ in range(100):
            aset = random_assessment(rng, m_max=3, n_max=3)
            g = random_gamble(rng, aset.space, aset.utility, nonneg=True)
            assert accepts(aset, g)
        # Upward closure under dominance.
        checked = 0
        while checked < 100:
            aset = random_assessment(rng, m_max=3, n_max=3)
            g = random_query(rng, aset)
            if not accepts(aset, g):
                continue
            better = Gamble(
                aset.space,
                g.rewards + rng.uniform(0, 1, aset.space.m),
                wealth_floor=g.wealth_floor,
            )
            assert dominates(better, g) and accepts(aset, better)
            checked += 1
        # u-convex combinations of accepted gambles stay accepted.
        checked = 0
        while checked < 60:
            aset = random_assessment(rng, m_max=3, n_max=3)
            if len(aset.accepted) < 2:
                continue
            lam, mu = (float(v) for v in rng.uniform(0, 1.5, 2))
            try:
                h = u_convex_combine(aset.utility, aset.accepted[0], aset.accepted[1], lam, mu)
            except Exception:
                continue
            assert accepts(aset, h)
            checked += 1
        # Acceptance signs survive 20 random increasing phi with phi(0) = 0.
        space = StateSpace(("s1", "s2", "s3"))
        u = LogShift()
        fs = [random_gamble(rng, space, u) for _ in range(40)]
        for _ in range(20):
            a, b = rng.uniform(0.2, 3.0), rng.uniform(0.0, 2.0)
            c = rng.uniform(0.0, 1.5)
            phi = lambda v, a=a, b=b, c=c: a * v + b * v**3 + c * math.expm1(v)
            assert check_transform_invariance(u, phi, fs)


def test_criterion_9_representation_consistency():
    with criterion(9, "representation margins and ordering invariance"):
        rng = np.random.default_rng(20240813)
        fitted = 0
        for _ in range(120):
            aset = random_assessment(rng, m_max=3, n_max=3)
            extra = random_query(rng, aset)
            rejected = () if accepts(aset, extra) else (extra,)
            full = AssessmentSet(aset.space, aset.utility, aset.accepted, rejected)
            result = fit_functional(full, strict_margin=1e-6)
            if isinstance(result, Infeasible):
                continue
            fitted += 1
            for f in full.accepted:
                assert rho(result, full.utility, f) >= -1e-9
            for r in full.rejected:
                assert rho(result, full.utility, r) <= -1e-6 + 1e-9
        assert fitted >= 60
        # Ordering invariance under weight scaling.
        space = StateSpace(("s1", "s2"))
        u = LogShift()
        for _ in range(100):
            w = rng.uniform(0.05, 1.0, 2)
            ell = Functional(w)
            fs = [random_gamble(rng, space, u) for _ in range(8)]
            for c in (1e-3, 1.0, 1e3):
                assert check_ordering_invariance(ell, c, u, fs)


def test_criterion_10_closure_under_limits():
    with criterion(10, "closure under limits along 1/n perturbations"):
        space = StateSpace(("s1", "s2"))
        cases = [
            (Linear(), Functional(np.array([0.5, 0.5])), Gamble(space, [1.0, -1.0])),
            (LogShift(), Functional(np.array([0.5, 0.5])), Gamble(space, [1.0, -0.5])),
            (LogShift(), Functional(np.array([0.25, 0.75])), Gamble(space, [3.0, math.expm1(-math.log(4) / 3)])),
        ]
        for u, ell, f in cases:
            n = 1
            while n <= 10**6:
                fn = Gamble(space, f.rewards + 1.0 / n, wealth_floor=f.wealth_floor)
                assert rho(ell, u, fn) >= 0
                n *= 10
            assert rho(ell, u, f) >= -1e-9


def test_criterion_11_exponential_control_and_flip_fixtures():
    with criterion(11, "exponential control and regime flip fixtures"):
        rng = np.random.default_rng(20240814)
        u = Linear()
        for _ in range(100):
            d = Exponential(float(rng.uniform(0.05, 1.0)))
            mk = lambda: PaymentSchedule(
                tuple(
                    DatedPayment(float(x), float(t))
                    for x, t in zip(rng.uniform(1, 100, 3), rng.uniform(0, 8, 3))
                )
            )
            res = reversal_scan(u, d, mk(), mk(), np.sort(rng.uniform(0, 20, 5)))
            assert res.first_flip is None
        # Constructed flips for the non-exponential regimes.
        flips = [
            (LogShift(), Hyperbolic(0.5), one_payment(1000, 0), one_payment(1200, 1), [0, 5]),
            (Sqrt(), QuasiHyperbolic(0.7, 0.95), one_payment(100, 0), one_payment(120, 1), [0, 12]),
            (Linear(), Hybrid(0.5, Exponential(0.5), Hyperbolic(1.0)), one_payment(1000, 0), one_payment(1500, 1), [0, 10]),
            (Linear(), GeneralizedHyperbolic(0.2, 2.0), one_payment(100, 0), one_payment(120, 1), [0, 10]),
            (Linear(), ScaleDependent(Exponential(1.0), InverseLog(2.0)), one_payment(200, 0), one_payment(220, 1), [0, 15]),
        ]
        for uu, d, a, b, shifts in flips:
            assert reversal_scan(uu, d, a, b, shifts).first_flip is not None
        # State-dependent discounting is exponential within a state: no flip.
        sd = StateDependent({"s1": 0.08})
        res = reversal_scan(
            u,
            sd,
            one_payment(100, 0, "s1"),
            one_payment(120, 1, "s1"),
            [0, 5, 10, 25],
        )
        assert res.first_flip is None


def test_criterion_12_lp_kernel_determinism(capsys):
    with criterion(12, "LP kernel vs enumeration, byte-identical reruns"):
        for p in CORPUS:
            sol = solve(p)
            rows = list(zip(p.constraints, p.relations, p.rhs))
            status, _, val_ref = vertex_lp_optimum(p.objective, rows, p.lower_bounds)
            assert sol.status.value == status
            if sol.status is LpStatus.OPTIMAL:
                assert abs(sol.value - val_ref) <= 1e-9
                again = solve(p)
                assert again.x.tobytes() == sol.x.tobytes()
            if sol.status is LpStatus.INFEASIBLE:
                assert check_infeasibility_certificate(p, sol.certificate)
        rc1 = cli_main(["scan", "--config", str(DATA / "hybrid_mix.conf")])
        out1, _ = capsys.readouterr()
        rc2 = cli_main(["scan", "--config", str(DATA / "hybrid_mix.conf")])
        out2, _ = capsys.readouterr()
        assert rc1 == rc2 == 0
        assert out1.encode() == out2.encode()
