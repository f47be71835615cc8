"""Output checkers that share no code with the library under test.

Utilities and discount regimes are re-derived here from the generated
specs with numpy, and LP-backed verdicts are confirmed from their evidence
(witness, Farkas certificate, conflict) or re-solved with scipy's HiGHS.
Every checker returns ``None`` when the output is right, else a message.
"""

from __future__ import annotations

import re

import numpy as np

# Evidence is accepted within this slack; the kernel's own recheck uses 1e-7.
EVIDENCE_TOL = 1e-7


# -- valuation -------------------------------------------------------------
def utility_np(spec, x):
    """u(x) for a utility spec, elementwise."""
    kind = spec[0]
    x = np.asarray(x, dtype=float)
    if kind == "log_shift":
        return np.log1p(x)
    if kind == "sqrt":
        return np.sqrt(x)
    if kind == "power":
        b = 1.0 - spec[1]
        return (x**b - spec[1]) / b
    if kind == "log_power":
        w = np.log1p(x)
        return np.sign(w) * np.abs(w) ** spec[1]
    raise ValueError(f"unknown utility spec {spec!r}")


def discount_np(spec, t, x, s):
    """D(t, x, s) for a discount spec over payment arrays (states as a list)."""
    kind = spec[0]
    if kind == "exponential":
        return np.exp(-spec[1] * t)
    if kind == "hyperbolic":
        return 1.0 / (1.0 + spec[1] * t)
    if kind == "quasi_hyperbolic":
        return np.where(t == 0, 1.0, spec[1] * spec[2] ** t)
    if kind == "generalized_hyperbolic":
        return (1.0 + spec[1] * t) ** (-spec[2])
    if kind == "scale_dependent":
        eta = np.log(spec[2]) / np.log(x)
        return discount_np(spec[1], t, x, s) ** eta
    if kind == "state_dependent":
        rates = dict(spec[1])
        return np.exp(-np.array([rates[label] for label in s]) * t)
    if kind == "hybrid":
        lam = spec[1]
        return lam * discount_np(spec[2], t, x, s) + (1 - lam) * discount_np(spec[3], t, x, s)
    raise ValueError(f"unknown discount spec {spec!r}")


def schedule_values_np(u_spec, d_spec, sched, shifts):
    """Schedule value at each common shift: sum_p u(D(t_p + delta) x_p)."""
    amounts, times, states = sched
    x = np.asarray(amounts, dtype=float)[None, :]
    t = np.asarray(times, dtype=float)[None, :] + np.asarray(shifts, dtype=float)[:, None]
    d = discount_np(d_spec, t, x, states)
    return utility_np(u_spec, d * x).sum(axis=1)


def _preferences(va, vb, tol):
    return np.where(va > vb + tol, "A", np.where(vb > va + tol, "B", "indifferent"))


def _decided(va, vb, tol):
    # Where the two values lie within tol of each other, the library's scalar
    # sums and numpy's may land on different sides of the band: skip those.
    return np.abs(va - vb) > tol + 1e-12 * (np.abs(va) + np.abs(vb))


def _check_trace(va, vb, tol, deltas, prefs):
    expected = _preferences(va, vb, tol)
    got = np.array(prefs)
    bad = np.nonzero(_decided(va, vb, tol) & (got != expected))[0]
    if bad.size:
        i = int(bad[0])
        return (
            f"{bad.size} scan rows disagree with numpy; first at delta={deltas[i]!r}: "
            f"{got[i]} vs {expected[i]} (values {va[i]!r}, {vb[i]!r})"
        )
    return None


def _first_flip(baseline, deltas, prefs):
    opposite = {"A": "B", "B": "A"}.get(baseline)
    return next((d for d, p in zip(deltas, prefs) if p == opposite), None)


def check_value(u_spec, d_spec, sched, value):
    expected = schedule_values_np(u_spec, d_spec, sched, [0.0])[0]
    if not np.isclose(value, expected, rtol=1e-9, atol=1e-12):
        return f"schedule value {value!r} != numpy {expected!r}"
    return None


def check_compare(u_spec, d_spec, a, b, tol, pref):
    va = schedule_values_np(u_spec, d_spec, a, [0.0])
    vb = schedule_values_np(u_spec, d_spec, b, [0.0])
    return _check_trace(va, vb, tol, [0.0], [pref])


def check_scan(u_spec, d_spec, a, b, shifts, tol, baseline, trace, first_flip):
    """Compare a scan trace of (delta, preference string) with a numpy recomputation."""
    deltas = sorted(float(s) for s in shifts)
    if [d for d, _ in trace] != deltas:
        return "scan trace does not list the sorted shifts"
    prefs = [p for _, p in trace]
    va = schedule_values_np(u_spec, d_spec, a, deltas)
    vb = schedule_values_np(u_spec, d_spec, b, deltas)
    msg = _check_trace(va, vb, tol, deltas, prefs)
    if msg is not None:
        return msg
    msg = check_compare(u_spec, d_spec, a, b, tol, baseline)
    if msg is not None:
        return "baseline: " + msg
    if first_flip != _first_flip(baseline, deltas, prefs):
        return f"first flip {first_flip!r} inconsistent with the trace"
    return None


def check_scan_csv(u_spec, d_spec, a, b, shifts, tol, text):
    """Check ``scan`` stdout: values to their 10 printed digits, preferences, summary."""
    lines = text.splitlines()
    if len(lines) < 2 or lines[0] != "delta,value_a,value_b,preference":
        return "scan output lacks its CSV header or summary"
    try:
        rows = [line.split(",") for line in lines[1:-1]]
        got_d = [float(r[0]) for r in rows]
        got_a = np.array([float(r[1]) for r in rows])
        got_b = np.array([float(r[2]) for r in rows])
        prefs = [r[3] for r in rows]
    except (ValueError, IndexError):
        return "unreadable scan CSV row"
    deltas = sorted(float(s) for s in shifts)
    if got_d != [float(f"{d:g}") for d in deltas]:
        return "scan CSV does not list the sorted shifts"
    va = schedule_values_np(u_spec, d_spec, a, deltas)
    vb = schedule_values_np(u_spec, d_spec, b, deltas)
    if not (np.allclose(got_a, va, rtol=1e-9) and np.allclose(got_b, vb, rtol=1e-9)):
        return "scan CSV values disagree with numpy beyond their printed digits"
    msg = _check_trace(va, vb, tol, deltas, prefs)
    if msg is not None:
        return msg
    va0 = schedule_values_np(u_spec, d_spec, a, [0.0])
    vb0 = schedule_values_np(u_spec, d_spec, b, [0.0])
    if _decided(va0, vb0, tol)[0]:
        first = _first_flip(_preferences(va0, vb0, tol)[0], deltas, prefs)
        want = "no reversal" if first is None else f"first flip at delta={first:g}"
        if lines[-1] != want:
            return f"scan summary {lines[-1]!r} != {want!r}"
    return None


# -- coherence ---------------------------------------------------------------
def transform_np(u_spec, rewards):
    """u(g) per state; the default wealth bank max(1, -min g) shifts power kinds."""
    g = np.asarray(rewards, dtype=float)
    if u_spec[0] == "power":
        w = max(1.0, float(-g.min()))
        return utility_np(u_spec, w + g) - utility_np(u_spec, w)
    return utility_np(u_spec, g)


def check_decision(U, ug, expect_accept, accepted, witness, certificate):
    """Accepted: lambda >= 0, U lambda <= u(g).  Rejected: y >= 0, U^T y >= 0, y.u(g) < 0.

    Returns (message or None, evidence_missing).
    """
    if accepted != expect_accept:
        return f"verdict {accepted} but the query was built to be {expect_accept}", False
    if accepted:
        lam = np.asarray(witness, dtype=float)
        if lam.min(initial=0.0) < -EVIDENCE_TOL:
            return "witness has a negative coefficient", False
        slack = ug - U @ lam
        if slack.min() < -EVIDENCE_TOL:
            return f"witness violates U lambda <= u(g) by {-slack.min():.3e}", False
        return None, False
    if certificate is None:
        return None, True
    y = np.asarray(certificate, dtype=float)
    if y.min() < -EVIDENCE_TOL:
        return "certificate has a negative entry", False
    if U.shape[1] and (U.T @ y).min() < -EVIDENCE_TOL:
        return "certificate violates U^T y >= 0", False
    if not float(y @ ug) < 0:
        return "certificate does not give y . u(g) < 0", False
    return None, False


def check_functional(UA, UR, eps, weights):
    w = np.asarray(weights, dtype=float)
    if w.min() < 0 or not np.isclose(w.sum(), 1.0):
        return "weights are not a nonnegative unit-sum vector"
    if UA.shape[1] and (w @ UA).min() < -EVIDENCE_TOL:
        return f"rho < 0 on an accepted gamble: {(w @ UA).min():.3e}"
    if UR.shape[1] and (w @ UR).max() > -eps + EVIDENCE_TOL:
        return f"rho > -eps on a rejected gamble: {(w @ UR).max():.3e}"
    return None


def fit_system_feasible(UA, UR, eps) -> bool:
    """HiGHS: is {w >= 0, sum w = 1, w.u(f) >= 0, w.u(g) <= -eps} nonempty?"""
    from scipy.optimize import linprog

    m = UA.shape[0] if UA.size else UR.shape[0]
    A_ub = np.vstack([-UA.T, UR.T]) if UR.shape[1] else -UA.T
    b_ub = np.concatenate([np.zeros(UA.shape[1]), np.full(UR.shape[1], -eps)])
    res = linprog(
        np.zeros(m),
        A_ub=A_ub if A_ub.size else None,
        b_ub=b_ub if A_ub.size else None,
        A_eq=np.ones((1, m)),
        b_eq=[1.0],
        bounds=[(0, None)] * m,
        method="highs",
    )
    if res.status not in (0, 2):
        raise RuntimeError(f"HiGHS could not decide the fit system: {res.message}")
    return res.status == 0


def check_fit(UA, UR, eps, expect_feasible, result_kind, payload):
    """``payload`` is the weights for a Functional, the conflict for an Infeasible."""
    if result_kind == "feasible":
        if not expect_feasible:
            return "returned weights for a set built to be infeasible"
        return check_functional(UA, UR, eps, payload)
    if expect_feasible:
        return "reported infeasible for a set built with a compatible functional"
    acc = [i for kind, i in payload if kind == "accepted"]
    rej = [j for kind, j in payload if kind == "rejected"]
    if len(acc) + len(rej) != len(payload) or not payload:
        return f"malformed conflict {payload!r}"
    if fit_system_feasible(UA[:, acc], UR[:, rej], eps):
        return f"conflict {payload!r} is feasible under HiGHS"
    return None


def margin_np(U, ug) -> float:
    """HiGHS: max s with U lambda + s <= u(g), lambda >= 0, s <= 1."""
    from scipy.optimize import linprog

    m, n = U.shape
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(
        c,
        A_ub=np.hstack([U, np.ones((m, 1))]),
        b_ub=ug,
        bounds=[(0, None)] * n + [(None, 1.0)],
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS margin LP failed: {res.message}")
    return -float(res.fun)


def partial_loss_np(U) -> float:
    """HiGHS: max eps with U lambda <= -eps, sum lambda <= 1, lambda, eps >= 0."""
    from scipy.optimize import linprog

    m, n = U.shape
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A = np.vstack([np.hstack([U, np.ones((m, 1))]), np.concatenate([np.ones(n), [0.0]])])
    b = np.concatenate([np.zeros(m), [1.0]])
    res = linprog(c, A_ub=A, b_ub=b, bounds=[(0, None)] * (n + 1), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS partial-loss LP failed: {res.message}")
    return -float(res.fun)


_F2 = re.compile(r"rejected\[(\d+)\] dominates accepted\[(\d+)\]")
_F3 = re.compile(r"rejected\[(\d+)\] lies in the accepted cone")

# HiGHS margins this close to zero do not decide F1/F3 either way.
_UNDECIDED = 1e-6


def check_audit(acc_rewards, rej_rewards, U, UR, lines):
    """Findings text vs dominance recomputed exactly and cone queries re-solved by HiGHS."""
    f1 = [line for line in lines if line.startswith("F1 ")]
    f2 = sorted((int(j), int(i)) for line in lines for j, i in _F2.findall(line))
    f3 = sorted(int(j) for line in lines for j in _F3.findall(line))
    if len(f1) + len(f2) + len(f3) != len(lines):
        return f"unrecognised finding among {lines!r}"
    loss = partial_loss_np(U)
    if (loss > _UNDECIDED and not f1) or (loss < -_UNDECIDED and f1) or len(f1) > 1:
        return f"F1 findings {len(f1)} vs HiGHS partial-loss margin {loss:.3e}"
    want_f2 = sorted(
        (j, i)
        for j, g in enumerate(rej_rewards)
        for i, f in enumerate(acc_rewards)
        if np.all(np.asarray(g) >= np.asarray(f))
    )
    if f2 != want_f2:
        return f"F2 findings {f2} != dominance pairs {want_f2}"
    flagged = {j for j, _ in want_f2}
    for j in range(UR.shape[1]):
        if j in flagged:
            continue
        margin = margin_np(U, UR[:, j])
        if (margin > _UNDECIDED and j not in f3) or (margin < -_UNDECIDED and j in f3):
            return f"F3 for rejected[{j}] disagrees with HiGHS margin {margin:.3e}"
    return None
