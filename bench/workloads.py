"""Seeded workload generators: each returns the ops of one pass, in run order.

Inputs come only from ``numpy.random.default_rng(seed)`` and are handed to
the public API of ``desirables``; expected answers are fixed by construction
(a hidden weight vector, a planted dominance, a planted cone member) and
checked by :mod:`checks`, never by the library itself.

Every op looks its library entry point up on the ``desirables`` package at
call time, so the traced run's rebinding (see :mod:`spans`) takes effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

import checks
import desirables as D
import desirables.cli  # noqa: F401  (D.cli for in-process reference runs)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
LOG_SHIFT = ("log_shift",)


@dataclass
class Op:
    cls: str
    label: str
    run: Callable[[], object]
    canon: Callable[[object], bytes]
    check: Callable[[object], "str | None"]


# A fixed tableau for the probe's pivots (the probe's own data, not an input).
_PROBE_TABLEAU = np.random.default_rng(0).uniform(-1.0, 1.0, (24, 48))
_PROBE_TABLEAU[:, -1] = np.abs(_PROBE_TABLEAU[:, -1]) + 0.1


def _probe_work() -> None:
    """Fixed work with the mix of the library's Python-level numeric code.

    Numpy scalar reads, small-array arithmetic, dict updates, small
    allocations and scalar-indexed pivots on a 24 x 48 tableau.  Contention
    on a shared host slows this mix about as much as it slows the ops; a
    plain interpreter loop tracks it only half as well.
    """
    a = np.arange(64.0)
    s = 0.0
    for i in range(3000):
        s += float(a[i & 63]) * 0.5
        if i % 32 == 0:
            a = a * 1.0000001 + 1e-9
    d: dict[int, int] = {}
    for i in range(3000):
        d[i % 257] = d.get(i % 257, 0) + i
    for i in range(400):
        v = np.zeros(16)
        v[i & 15] = i
        s += float(v.sum()) + len([j for j in range(8)])
    T = _PROBE_TABLEAU.copy()
    m, n = T.shape
    for it in range(12):
        row = T[it % m]
        col = next((j for j in range(n - 1) if row[j] > 0.05), 0)
        ratios = [(T[i, -1] / T[i, col], i) for i in range(m) if T[i, col] > 1e-9]
        r = min(ratios)[1] if ratios else it % m
        T[r] = T[r] / T[r, col]
        for i in range(m):
            if i != r:
                T[i] = T[i] - T[i, col] * T[r]


def mix_reference() -> float:
    """Fastest of three runs of the fixed probe work: the host's current speed."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _probe_work()
        best = min(best, perf_counter() - t0)
    return best


def child_reference() -> float:
    """A fresh interpreter importing numpy: the host's current process start-up speed."""
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import numpy"], cwd=ROOT, capture_output=True, timeout=60, check=True
    )
    return perf_counter() - t0


@dataclass(frozen=True)
class Reference:
    """A fixed probe of host speed, taken between ops at least every ``every_s`` of op time.

    Op times are scaled by ``nominal_s`` over the local probe time: times on a
    machine where the probe takes ``nominal_s`` (about what it takes on an
    unloaded 2-vCPU Xeon VM).
    """

    measure: Callable[[], float]
    nominal_s: float
    every_s: float


MIX_REFERENCE = Reference(mix_reference, 2e-3, 0.1)
CHILD_REFERENCE = Reference(child_reference, 0.1, 1.0)


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op]
    reference: Reference = MIX_REFERENCE
    # Run every op once before timing and leave out the ones on which the
    # kernel raises NumericalInstability or DimensionError: the timed ops
    # must not fail, and the left-out ones are reported instead.
    screen: bool = False
    # Counted by checks: rejections that carried no certificate.
    notes: dict = field(default_factory=lambda: {"evidence_missing": 0})


class Context:
    """Run-wide state the CLI ops need: the tracer (None when untraced)."""

    tracer = None
    process_s = 0.0
    child_runs = 0


CTX = Context()


# -- valuation -------------------------------------------------------------
def make_utility(spec):
    kind = spec[0]
    if kind == "log_shift":
        return D.LogShift()
    if kind == "sqrt":
        return D.Sqrt()
    if kind == "power":
        return D.PowerDiscounted(spec[1])
    if kind == "log_power":
        return D.Composed(D.LogShift(), D.PhiPower(spec[1]))
    raise ValueError(spec)


def make_discount(spec):
    kind = spec[0]
    if kind == "exponential":
        return D.Exponential(spec[1])
    if kind == "hyperbolic":
        return D.Hyperbolic(spec[1])
    if kind == "quasi_hyperbolic":
        return D.QuasiHyperbolic(spec[1], spec[2])
    if kind == "generalized_hyperbolic":
        return D.GeneralizedHyperbolic(spec[1], spec[2])
    if kind == "scale_dependent":
        return D.ScaleDependent(make_discount(spec[1]), D.InverseLog(spec[2]))
    if kind == "state_dependent":
        return D.StateDependent(dict(spec[1]))
    if kind == "hybrid":
        return D.Hybrid(spec[1], make_discount(spec[2]), make_discount(spec[3]))
    raise ValueError(spec)


def _u(rng, lo, hi) -> float:
    return round(float(rng.uniform(lo, hi)), 4)


def utility_specs(rng):
    return [LOG_SHIFT, ("sqrt",), ("power", _u(rng, 0.2, 0.8)), ("log_power", _u(rng, 0.5, 0.9))]


def regime_specs(rng):
    """One spec per discount regime; the last is a hybrid nested in a hybrid."""
    return [
        ("exponential", _u(rng, 0.02, 0.2)),
        ("hyperbolic", _u(rng, 0.1, 1.0)),
        ("quasi_hyperbolic", _u(rng, 0.6, 0.95), _u(rng, 0.9, 0.99)),
        ("generalized_hyperbolic", _u(rng, 0.1, 0.5), _u(rng, 0.5, 2.5)),
        ("scale_dependent", ("hyperbolic", _u(rng, 0.1, 1.0)), _u(rng, 5.0, 20.0)),
        ("state_dependent", (("boom", _u(rng, 0.02, 0.08)), ("bust", _u(rng, 0.1, 0.3)))),
        (
            "hybrid",
            _u(rng, 0.2, 0.8),
            ("hybrid", _u(rng, 0.2, 0.8), ("exponential", _u(rng, 0.02, 0.2)), ("hyperbolic", _u(rng, 0.1, 1.0))),
            ("quasi_hyperbolic", _u(rng, 0.6, 0.95), _u(rng, 0.9, 0.99)),
        ),
    ]


def schedule_pair(rng, n, d_spec):
    """(amounts, times, states) for a sooner-smaller A and a later-larger B."""
    amounts = np.round(rng.uniform(10.0, 1000.0, n), 2)
    times = np.round(np.sort(rng.uniform(0.0, 20.0, n)), 3)
    later = np.round(times + rng.uniform(0.5, 3.0, n), 3)
    larger = np.round(amounts * rng.uniform(1.1, 1.6, n), 2)
    if d_spec[0] == "state_dependent":
        labels = [str(s) for s in rng.choice(["boom", "bust"], n)]
    else:
        labels = [None] * n
    a = (tuple(map(float, amounts)), tuple(map(float, times)), tuple(labels))
    b = (tuple(map(float, larger)), tuple(map(float, later)), tuple(labels))
    return a, b


def make_schedule(sched, label):
    amounts, times, states = sched
    return D.PaymentSchedule(
        tuple(D.DatedPayment(x, t, s) for x, t, s in zip(amounts, times, states)), label
    )


def _canon_scan(r) -> bytes:
    trace = [[d, p.value] for d, p in r.trace]
    return json.dumps([r.baseline.value, r.first_flip, trace]).encode()


def _scan_op(u_spec, d_spec, a, b, shifts, label) -> Op:
    u, d = make_utility(u_spec), make_discount(d_spec)
    sa, sb = make_schedule(a, "A"), make_schedule(b, "B")

    def check(r):
        trace = [(delta, p.value) for delta, p in r.trace]
        return checks.check_scan(
            u_spec, d_spec, a, b, shifts, 1e-9, r.baseline.value, trace, r.first_flip
        )

    return Op(
        "scan", label, lambda: D.reversal_scan(u, d, sa, sb, shifts), _canon_scan, check
    )


def _short_ops(u_spec, d_spec, a, b, label) -> list[Op]:
    u, d = make_utility(u_spec), make_discount(d_spec)
    sa, sb = make_schedule(a, "A"), make_schedule(b, "B")
    compare = Op(
        "compare",
        label,
        lambda: D.compare(u, d, sa, sb),
        lambda r: r.value.encode(),
        lambda r: checks.check_compare(u_spec, d_spec, a, b, 1e-9, r.value),
    )
    reverse = Op(
        "compare",
        label + " reversed",
        lambda: D.compare(u, d, sb, sa),
        lambda r: r.value.encode(),
        lambda r: checks.check_compare(u_spec, d_spec, b, a, 1e-9, r.value),
    )
    value = Op(
        "value",
        label,
        lambda: D.schedule_value(u, d, sa),
        lambda r: float(r).hex().encode(),
        lambda r: checks.check_value(u_spec, d_spec, a, r),
    )
    # Two compares per value call keep the pass median inside the compares.
    return [compare, reverse, value]


SCAN_PAYMENTS = 50
SCAN_SHIFTS = tuple(i / 10 for i in range(1000))
# Short ops run after each scan.  With scalar valuation code a 50 x 1000 scan
# costs about as much as this many short ops, so neither kind dominates.
SHORT_PER_SCAN = 20000
SHORT_PAIRS = 24


def valuation(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    utilities = utility_specs(rng)
    regimes = regime_specs(rng)
    scans, short = [], []
    for i, d_spec in enumerate(regimes):
        # Two scans per regime, under two of the four utilities in rotation:
        # 14 scans, so the pass tail (10 samples beyond it) lies among scans.
        for u_spec in (utilities[i % 4], utilities[(i + 2) % 4]):
            a, b = schedule_pair(rng, SCAN_PAYMENTS, d_spec)
            label = f"scan {d_spec[0]}/{u_spec[0]}"
            scans.append(_scan_op(u_spec, d_spec, a, b, SCAN_SHIFTS, label))
        for u_spec in utilities:
            for k in range(SHORT_PAIRS):
                a, b = schedule_pair(rng, 1 + k % 3, d_spec)
                label = f"short {d_spec[0]}/{u_spec[0]} #{k}"
                short.extend(_short_ops(u_spec, d_spec, a, b, label))
    # Spread the short ops so every stretch of the pass visits every combination.
    short = [short[i] for i in np.random.default_rng(0).permutation(len(short))]
    ops = []
    for i, scan in enumerate(scans):
        ops.append(scan)
        start = i * SHORT_PER_SCAN
        ops.extend(short[(start + j) % len(short)] for j in range(SHORT_PER_SCAN))
    a, b = schedule_pair(rng, SCAN_PAYMENTS, regimes[-1])
    warm = [_scan_op(utilities[-1], regimes[-1], a, b, SCAN_SHIFTS[:20], "warm-up scan")]
    warm += short[:3]
    return Workload(ops, warm)


# -- coherence inputs ------------------------------------------------------
def rewards_uniform(rng, m):
    return np.round(rng.uniform(-0.9, 2.0, m), 3)


def rewards_normal(rng, m):
    # Clipping piles mass on -0.9, so rewards repeat and the LPs degenerate.
    return np.round(np.maximum(rng.normal(0.0, 1.0, m), -0.9), 3)


def labelled(rng, draw, m, n, r, w, reject_below):
    """n gambles with w . u(g) >= 0 and r with w . u(g) <= reject_below."""
    acc, rej = [], []
    while len(acc) < n or len(rej) < r:
        g = draw(rng, m)
        v = float(w @ checks.transform_np(LOG_SHIFT, g))
        if v >= 0 and len(acc) < n:
            acc.append(g)
        elif v <= reject_below and len(rej) < r:
            rej.append(g)
    return acc, rej


def dominating(rng, g):
    """A reward vector weakly above ``g`` in every state."""
    return np.round(g + rng.uniform(0.001, 0.1, g.shape[0]), 3)


def in_cone(rng, U):
    """Rewards whose utility is a planted conic combination of U's columns plus slack."""
    m, n = U.shape
    lam = np.zeros(n)
    picks = rng.choice(n, size=max(1, n // 5), replace=False)
    lam[picks] = rng.exponential(1.0, picks.size)
    return np.expm1(U @ lam + rng.uniform(0.01, 0.1, m))


def assessment_set(m, acc, rej):
    space = D.StateSpace(tuple(f"s{i}" for i in range(m)))
    return D.AssessmentSet(
        space,
        D.LogShift(),
        tuple(D.Gamble(space, g) for g in acc),
        tuple(D.Gamble(space, g) for g in rej),
    )


def utility_matrix(gs, m):
    if not gs:
        return np.zeros((m, 0))
    return np.column_stack([checks.transform_np(LOG_SHIFT, g) for g in gs])


def _canon_array(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def _canon_decision(r) -> bytes:
    parts = [str(r.accepted).encode(), float(r.margin).hex().encode()]
    for a in (r.witness, r.certificate):
        parts.append(b"-" if a is None else _canon_array(a))
    return b"|".join(parts)


def _canon_findings(r) -> bytes:
    return "\n".join(str(f) for f in r).encode()


# -- accept ----------------------------------------------------------------
# (m, n, sets).  The m=32 audits are the slowest ops; with 28 of them the
# tail (10 samples beyond it) lies inside that class, not at one of its
# extremes, which would jump from seed to seed, and the pass median lies
# among the m=16 rejections, not on a boundary between size classes.
ACCEPT_SIZES = ((4, 8, 12), (8, 30, 12), (16, 60, 12), (32, 60, 28))
QUERIES_PER_SET = 8


def _accept_set(rng, m, n, label, notes):
    w = rng.dirichlet(np.ones(m))
    acc, clean = labelled(rng, rewards_uniform, m, n, 2, w, -0.05)
    U = utility_matrix(acc, m)
    # Rejected gambles: two outside the cone, one dominating a generator (F2)
    # and one planted inside the cone (F3).
    rej = [clean[0], dominating(rng, acc[int(rng.integers(n))]), in_cone(rng, U), clean[1]]
    aset = assessment_set(m, acc, rej)
    UR = utility_matrix(rej, m)
    space = aset.space

    def query_op(k):
        expect = k % 2 == 0
        if expect:
            g = in_cone(rng, U)
        else:
            g = labelled(rng, rewards_uniform, m, 0, 1, w, -0.05)[1][0]
        gamble = D.Gamble(space, g)
        ug = checks.transform_np(LOG_SHIFT, g)

        def check(r):
            msg, missing = checks.check_decision(
                U, ug, expect, r.accepted, r.witness, r.certificate
            )
            notes["evidence_missing"] += missing
            return msg

        return Op(
            "accept_yes" if expect else "accept_no",
            f"{label} query {k}",
            lambda: D.accept_decision(aset, gamble),
            _canon_decision,
            check,
        )

    ops = [query_op(k) for k in range(QUERIES_PER_SET)]
    audit = Op(
        "audit",
        f"{label} audit",
        lambda: D.audit(aset),
        _canon_findings,
        lambda r: checks.check_audit(acc, rej, U, UR, [str(f) for f in r]),
    )
    ops.insert(QUERIES_PER_SET // 2, audit)
    return ops


def accept(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    # The kernel raises on a few generated queries (see Workload.screen).
    wl = Workload([], [], screen=True)
    per_set = [
        _accept_set(rng, m, n, f"accept m={m} n={n} set {s}", wl.notes)
        for s in range(max(sets for _, _, sets in ACCEPT_SIZES))
        for m, n, sets in ACCEPT_SIZES
        if s < sets
    ]
    # Round-robin over sets, so any prefix of the pass has every size in it.
    for k in range(QUERIES_PER_SET + 1):
        wl.ops.extend(ops[k] for ops in per_set)
    warm_rng = np.random.default_rng([seed, 2, 1])
    warm = _accept_set(warm_rng, 4, 8, "warm-up", {"evidence_missing": 0})
    wl.warmup = warm[:2] + [warm[QUERIES_PER_SET // 2]]
    return wl


# -- fit -------------------------------------------------------------------
FIT_REJECTED = 4
FIT_EPS = 1e-6
FIT_DRAWS = (("uniform", rewards_uniform), ("normal", rewards_normal))


def _fit_op(rng, m, n, draw_name, draw, feasible) -> Op:
    w = rng.dirichlet(np.ones(m))
    acc, rej = labelled(rng, draw, m, n, FIT_REJECTED, w, -1e-3)
    if not feasible:
        # A rejected gamble that dominates an accepted one: no weights fit.
        rej[int(rng.integers(FIT_REJECTED))] = dominating(rng, acc[int(rng.integers(n))])
    aset = assessment_set(m, acc, rej)
    UA, UR = utility_matrix(acc, m), utility_matrix(rej, m)
    kind = "feasible" if feasible else "infeasible"

    def canon(r):
        conflict = getattr(r, "conflict", None)
        return repr(conflict).encode() if conflict is not None else _canon_array(r.weights)

    def check(r):
        conflict = getattr(r, "conflict", None)
        if conflict is None:
            return checks.check_fit(UA, UR, FIT_EPS, feasible, "feasible", r.weights)
        return checks.check_fit(UA, UR, FIT_EPS, feasible, "infeasible", conflict)

    return Op(
        f"fit_{kind}",
        f"fit m={m} n={n} {draw_name} {kind}",
        lambda: D.fit_functional(aset, strict_margin=FIT_EPS),
        canon,
        check,
    )


# One pass, by (n, feasible, m): copies per reward draw.  The counts put the
# pass median inside the 32 m=16 feasible n=30 sets and the tail (10 samples
# beyond it) inside the 20 m=16 infeasible n=30 searches, not on a boundary
# between size classes, where the value would jump from seed to seed.
# Infeasible n=60 searches are left out: each takes seconds, so the two or
# three of them a run has room for would set ops_per_s on their own.
FIT_MIX = (
    (30, True, 8, 6),
    (30, True, 16, 16),
    (60, True, 8, 1),
    (60, True, 16, 1),
    (30, False, 8, 1),
    (30, False, 16, 10),
)


def fit(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    groups = [
        [
            _fit_op(rng, m, n, dn, d, feasible)
            for _ in range(copies)
            for dn, d in FIT_DRAWS
        ]
        for n, feasible, m, copies in FIT_MIX
    ]
    # Interleave the groups evenly so every stretch of the pass has the mix.
    keyed = [((i + 0.5) / len(g), j, op) for j, g in enumerate(groups) for i, op in enumerate(g)]
    ops = [op for _, _, op in sorted(keyed, key=lambda t: (t[0], t[1]))]
    warm_rng = np.random.default_rng([seed, 3, 1])
    warm = [_fit_op(warm_rng, 8, 30, "uniform", rewards_uniform, True)]
    # The kernel raises on a few generated sets (see Workload.screen).
    return Workload(ops, warm, screen=True)


# -- cli -------------------------------------------------------------------
CASES_FILE = os.path.join(BENCH_DIR, "cli_cases", "cases.json")


def run_child(argv):
    """One CLI invocation in a fresh interpreter: (exit code, stdout bytes)."""
    env = dict(os.environ)
    trace_file = None
    if CTX.tracer is not None:
        CTX.child_runs += 1
        os.makedirs(os.path.join(OUT_DIR, "trace"), exist_ok=True)
        trace_file = os.path.join(OUT_DIR, "trace", f"child-{os.getpid()}-{CTX.child_runs}.json")
        env["DESIRABLES_BENCH_TRACE"] = trace_file
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=150,
    )
    wall = perf_counter() - t0
    if trace_file is not None:
        with open(trace_file, encoding="utf-8") as fh:
            data = json.load(fh)
        os.remove(trace_file)
        CTX.tracer.merge(data, CTX.tracer.op)
        CTX.process_s += wall - data["agg"].get("cli.main", [0, 0.0, 0.0])[1]
    return proc.returncode, proc.stdout


def cli_in_process(argv):
    """The same invocation through ``desirables.cli.main`` in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = D.cli.main(list(argv))
    return code, out.getvalue().encode("utf-8")


def _canon_cli(r) -> bytes:
    return str(r[0]).encode() + b"\n" + r[1]


def _cli_op(argv, label, check) -> Op:
    return Op(f"cli_{argv[0]}", label, lambda: run_child(argv), _canon_cli, check)


def _golden_check(case):
    def check(r):
        code, out = r
        if code != case["exit"]:
            return f"exit {code} != {case['exit']}"
        if out.decode("utf-8", "replace") != case["stdout"]:
            return "stdout differs from the bytes recorded for this fixture"
        return None

    return check


def _fmt(x) -> str:
    return repr(float(x))


def utility_conf(spec) -> str:
    if spec[0] == "power":
        return f'{{kind = "power_discounted", alpha = {_fmt(spec[1])}}}'
    if spec[0] == "log_power":
        return f'{{kind = "composed", base = {{kind = "log_shift"}}, phi = {{form = "power", p = {_fmt(spec[1])}}}}}'
    return f'{{kind = "{spec[0]}"}}'


def discount_conf(spec) -> str:
    kind = spec[0]
    if kind == "exponential":
        return f'{{kind = "exponential", r = {_fmt(spec[1])}}}'
    if kind == "hyperbolic":
        return f'{{kind = "hyperbolic", k = {_fmt(spec[1])}}}'
    if kind == "quasi_hyperbolic":
        return f'{{kind = "quasi_hyperbolic", beta = {_fmt(spec[1])}, delta = {_fmt(spec[2])}}}'
    if kind == "generalized_hyperbolic":
        return f'{{kind = "generalized_hyperbolic", k = {_fmt(spec[1])}, p = {_fmt(spec[2])}}}'
    if kind == "scale_dependent":
        eta = f'{{form = "inverse_log", log_base = {_fmt(spec[2])}}}'
        return f'{{kind = "scale_dependent", base = {discount_conf(spec[1])}, eta = {eta}}}'
    if kind == "state_dependent":
        rates = ", ".join(f"{k} = {_fmt(v)}" for k, v in spec[1])
        return f'{{kind = "state_dependent", rates = {{{rates}}}}}'
    return (
        f'{{kind = "hybrid", lambda = {_fmt(spec[1])}, '
        f"d1 = {discount_conf(spec[2])}, d2 = {discount_conf(spec[3])}}}"
    )


def schedule_conf(name, sched) -> str:
    pays = []
    for x, t, s in zip(*sched):
        state = "" if s is None else f', state = "{s}"'
        pays.append(f"{{amount = {_fmt(x)}, t = {_fmt(t)}{state}}}")
    return f'schedule "{name}" {{ pay = [{", ".join(pays)}] }}\n'


def _gamble_list(gs) -> str:
    return ", ".join("{rewards = [" + ", ".join(_fmt(v) for v in g) + "]}" for g in gs)


CURVES = (
    ("quasi", ("--beta", 0.6, 0.95, 0.05), ("--delta", 0.9, 0.99, 0.03)),
    ("generalized", ("--k", 0.1, 1.0, 0.1), ("--p", 0.5, 2.5, 0.5)),
    ("hybrid", ("--lambda", 0.0, 1.0, 0.25), ("--r", 0.05, 0.2, 0.05), ("--k", 0.5, 1.0, 0.5)),
)


def _scan_config(rng, path):
    """A 50-payment x 1000-shift scan config, regime and utility drawn by the seed."""
    regimes, utilities = regime_specs(rng), utility_specs(rng)
    d_spec = regimes[int(rng.integers(len(regimes)))]
    u_spec = utilities[int(rng.integers(len(utilities)))]
    a, b = schedule_pair(rng, SCAN_PAYMENTS, d_spec)
    shifts = ", ".join(f"{s:g}" for s in SCAN_SHIFTS)
    with open(os.path.join(ROOT, path), "w", encoding="utf-8") as fh:
        fh.write(f"utility {utility_conf(u_spec)}\n")
        fh.write(f"discount {discount_conf(d_spec)}\n")
        fh.write(schedule_conf("A", a) + schedule_conf("B", b))
        fh.write(f'scan {{ shifts = [{shifts}], a = "A", b = "B" }}\n')

    def scan_check(text):
        return checks.check_scan_csv(u_spec, d_spec, a, b, SCAN_SHIFTS, 1e-9, text)

    return scan_check


def _check_config(rng, path):
    """An m=8 / n=30 assessment config with a planted F2 and F3."""
    m, n = 8, 30
    w = rng.dirichlet(np.ones(m))
    acc, clean = labelled(rng, rewards_uniform, m, n, 2, w, -0.05)
    U = utility_matrix(acc, m)
    rej = [clean[0], dominating(rng, acc[int(rng.integers(n))]), in_cone(rng, U), clean[1]]
    UR = utility_matrix(rej, m)
    labels = ", ".join(f'"s{i}"' for i in range(m))
    with open(os.path.join(ROOT, path), "w", encoding="utf-8") as fh:
        fh.write('utility { kind = "log_shift" }\n')
        fh.write(f"states {{ labels = [{labels}] }}\n")
        fh.write(f"assessments {{\n  accepted = [{_gamble_list(acc)}]\n")
        fh.write(f"  rejected = [{_gamble_list(rej)}]\n}}\n")

    def audit_check(text):
        lines = [] if text == "coherent\n" else text.splitlines()
        return checks.check_audit(acc, rej, U, UR, lines)

    def fit_check(text):
        lines = text.splitlines()
        if lines[:1] != ["infeasible"]:
            return "fit on a set with a dominating rejected gamble must be infeasible"
        conflict = []
        for line in lines[1:]:
            kind, index = line.removeprefix("conflict: ").rstrip("]").split("[")
            conflict.append((kind, int(index)))
        return checks.check_fit(U, UR, FIT_EPS, False, "infeasible", tuple(conflict))

    return audit_check, fit_check


def _curves_argv(rng):
    regime, *params = CURVES[int(rng.integers(len(CURVES)))]
    argv = ["curves", "--regime", regime, "--t", f"0:{int(rng.integers(20, 60))}:0.5"]
    for flag, lo, hi, step in params:
        argv += [flag, f"{lo:g}:{hi:g}:{step:g}"]
    return argv


# Generated configs per pass, next to the recorded fixture cases: enough
# operations that the pass tail has 10 samples beyond it above the median.
CLI_SCANS = 4
CLI_CHECKS = 2
CLI_CURVES = 3


def cli(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 4])
    with open(CASES_FILE, encoding="utf-8") as fh:
        cases = json.load(fh)
    ops = [_cli_op(c["argv"], f"fixture {c['name']}", _golden_check(c)) for c in cases]

    rel = os.path.relpath(os.path.join(OUT_DIR, "cli", f"seed-{seed}"), ROOT)
    os.makedirs(os.path.join(ROOT, rel), exist_ok=True)
    generated = []
    for i in range(CLI_SCANS):
        path = os.path.join(rel, f"scan{i}.conf")
        scan_check = _scan_config(rng, path)
        generated += [(["scan", "--config", path], scan_check), (["eval", "--config", path], None)]
    for i in range(CLI_CHECKS):
        path = os.path.join(rel, f"check{i}.conf")
        audit_check, fit_check = _check_config(rng, path)
        generated += [(["check", "--config", path], audit_check), (["fit", "--config", path], fit_check)]
    generated += [(_curves_argv(rng), None) for _ in range(CLI_CURVES)]

    expected: dict = {}

    def same_as_in_process(argv, extra):
        def check(r):
            key = tuple(argv)
            if key not in expected:
                expected[key] = cli_in_process(argv)
            if tuple(r) != expected[key]:
                return f"child output differs from in-process cli.main{argv}"
            return extra(r[1].decode("utf-8")) if extra else None

        return check

    for argv, extra in generated:
        ops.append(_cli_op(argv, f"generated {' '.join(argv[:3])}", same_as_in_process(argv, extra)))
    # Interleave fixtures and generated configs.
    order = np.random.default_rng(0).permutation(len(ops))
    return Workload([ops[i] for i in order], [], CHILD_REFERENCE)


BUILDERS = {"valuation": valuation, "accept": accept, "fit": fit, "cli": cli}
