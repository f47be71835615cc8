"""Closed-loop benchmark of the desirables toolkit.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {valuation,accept,fit,cli} --seed N \
        --seconds S --trace {0,1}

One caller, one process, no threads: each operation starts when the
previous one returns (the ``cli`` workload runs one child interpreter at a
time).  Inputs are generated from ``--seed``; a pass is a fixed list of
operations, repeated until ``--seconds`` have elapsed and at least two passes
are complete.  Every distinct operation's output is checked after timing by
the independent checkers in ``checks.py``; repeated executions must give
identical results.

Each execution's time is scaled by a host-speed probe taken between ops,
and an op's latency is the median of its scaled executions (see README.md:
the host's speed drifts by up to 2x).

``--trace 0`` prints the end-to-end metrics (tracing off).  ``--trace 1``
runs one untraced pass and then the same pass with every layer's public
entry points rebound to span recorders (``spans.py``), and prints the
per-layer metrics; both passes must give the same digest.

The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the environment, per-class latencies and sample counts, failed
operations and the result digest.  Failures are operations that raised or
whose output failed its check; ``NumericalInstability`` and
``DimensionError`` from the kernel count as failed without stopping the run.
A workload with ``screen`` set (``accept``, ``fit``) first runs each op once, untimed,
and leaves out the ops on which the kernel raises: the report lists them
with their reason, and ``--trace 1`` counts them as ``lp.kernel_failed_ops``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# Each op runs at least this often, so its latency does not rest on one spell
# of the host; more would make the fit and cli runs too long.
MIN_PASSES = 2
SAMPLE_CAP = 16

# Per-class latency metrics for the report: (class prefix, name, scale, unit).
CLASS_METRICS = (
    ("scan", "scan_p50_ms", 1e3, "ms"),
    ("compare", "compare_p50_us", 1e6, "us"),
    ("value", "value_p50_us", 1e6, "us"),
    ("accept_yes", "accept_yes_p50_ms", 1e3, "ms"),
    ("accept_no", "accept_no_p50_ms", 1e3, "ms"),
    ("audit", "audit_p50_ms", 1e3, "ms"),
    ("fit_feasible", "fit_feasible_p50_ms", 1e3, "ms"),
    ("fit_infeasible", "fit_infeasible_p50_ms", 1e3, "ms"),
    ("cli_", "cli_p50_ms", 1e3, "ms"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("valuation", "accept", "fit", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Executes ops closed-loop and keeps what the checks and metrics need."""

    def __init__(self, ops, reference, tracer=None):
        self.ops = ops
        self.reference = reference
        self.tracer = tracer
        self.slot: dict[int, int] = {}
        self.distinct = []
        for op in ops:
            if id(op) not in self.slot:
                self.slot[id(op)] = len(self.distinct)
                self.distinct.append(op)
        n = len(self.distinct)
        self.first: list[bytes | None] = [None] * n
        self.results: list = [None] * n
        self.errors: dict[int, BaseException] = {}
        self.nondeterministic: set[int] = set()
        # Per distinct op: executions, and scaled times of every stride-th one,
        # thinned so that at most 2 * SAMPLE_CAP stay, spread over the run.
        self.count = [0] * n
        self.samples: list[list[float]] = [[] for _ in range(n)]
        self.stride = [1] * n
        self.executions = 0
        self.raw_seconds = 0.0
        # Speed probes; executions since the last probe wait for the next one,
        # so memory does not grow with the number of executions.
        self.probes = array("d")
        self._pending: list[tuple[int, float]] = []

    def execute(self, i: int) -> float:
        op = self.ops[i % len(self.ops)]
        k = self.slot[id(op)]
        if self.tracer is not None:
            self.tracer.op = i
        error = None
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # counted as a failed operation, never fatal
            result, error = None, exc
        dt = perf_counter() - t0
        self.executions += 1
        self.raw_seconds += dt
        self._pending.append((k, dt))
        if error is None:
            canon = hashlib.sha256(op.canon(result)).digest()
        else:
            line = str(error).split("\n", 1)[0]
            canon = hashlib.sha256(f"{type(error).__name__}: {line}".encode()).digest()
        if self.first[k] is None:
            self.first[k] = canon
            self.results[k] = result
            if error is not None:
                self.errors[k] = error
        elif canon != self.first[k]:
            self.nondeterministic.add(k)
        return dt

    def probe(self) -> None:
        """Time the speed probe; scale the executions since the previous probe.

        An execution's local speed is the mean of the probes on either side of
        its stretch of ops; its scaled time is what it would take on a host
        where the probe takes the reference's nominal time.  Executions are
        counted here too, so ``count`` covers every execution once the loop
        has ended.
        """
        p = self.reference.measure()
        if self._pending:
            scale = self.reference.nominal_s * 2.0 / (self.probes[-1] + p)
            for k, d in self._pending:
                self.count[k] += 1
                if (self.count[k] - 1) % self.stride[k] == 0:
                    kept = self.samples[k]
                    kept.append(d * scale)
                    if len(kept) >= 2 * SAMPLE_CAP:
                        del kept[1::2]
                        self.stride[k] *= 2
            self._pending.clear()
        self.probes.append(p)

    def latency(self, k: int) -> float:
        """An op's latency: the median of its scaled executions."""
        return statistics.median(self.samples[k])

    def loop(self, seconds: float | None = None, passes: int | None = None) -> float:
        """Run exactly ``passes`` passes, or for ``seconds`` and at least MIN_PASSES."""
        n = len(self.ops)
        i = 0
        start = perf_counter()
        deadline = start + (seconds or 0.0)
        self.probe()
        since_probe = 0.0
        while True:
            since_probe += self.execute(i)
            if since_probe >= self.reference.every_s:
                self.probe()
                since_probe = 0.0
            i += 1
            if passes is not None:
                if i >= passes * n:
                    break
            elif i >= MIN_PASSES * n and perf_counter() >= deadline:
                break
        if self._pending:
            self.probe()
        return perf_counter() - start

    def digest(self) -> str:
        h = hashlib.sha256()
        for canon in self.first:
            h.update(canon)
        return h.hexdigest()


def percentile_tail(sorted_values):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it."""
    n = len(sorted_values)
    if n <= TAIL_BEYOND:
        return sorted_values[-1], 100.0
    return sorted_values[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    code = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "import desirables, desirables.cli\n"
        "print(repr(time.perf_counter() - t))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    if out.returncode != 0:
        raise RuntimeError(f"cannot import desirables: {out.stderr.strip()}")
    return float(out.stdout)


def source_hash() -> str:
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "desirables"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".json", ".conf")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def commit_id() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int, src_hash: str) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seed": seed,
        "commit": commit_id(),
        "source_sha256": src_hash,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def screen_ops(ops, kernel_errors) -> tuple[list, list[dict]]:
    """Run each op once; (ops the kernel solves, left-out ops with their reason).

    Other exceptions are not screened: the timed loop meets them and they
    count as failed.
    """
    dropped: dict[int, str] = {}
    for op in {id(op): op for op in ops}.values():
        try:
            op.run()
        except kernel_errors as exc:
            line = str(exc).split("\n", 1)[0]
            dropped[id(op)] = f"{type(exc).__name__}: {line}"
        except Exception:  # noqa: BLE001  (left for the timed loop to count)
            pass
    kept = [op for op in ops if id(op) not in dropped]
    screened = [
        {"op": op.label, "position": i, "reason": dropped[id(op)]}
        for i, op in enumerate(ops)
        if id(op) in dropped
    ]
    return kept, screened


def check_outputs(runner: Runner, kernel_errors) -> tuple[dict, dict]:
    """Check every distinct op once; returns (failed slots -> reason, unexpected errors)."""
    failed, unexpected = {}, {}
    for k, op in enumerate(runner.distinct):
        if runner.first[k] is None:
            continue
        if k in runner.errors:
            err = runner.errors[k]
            reason = f"{type(err).__name__}: {str(err).splitlines()[0] if str(err) else ''}"
            failed[k] = reason
            if not isinstance(err, kernel_errors):
                unexpected[k] = reason
            continue
        try:
            msg = op.check(runner.results[k])
        except Exception as exc:  # a checker that cannot decide is a failed check
            msg = f"checker raised {type(exc).__name__}: {exc}"
        if msg is not None:
            failed[k] = msg
            unexpected[k] = msg
    for k in runner.nondeterministic:
        failed.setdefault(k, "repeated execution gave a different result")
        unexpected.setdefault(k, "repeated execution gave a different result")
    return failed, unexpected


def stored_digest(workload: str, seed: int, src_hash: str, digest: str) -> str | None:
    """Compare with (or record) the digest of an earlier run of the same seed and code."""
    folder = os.path.join(ROOT, ".bench_out", "digests")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{workload}-seed{seed}-{src_hash[:16]}.txt")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = fh.read().strip()
        if earlier != digest:
            return f"digest {digest} differs from an earlier run of this seed ({earlier})"
        return None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(digest + "\n")
    return None


def latency_summary(values) -> dict:
    values = sorted(values)
    tail, pct = percentile_tail(values)
    return {
        "ops_per_s": len(values) / sum(values),
        "p50_s": statistics.median(values),
        "tail_s": tail,
        "tail_percentile": pct,
        "samples": len(values),
    }


def end_to_end(runner: Runner, setup_s: float, rss: float) -> tuple[dict, dict]:
    """End-to-end metrics over the latency of each op in the pass."""
    latencies = [runner.latency(k) for k in range(len(runner.distinct))]
    per_position = [latencies[runner.slot[id(op)]] for op in runner.ops]
    s = latency_summary(per_position)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (s["ops_per_s"], "1/s"),
        "op_p50_ms": (1e3 * s["p50_s"], "ms"),
        "op_tail_ms": (1e3 * s["tail_s"], "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    by_class: dict[str, list[float]] = {}
    for op, d in zip(runner.ops, per_position):
        by_class.setdefault(op.cls, []).append(d)
    classes = {}
    for prefix, name, scale, unit in CLASS_METRICS:
        values = [d for cls, ds in by_class.items() if cls.startswith(prefix) for d in ds]
        if values:
            classes[name] = {"value": scale * statistics.median(values), "unit": unit, "samples": len(values)}
    for cls, values in sorted(by_class.items()):
        if cls.startswith("cli_"):
            classes[f"{cls}_p50_ms"] = {
                "value": 1e3 * statistics.median(values),
                "unit": "ms",
                "samples": len(values),
            }
    probes = sorted(runner.probes)
    detail = {
        "reference": {
            "probe": runner.reference.measure.__name__,
            "nominal_s": runner.reference.nominal_s,
            "probes": len(probes),
            "min_s": probes[0],
            "median_s": statistics.median(probes),
        },
        "classes": classes,
        "op_tail": {"percentile": s["tail_percentile"], "samples": s["samples"], "beyond": TAIL_BEYOND},
        "raw_executions": {
            "executions": runner.executions,
            "ops_per_s": runner.executions / runner.raw_seconds,
        },
    }
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "desirables", "__init__.py")):
        print("error: src/desirables not found; run from the root of a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import desirables
    import spans
    import workloads

    kernel_errors = (desirables.NumericalInstability, desirables.DimensionError)
    src_hash = source_hash()

    # Set-up: package import (fresh interpreter), input generation, warm-up;
    # each scaled by the speed probe of its kind taken just before it.
    child, mix = workloads.CHILD_REFERENCE, workloads.MIX_REFERENCE
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        scale = child.nominal_s / child.measure()
        imports.append(import_seconds() * scale)
        scale = mix.nominal_s / mix.measure()
        t0 = perf_counter()
        wl = workloads.BUILDERS[args.workload](args.seed)
        for op in wl.warmup:
            op.run()
        builds.append((perf_counter() - t0) * scale)
    setup_s = statistics.median(imports) + statistics.median(builds)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed, src_hash),
        "setup": {"import_s": imports, "build_and_warmup_s": builds},
    }
    ops, screened = wl.ops, []
    if wl.screen:
        t0 = perf_counter()
        ops, screened = screen_ops(wl.ops, kernel_errors)
        report["screen_s"] = perf_counter() - t0
        if not ops:
            print("error: the kernel raised on every op of the pass", file=sys.stderr)
            return 1
    report["ops_per_pass"] = len(ops)
    report["generated_ops_per_pass"] = len(wl.ops)
    report["screened"] = screened
    problems = []
    if args.trace == 0:
        runner = Runner(ops, wl.reference)
        wall = runner.loop(seconds=args.seconds)
        rss = peak_rss_mb()
        runners = [runner]
        report["wall_s"] = wall
        report["passes"] = runner.executions / len(ops)
    else:
        untraced = Runner(ops, wl.reference)
        wall0 = untraced.loop(passes=1)
        tracer = spans.Tracer()
        tracer.install()
        workloads.CTX.tracer = tracer
        traced = Runner(ops, wl.reference, tracer)
        try:
            wall1 = traced.loop(passes=1)
        finally:
            tracer.uninstall()
            workloads.CTX.tracer = None
        rss = peak_rss_mb()
        runners = [untraced, traced]
        runner = untraced
        report["wall_s"] = {"untraced": wall0, "traced": wall1}
        if traced.digest() != untraced.digest():
            problems.append("traced pass digest differs from the untraced pass")
        if tracer.missing:
            report["trace_missing"] = tracer.missing
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        span_file = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.json")
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)
        report["span_file"] = os.path.relpath(span_file, ROOT)

    failed, unexpected = check_outputs(runner, kernel_errors)
    if args.trace == 1:
        for k in traced.nondeterministic | set(traced.errors) - set(untraced.errors):
            unexpected.setdefault(k, "traced execution differs from untraced")
            failed.setdefault(k, "traced execution differs from untraced")
    # The screened ops and their reasons are part of the result.
    digest = hashlib.sha256((runner.digest() + json.dumps(screened)).encode()).hexdigest()
    stored = stored_digest(args.workload, args.seed, src_hash, digest)
    if stored is not None:
        problems.append(stored)

    attempted = sum(r.executions for r in runners)
    failed_count = sum(r.count[k] for r in runners for k in failed)
    # Latencies come from untraced executions only.
    e2e, detail = end_to_end(runner, setup_s, rss)
    report["digest"] = digest
    report["fail_frac"] = failed_count / attempted
    report["screened_frac"] = len(screened) / len(wl.ops)
    report["evidence_missing"] = wl.notes["evidence_missing"]
    report["failures"] = [
        {
            "op": runner.distinct[k].label,
            "position": next(i for i, op in enumerate(runner.ops) if op is runner.distinct[k]),
            "reason": reason,
            "kernel": k not in unexpected,
        }
        for k, reason in sorted(failed.items())
    ]
    report["problems"] = problems
    report.update(detail)

    if args.trace == 0:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}
    else:
        layer = spans.layer_metrics(tracer, workloads.CTX.process_s, wall1 / wall0)
        layer["lp.kernel_failed_ops"] = (len(screened), "count", "lower")
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in layer.items()}
        report["end_to_end_untraced"] = {
            name: {"value": v, "unit": u} for name, (v, u) in e2e.items()
        }
    correct = not unexpected and not problems
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed_count, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
