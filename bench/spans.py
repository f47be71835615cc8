"""In-memory span tracing around the public entry points of each layer.

The library is not edited: :meth:`Tracer.install` rebinds each public name
(``lp.solve``, ``Utility.eval``, ``intertemporal.schedule_value``, ...) to a
wrapper that records a span, in every ``desirables`` module that holds the
name, including modules that imported it with ``from ... import``.  Private
helpers are never touched, so a span's self time includes the private work
done under it.

Spans stay in memory and are written out once, at the end of a run.  The
per-payment and per-shift calls (utility, discount, transform, and the
intertemporal helpers under a scan) are only aggregated into calls, total
and self time, because one 50 x 1000 scan makes a hundred thousand of them;
every other span is kept with its parent, so ratios such as LP solves per
decision are measured where the work happens.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from time import perf_counter

# (module, attribute path, span name).  A dotted attribute path names a method.
TARGETS = (
    ("desirables.lp", "solve", "lp.solve"),
    ("desirables.coherence", "accept_decision", "coherence.accept_decision"),
    ("desirables.coherence", "check_partial_loss", "coherence.check_partial_loss"),
    ("desirables.coherence", "audit", "coherence.audit"),
    ("desirables.coherence", "fit_functional", "coherence.fit_functional"),
    (
        "desirables.coherence",
        "AssessmentSet.transformed_generators",
        "coherence.transformed_generators",
    ),
    ("desirables.gamble", "transform", "gamble.transform"),
    ("desirables.utility", "Utility.eval", "utility.eval"),
    ("desirables.discount", "DiscountSpec.factor", "discount.factor"),
    ("desirables.intertemporal", "schedule_value", "intertemporal.schedule_value"),
    ("desirables.intertemporal", "compare", "intertemporal.compare"),
    ("desirables.intertemporal", "shift_schedule", "intertemporal.shift_schedule"),
    ("desirables.intertemporal", "reversal_scan", "intertemporal.reversal_scan"),
    ("desirables.config", "parse", "config.parse"),
    ("desirables.config", "build_scenario", "config.build_scenario"),
    ("desirables.cli", "main", "cli.main"),
)

AGGREGATE_ONLY = frozenset(
    {
        "utility.eval",
        "discount.factor",
        "gamble.transform",
        "intertemporal.schedule_value",
        "intertemporal.compare",
        "intertemporal.shift_schedule",
    }
)


def _note_solve(args, result):
    p = args[0]
    return {
        "rows": len(p.constraints),
        "vars": len(p.objective),
        "status": result.status.value,
    }


def _note_decision(args, result):
    return {
        "accepted": bool(result.accepted),
        "evidence": result.witness is not None or result.certificate is not None,
    }


def _note_fit(args, result):
    a = args[0]
    note = {"constraints": len(a.accepted) + len(a.rejected)}
    conflict = getattr(result, "conflict", None)
    if conflict is None:
        note["outcome"] = "feasible"
    else:
        note["outcome"] = "infeasible"
        note["conflict"] = len(conflict)
    return note


NOTES = {
    "lp.solve": _note_solve,
    "coherence.accept_decision": _note_decision,
    "coherence.fit_functional": _note_fit,
}


class Tracer:
    """Span recorder.  One instance per process; spans belong to the current op."""

    def __init__(self):
        self.op = -1
        self.spans: list[dict] = []
        # name -> [calls, total_s, self_s]
        self.agg: dict[str, list] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._installed: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def wrap(self, name, fn):
        keep = name not in AGGREGATE_ONLY
        note = NOTES.get(name)
        counts_solve = name == "lp.solve"
        stack = self._stack
        spans = self.spans
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            # [child seconds, direct lp.solve children, span id]
            frame = [0.0, 0, self._next_id]
            stack.append(frame)
            error = None
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                    if counts_solve:
                        parent[1] += 1
                agg[0] += 1
                agg[1] += dur
                agg[2] += own
                if keep:
                    span = {
                        "id": frame[2],
                        "parent": parent[2] if parent is not None else None,
                        "op": self.op,
                        "name": name,
                        "start": t0,
                        "end": t1,
                        "self": own,
                        "solves": frame[1],
                    }
                    if error is not None:
                        span["error"] = error
                    elif note is not None:
                        span.update(note(args, result))
                    spans.append(span)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every target name in every loaded ``desirables`` module."""
        for module_name, attr_path, span_name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(span_name)
                continue
            owner_name, _, attr = attr_path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(span_name)
                continue
            wrapper = self.wrap(span_name, original)
            if owner_name:
                self._rebind(owner, attr, original, wrapper)
                continue
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "desirables" and not name.startswith("desirables."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- export and merge --------------------------------------------------
    def export(self) -> dict:
        return {"agg": self.agg, "spans": self.spans, "missing": self.missing}

    def merge(self, data: dict, op: int) -> None:
        """Fold a child process's export into this tracer under op index ``op``."""
        for name, (calls, total, own) in data["agg"].items():
            agg = self.agg.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += own
        offset = self._next_id
        for span in data["spans"]:
            span = dict(span)
            span["id"] += offset
            if span["parent"] is not None:
                span["parent"] += offset
            span["op"] = op
            self._next_id = max(self._next_id, span["id"])
            self.spans.append(span)
        for name in data["missing"]:
            if name not in self.missing:
                self.missing.append(name)


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, process_s: float, overhead: float) -> dict:
    """Per-layer metrics over everything the tracer recorded.

    ``process_s`` is child wall time minus in-process ``cli.main`` time, summed
    over CLI child runs; ``overhead`` is traced over untraced wall time.
    """
    by_name: dict[str, list[dict]] = {}
    for span in tracer.spans:
        by_name.setdefault(span["name"], []).append(span)

    def agg(name, i):
        return tracer.agg.get(name, [0, 0.0, 0.0])[i]

    solves = by_name.get("lp.solve", [])
    solved = [s for s in solves if "error" not in s]
    decisions = [s for s in by_name.get("coherence.accept_decision", []) if "error" not in s]
    yes = [s["solves"] for s in decisions if s["accepted"]]
    no = [s["solves"] for s in decisions if not s["accepted"]]
    fits = [s for s in by_name.get("coherence.fit_functional", []) if "error" not in s]
    infeasible = [s for s in fits if s["outcome"] == "infeasible"]
    # Each constraint left out of the final conflict was dropped by a trial
    # solve; the first solve of a search is the full system, not a trial.
    trials = sum(s["solves"] - 1 for s in infeasible)
    drops = sum(s["constraints"] - s["conflict"] for s in infeasible)

    m = {
        "lp.solve.calls": (len(solves), "count", "lower"),
        "lp.solve.self_s": (agg("lp.solve", 2), "s", "lower"),
        "lp.solve.p50_ms": (
            1e3 * statistics.median([s["end"] - s["start"] for s in solves]) if solves else 0.0,
            "ms",
            "lower",
        ),
        "lp.solve.rows_mean": (_mean([s["rows"] for s in solved]), "count", "lower"),
        "lp.solve.vars_mean": (_mean([s["vars"] for s in solved]), "count", "lower"),
        "lp.solve.infeasible_frac": (
            _mean([s["status"] == "infeasible" for s in solved]),
            "ratio",
            "lower",
        ),
        "lp.solve.errors": (len(solves) - len(solved), "count", "lower"),
        "coherence.solves_per_accept_yes": (_mean(yes), "count", "lower"),
        "coherence.solves_per_accept_no": (_mean(no), "count", "lower"),
        "coherence.evidence_missing": (
            sum(1 for s in decisions if not s["evidence"]),
            "count",
            "lower",
        ),
        "coherence.solves_per_fit_infeasible": (
            _mean([s["solves"] for s in infeasible]),
            "count",
            "lower",
        ),
        "coherence.conflict_drop_ratio": (drops / trials if trials else 0.0, "ratio", "higher"),
        "coherence.transformed_generators.calls": (
            agg("coherence.transformed_generators", 0),
            "count",
            "lower",
        ),
        "gamble.transform.self_s": (agg("gamble.transform", 2), "s", "lower"),
        "coherence.accept_decision.self_s": (agg("coherence.accept_decision", 2), "s", "lower"),
        "coherence.check_partial_loss.self_s": (
            agg("coherence.check_partial_loss", 2),
            "s",
            "lower",
        ),
        "coherence.fit_functional.self_s": (agg("coherence.fit_functional", 2), "s", "lower"),
        "utility.eval.calls": (agg("utility.eval", 0), "count", "lower"),
        "utility.eval.self_s": (agg("utility.eval", 2), "s", "lower"),
        "discount.factor.calls": (agg("discount.factor", 0), "count", "lower"),
        "discount.factor.self_s": (agg("discount.factor", 2), "s", "lower"),
    }
    for fn in ("schedule_value", "compare", "shift_schedule", "reversal_scan"):
        name = f"intertemporal.{fn}"
        m[f"{name}.self_s"] = (agg(name, 2), "s", "lower")
    for name in ("config.parse", "config.build_scenario", "cli.main"):
        m[f"{name}.self_s"] = (agg(name, 2), "s", "lower")
    m["cli.process_s"] = (process_s, "s", "lower")
    m["trace.overhead_frac"] = (overhead, "ratio", "lower")
    return m
