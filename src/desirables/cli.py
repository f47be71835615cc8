"""Command-line front end: eval, scan, check, fit, and curves.

Exit codes: 0 ok/coherent, 1 incoherent findings or infeasible fit,
2 usage/parse/validation errors, 3 domain or runtime errors.  Commands raise;
``main`` alone turns an exception into an error line and an exit code.  All
output is UTF-8 with LF line endings; CSV fields containing commas are quoted.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import sys

from . import config as configmod
from .errors import ConfigError, DesirablesError, SpaceMismatch
from .intertemporal import reversal_scan, schedule_value

_EXIT_OK = 0
_EXIT_FINDINGS = 1
_EXIT_USAGE = 2
_EXIT_RUNTIME = 3


def _load_scenario(path: str) -> configmod.Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    return configmod.build_scenario(configmod.parse(text))


def cmd_eval(args) -> int:
    scenario = _load_scenario(args.config)
    if not scenario.schedules:
        raise ValueError("no schedules")
    if scenario.discount is None:
        raise ValueError("no discount block")
    rows = []
    for name, sch in scenario.schedules.items():
        value = schedule_value(
            scenario.utility, scenario.discount, sch, round_factors=args.paper_rounding
        )
        rows.append((name, value))
    print("schedule\tvalue")
    for name, value in rows:
        print(f"{name}\t{value:.6g}")
    return _EXIT_OK


def cmd_scan(args) -> int:
    scenario = _load_scenario(args.config)
    if scenario.discount is None:
        raise ValueError("no discount block")
    if scenario.scan_shifts is None or scenario.scan_pair is None:
        raise ValueError("no scan block")
    name_a, name_b = scenario.scan_pair
    result = reversal_scan(
        scenario.utility,
        scenario.discount,
        scenario.schedules[name_a],
        scenario.schedules[name_b],
        scenario.scan_shifts,
        tol=args.tol,
        round_factors=args.paper_rounding,
    )
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["delta", "value_a", "value_b", "preference"])
    for (delta, pref), va, vb in zip(result.trace, result.value_a, result.value_b):
        writer.writerow([f"{delta:g}", f"{va:.10g}", f"{vb:.10g}", pref.value])
    if result.first_flip is None:
        print("no reversal")
    else:
        print(f"first flip at delta={result.first_flip:g}")
    return _EXIT_OK


def _assessment_set(args):
    scenario = _load_scenario(args.config)
    if not scenario.has_assessments:
        raise ValueError("no assessments block")
    space = scenario.states
    assessed = scenario.assessments_accepted + scenario.assessments_rejected
    if space is None and assessed:
        space = assessed[0].space
    if space is None:
        raise ValueError("assessments need a states block or inline gamble states")
    from .coherence import AssessmentSet  # check and fit alone import coherence and lp
    return AssessmentSet(
        space=space,
        utility=scenario.utility,
        accepted=tuple(scenario.assessments_accepted),
        rejected=tuple(scenario.assessments_rejected),
    )


def cmd_check(args) -> int:
    aset = _assessment_set(args)
    from .coherence import audit
    findings = audit(aset)
    if not findings:
        print("coherent")
        return _EXIT_OK
    for finding in findings:
        print(finding)
    return _EXIT_FINDINGS


def cmd_fit(args) -> int:
    aset = _assessment_set(args)
    from .coherence import Functional, fit_functional
    result = fit_functional(aset, strict_margin=args.strict_margin)
    if isinstance(result, Functional):
        print("state\tweight")
        for label, w in zip(aset.space.labels, result.weights):
            print(f"{label}\t{w:.6g}")
        return _EXIT_OK
    print("infeasible")
    for kind, index in result.conflict:
        print(f"conflict: {kind}[{index}]")
    return _EXIT_FINDINGS


# Most points one lo:hi:step range may expand to (plotted sweeps take about a hundred).
_MAX_RANGE_POINTS = 100_000


def _parse_range(text: str) -> list[float]:
    """A number, or lo:hi:step as lo, lo + step, ... up to hi; ValueError names the flaw."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) != 3:
            raise ValueError
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"malformed range {text!r}; use a number or lo:hi:step") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"malformed range {text!r}; lo, hi and step must be finite")
    if step <= 0 or hi < lo:
        raise ValueError(f"malformed range {text!r}; need step > 0 and hi >= lo")
    span = (hi - lo) / step  # inf if hi - lo overflows
    if not span < _MAX_RANGE_POINTS - 0.5:
        raise ValueError(f"range {text!r} has more than {_MAX_RANGE_POINTS} points")
    n = int(round(span))
    values = [lo + i * step for i in range(n + 1)]
    if values[-1] > hi + 1e-9 * step:
        values.pop()
    return values


_EXP = {"kind": "exponential", "r": None}

# Each regime's swept parameters and its discount block.  Every flag is named
# after the config key it sets: a None in the block takes the value of the
# parameter (or --log-base) of that name at each point; --x is the reward.
_CURVE_PARAMS = {
    "exponential": (("r",), _EXP),
    "hyperbolic": (("k",), {"kind": "hyperbolic", "k": None}),
    "quasi": (("beta", "delta"), {"kind": "quasi_hyperbolic", "beta": None, "delta": None}),
    "generalized": (("k", "p"), {"kind": "generalized_hyperbolic", "k": None, "p": None}),
    "scale": (
        ("r", "x"),
        {"kind": "scale_dependent", "base": _EXP, "eta": {"form": "inverse_log", "log_base": None}},
    ),
    "state": (("r",), _EXP),
    "hybrid": (
        ("lambda", "r", "k"),
        {"kind": "hybrid", "lambda": None, "d1": _EXP, "d2": {"kind": "hyperbolic", "k": None}},
    ),
}


# The swept flags, each a number or a lo:hi:step range, with their help text.
_SWEPT = {
    "r": "rate(s)",
    "k": "hyperbolic k value(s)",
    "p": "generalized power(s)",
    "beta": "present-bias beta value(s)",
    "delta": "long-run delta value(s)",
    "lambda": "mixture weight(s)",
    "x": "reward(s) for scale-dependent curves",
}
_RANGE_FLAGS = frozenset(f"--{name}" for name in ("t", *_SWEPT))


def _join_range_values(argv: list[str]) -> list[str]:
    """Join ``--t -1:0:1`` into ``--t=-1:0:1``: argparse would read the value as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _RANGE_FLAGS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _fill(block: dict, params: dict) -> dict:
    return {
        key: _fill(value, params) if isinstance(value, dict) else params.get(key, value)
        for key, value in block.items()
    }


def cmd_curves(args) -> int:
    regime = args.regime
    wanted, block = _CURVE_PARAMS[regime]
    times = _parse_range(args.t)
    supplied = {
        name: None if getattr(args, name) is None else _parse_range(getattr(args, name))
        for name in _SWEPT
    }
    for name in wanted:
        if supplied[name] is None:
            raise ValueError(f"regime {regime!r} needs --{name}")
    for name, value in supplied.items():
        if value is not None and name not in wanted:
            raise ValueError(f"regime {regime!r} does not use --{name}")

    grids = [supplied[name] for name in wanted]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["regime", "param_set", "t", "factor"])
    try:
        for combo in itertools.product(*grids):
            params = dict(zip(wanted, combo), log_base=args.log_base)
            tree = configmod.ConfigTree(data={"discount": _fill(block, params)})
            spec = configmod.build_scenario(tree).discount
            label = ",".join(f"{name}={value:g}" for name, value in zip(wanted, combo))
            for t in times:  # the scalar formula, as eval evaluates it
                factor = spec.factor(t, params.get("x"))
                writer.writerow([regime, label, f"{t:g}", f"{factor:.10g}"])
    except ConfigError as exc:  # the user wrote no config here: not a parse error
        raise ValueError(str(exc)) from None
    return _EXIT_OK


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="scenario config path")
    sub.add_argument(
        "--paper-rounding",
        action="store_true",
        help="round primitive discount factors to two decimals",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="desirables",
        description="Evaluate, compare, and audit gambles under non-linear utility "
        "and flexible discounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="value every schedule in a config")
    _add_config_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_scan = sub.add_parser("scan", help="preference-reversal scan over time shifts")
    _add_config_flags(p_scan)
    p_scan.add_argument("--tol", type=float, default=1e-9, help="indifference tolerance")
    p_scan.set_defaults(func=cmd_scan)

    p_check = sub.add_parser("check", help="audit assessments for coherence")
    _add_config_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_fit = sub.add_parser("fit", help="fit representation weights to assessments")
    _add_config_flags(p_fit)
    p_fit.add_argument(
        "--strict-margin",
        type=float,
        default=1e-6,
        help="rejection margin epsilon (strict inequalities are not expressible in an LP)",
    )
    p_fit.set_defaults(func=cmd_fit)

    p_curves = sub.add_parser("curves", help="emit discount-curve data as CSV")
    p_curves.add_argument("--regime", required=True, choices=sorted(_CURVE_PARAMS))
    # Each takes a number or a lo:hi:step range, expanded by cmd_curves.
    p_curves.add_argument("--t", required=True, help="delays, lo:hi:step")
    for name, text in _SWEPT.items():
        p_curves.add_argument(f"--{name}", help=text)
    p_curves.add_argument("--log-base", type=float, default=10.0)
    p_curves.set_defaults(func=cmd_curves)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["curves"]:
        argv = _join_range_values(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        message, code = f"parse error: {exc}", _EXIT_USAGE
    except (ValueError, SpaceMismatch) as exc:  # bad arguments or assessments
        message, code = f"error: {exc}", _EXIT_USAGE
    except DesirablesError as exc:
        message, code = f"error: {exc}", _EXIT_RUNTIME
    print(message, file=sys.stderr)
    return code


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
