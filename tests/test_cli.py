import csv
import io
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from desirables import (
    Exponential,
    GeneralizedHyperbolic,
    Hybrid,
    Hyperbolic,
    InverseLog,
    QuasiHyperbolic,
    ScaleDependent,
    cli,
)
from desirables.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def eval_rows(out):
    lines = out.strip().splitlines()
    assert lines[0] == "schedule\tvalue"
    return {name: float(value) for name, value in (ln.split("\t") for ln in lines[1:])}


def test_eval_business_cycle_expansion(capsys):
    rc, out, _ = run(capsys, "eval", "--config", str(DATA / "cycle_expansion.conf"))
    assert rc == 0
    rows = eval_rows(out)
    assert abs(rows["y1"] - 951) <= 0.5
    assert abs(rows["y3"] - 861) <= 0.5
    assert abs(rows["y5"] - 779) <= 0.5


def test_eval_prints_six_significant_digits(capsys):
    rc, out, _ = run(capsys, "eval", "--config", str(DATA / "cycle_expansion.conf"))
    assert rc == 0
    assert "y1\t951.229" in out


def test_eval_generalized_hyperbolic_modes(capsys):
    rc, out, _ = run(capsys, "eval", "--config", str(DATA / "ghyp_p05.conf"))
    assert rc == 0
    assert eval_rows(out)["A"] == pytest.approx(184.8528137423857, abs=1e-3)

    rc, out, _ = run(
        capsys, "eval", "--config", str(DATA / "ghyp_p05.conf"), "--paper-rounding"
    )
    assert rc == 0
    assert eval_rows(out)["A"] == pytest.approx(185.2, abs=1e-9)


def test_eval_empty_schedules_exits_2(capsys, tmp_path):
    cfg = tmp_path / "empty.conf"
    cfg.write_text('utility { kind = "linear" }\ndiscount { kind = "exponential", r = 1 }\n')
    rc, _, err = run(capsys, "eval", "--config", str(cfg))
    assert rc == 2
    assert "no schedules" in err


def test_eval_parse_error_reports_line_and_column(capsys, tmp_path):
    cfg = tmp_path / "broken.conf"
    cfg.write_text("utility {\n  kind = @\n}\n")
    rc, _, err = run(capsys, "eval", "--config", str(cfg))
    assert rc == 2
    assert "line 2" in err and "column" in err


def test_eval_domain_error_names_payment(capsys, tmp_path):
    cfg = tmp_path / "domain.conf"
    cfg.write_text(
        'utility { kind = "log_shift" }\n'
        'discount { kind = "exponential", r = 0.1 }\n'
        'schedule "A" { pay = [{amount = 5, t = 0}, {amount = -3, t = 0}] }\n'
    )
    rc, _, err = run(capsys, "eval", "--config", str(cfg))
    assert rc == 3
    assert 'schedule "A" payment 1' in err


def test_scan_csv_contract_and_flip(capsys):
    rc, out, _ = run(capsys, "scan", "--config", str(DATA / "hyperbolic_projects.conf"))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "delta,value_a,value_b,preference"
    assert lines[1].startswith("0,") and lines[1].endswith(",A")
    assert lines[2].startswith("5,") and lines[2].endswith(",B")
    assert lines[3] == "first flip at delta=5"
    row0 = lines[1].split(",")
    assert float(row0[1]) == pytest.approx(math.log(1001), rel=1e-9)
    assert float(row0[2]) == pytest.approx(math.log(801), rel=1e-9)


def test_scan_no_reversal_under_exponential(capsys, tmp_path):
    cfg = tmp_path / "expo.conf"
    cfg.write_text(
        'utility { kind = "linear" }\n'
        'discount { kind = "exponential", r = 0.3 }\n'
        'schedule "A" { pay = [{amount = 100, t = 0}] }\n'
        'schedule "B" { pay = [{amount = 120, t = 1}] }\n'
        "scan { shifts = [0, 2, 4, 8] }\n"
    )
    rc, out, _ = run(capsys, "scan", "--config", str(cfg))
    assert rc == 0
    assert out.splitlines()[-1] == "no reversal"


def test_scan_single_delta(capsys, tmp_path):
    cfg = tmp_path / "one.conf"
    cfg.write_text(
        'discount { kind = "exponential", r = 0.3 }\n'
        'schedule "A" { pay = [{amount = 100, t = 0}] }\n'
        'schedule "B" { pay = [{amount = 120, t = 1}] }\n'
        "scan { shifts = [0] }\n"
    )
    rc, out, _ = run(capsys, "scan", "--config", str(cfg))
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 3  # header, one row, summary
    assert lines[-1] == "no reversal"


def test_scan_negative_shift_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "negative.conf"
    cfg.write_text(
        'discount { kind = "hyperbolic", k = 0.5 }\n'
        'schedule "A" { pay = [{amount = 100, t = 0}] }\n'
        'schedule "B" { pay = [{amount = 120, t = 1}] }\n'
        "scan { shifts = [0, -1] }\n"
    )
    rc, out, err = run(capsys, "scan", "--config", str(cfg))
    assert rc == 2
    assert out == ""
    assert "shifts must be nonnegative, got -1.0" in err


def test_scan_requires_scan_block(capsys):
    rc, _, err = run(capsys, "scan", "--config", str(DATA / "ghyp_p2.conf"))
    assert rc == 2
    assert "no scan block" in err


def test_scan_domain_breach_exits_3(capsys, tmp_path):
    cfg = tmp_path / "breach.conf"
    cfg.write_text(
        'utility { kind = "log_shift" }\n'
        'discount { kind = "exponential", r = 0.1 }\n'
        'schedule "A" { pay = [{amount = -2, t = 0, }] }\n'
        'schedule "B" { pay = [{amount = 1, t = 1}] }\n'
        "scan { shifts = [0, 1] }\n"
    )
    rc, _, err = run(capsys, "scan", "--config", str(cfg))
    assert rc == 3
    assert "domain" in err or "outside" in err


def test_scan_output_is_byte_identical_across_runs(capsys):
    rc1, out1, _ = run(capsys, "scan", "--config", str(DATA / "hybrid_mix.conf"))
    rc2, out2, _ = run(capsys, "scan", "--config", str(DATA / "hybrid_mix.conf"))
    assert rc1 == rc2 == 0
    assert out1.encode() == out2.encode()
    assert "\r" not in out1


def test_check_coherent_fixture(capsys):
    rc, out, _ = run(capsys, "check", "--config", str(DATA / "check_coherent.conf"))
    assert rc == 0
    assert "coherent" in out


def test_check_overflowing_tableau_exits_3(capsys):
    rc, out, err = run(capsys, "check", "--config", str(DATA / "check_overflow.conf"))
    assert (rc, out) == (3, "")
    assert err.startswith("error: tableau arithmetic failed: overflow") and err.count("\n") == 1


def test_check_on_a_margin_lp_the_kernel_calls_unbounded_exits_3(capsys):
    # The audit's F3 margin LP is bounded by its cap row; the kernel's
    # absolute tolerances report it unbounded (ROADMAP item 1), which is an
    # error line and exit 3, not a traceback and exit 1 ("incoherent").
    rc, out, err = run(capsys, "check", "--config", str(DATA / "check_margin_unbounded.conf"))
    assert (rc, out, err) == (3, "", "error: margin LP cannot be LpStatus.UNBOUNDED\n")


def test_fit_on_the_overflowing_fixture_reports_its_conflict(capsys):
    # `check` overflows on this set; `fit` must not.
    rc, out, err = run(capsys, "fit", "--config", str(DATA / "check_overflow.conf"))
    assert (rc, out, err) == (1, "infeasible\nconflict: rejected[0]\n", "")


def test_check_incoherent_fixture_reports_f1(capsys):
    rc, out, _ = run(capsys, "check", "--config", str(DATA / "check_incoherent.conf"))
    assert rc == 1
    assert out.startswith("F1 VIOLATION: witness lambda=[")
    assert "combination=[" in out


def test_check_requires_assessments(capsys):
    rc, _, err = run(capsys, "check", "--config", str(DATA / "ghyp_p2.conf"))
    assert rc == 2
    assert "no assessments" in err


def test_fit_outputs_weights(capsys):
    rc, out, _ = run(
        capsys, "fit", "--config", str(DATA / "fit_two_state.conf"), "--strict-margin", "1e-3"
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "state\tweight"
    weights = {name: float(v) for name, v in (ln.split("\t") for ln in lines[1:])}
    assert weights["s1"] + weights["s2"] == pytest.approx(1.0, abs=1e-9)
    assert 2 * weights["s1"] - weights["s2"] >= -1e-9


@pytest.mark.parametrize("command", ["check", "fit"])
def test_rejected_gambles_with_inline_states_give_the_space(capsys, tmp_path, command):
    # No states block and no accepted gamble: the space is the first rejected
    # gamble's, and the answer is that of the same set with a states block.
    fixture = DATA / "fit_rejected_inline_states.conf"
    with_block = tmp_path / "with_states.conf"
    with_block.write_text('states { labels = ["a", "b"] }\n' + fixture.read_text())
    inline = run(capsys, command, "--config", str(fixture))
    assert inline[0] == 0 and inline[2] == ""
    assert inline == run(capsys, command, "--config", str(with_block))


def test_fit_infeasible_reports_conflict(capsys, tmp_path):
    cfg = tmp_path / "conflict.conf"
    cfg.write_text(
        'states { labels = ["s1", "s2"] }\n'
        "assessments { accepted = [{rewards = [1, -1]}], rejected = [{rewards = [1, -1]}] }\n"
    )
    rc, out, _ = run(capsys, "fit", "--config", str(cfg))
    assert rc == 1
    assert out.splitlines()[0] == "infeasible"
    assert "conflict: accepted[0]" in out
    assert "conflict: rejected[0]" in out


def test_curves_quasi_factors(capsys):
    rc, out, _ = run(
        capsys, "curves", "--regime", "quasi", "--beta", "0.7", "--delta", "0.95",
        "--t", "0:3:1",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "regime,param_set,t,factor"
    factors = [float(ln.rsplit(",", 1)[1]) for ln in lines[1:]]
    assert factors == pytest.approx([1.0, 0.665, 0.63175, 0.6001625], abs=1e-9)
    assert '"beta=0.7,delta=0.95"' in lines[1]  # RFC quoting for the comma


def test_curves_hyperbolic(capsys):
    rc, out, _ = run(capsys, "curves", "--regime", "hyperbolic", "--k", "0.5", "--t", "0:2:1")
    assert rc == 0
    factors = [float(ln.rsplit(",", 1)[1]) for ln in out.splitlines()[1:]]
    assert factors == pytest.approx([1.0, 1 / 1.5, 0.5], rel=1e-9)


def test_curves_hybrid_lambda_zero_matches_pure_component(capsys):
    rc, out, _ = run(
        capsys, "curves", "--regime", "hybrid", "--lambda", "0", "--r", "0.5",
        "--k", "1.0", "--t", "0:4:1",
    )
    assert rc == 0
    hybrid = [float(ln.rsplit(",", 1)[1]) for ln in out.splitlines()[1:]]
    rc, out, _ = run(capsys, "curves", "--regime", "hyperbolic", "--k", "1.0", "--t", "0:4:1")
    pure = [float(ln.rsplit(",", 1)[1]) for ln in out.splitlines()[1:]]
    assert hybrid == pure


# One sweep per regime: its flags and the regime built from the swept values.
# quasi's holds beta=0.4, delta=0.885, t=4: numpy's pow is one ulp below libm's
# correctly rounded delta^4 there, so a grid printed 0.2453765602, not ...603.
SCALAR_SWEEPS = {
    "exponential": (["--r", "0.05:0.3:0.05"], lambda p: Exponential(p["r"])),
    "hyperbolic": (["--k", "0.1:1:0.3"], lambda p: Hyperbolic(p["k"])),
    "quasi": (
        ["--beta", "0.4:0.6:0.1", "--delta", "0.885"],
        lambda p: QuasiHyperbolic(p["beta"], p["delta"]),
    ),
    "generalized": (["--k", "0.5", "--p", "0.5:2:0.5"], lambda p: GeneralizedHyperbolic(p["k"], p["p"])),
    "scale": (
        ["--r", "0.1", "--x", "10:1000:330"],
        lambda p: ScaleDependent(Exponential(p["r"]), InverseLog(10.0)),
    ),
    "state": (["--r", "0.2"], lambda p: Exponential(p["r"])),
    "hybrid": (
        ["--lambda", "0:1:0.25", "--r", "0.1", "--k", "0.5"],
        lambda p: Hybrid(p["lambda"], Exponential(p["r"]), Hyperbolic(p["k"])),
    ),
}


@pytest.mark.parametrize("regime", SCALAR_SWEEPS)
def test_curves_rows_are_the_scalar_factors_that_eval_uses(capsys, regime):
    flags, make = SCALAR_SWEEPS[regime]
    rc, out, _ = run(capsys, "curves", "--regime", regime, "--t", "0:12:0.5", *flags)
    assert rc == 0
    names = [flag.removeprefix("--") for flag in flags[::2]]
    expected = []
    for combo in itertools.product(*map(cli._parse_range, flags[1::2])):
        params = dict(zip(names, combo))
        spec = make(params)
        for t in cli._parse_range("0:12:0.5"):
            expected.append(format(spec.factor(t, params.get("x")), ".10g"))
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[3] for row in rows] == expected


def test_curves_parameter_sweep_order_is_deterministic(capsys):
    args = ("curves", "--regime", "quasi", "--beta", "0.6:0.9:0.1", "--delta", "0.95", "--t", "0:2:1")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1.count("beta=0.6,") == 3  # three delays per parameter set


def test_curves_malformed_range_exits_2(capsys):
    rc, _, err = run(capsys, "curves", "--regime", "quasi", "--beta", "x:y", "--t", "0:1:1")
    assert rc == 2


@pytest.mark.parametrize("flag, text", [("--r", "0.1:inf:1"), ("--t", "-inf:1:1"), ("--t", "0:1:nan")])
def test_curves_non_finite_range_exits_2(capsys, flag, text):
    flags = {"--r": "0.1", "--t": "0:3:1", flag: text}
    argv = [f"{name}={value}" for name, value in flags.items()]
    rc, out, err = run(capsys, "curves", "--regime", "exponential", *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "must be finite" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "flag, value, rest",
    [
        ("--t", "-inf:1:1", ("--regime", "exponential", "--r", "0.1")),
        ("--k", "-1:1:1", ("--regime", "hyperbolic", "--t", "0:1:1")),
        ("--lambda", "-1:0:1", ("--regime", "hybrid", "--r", "0.1", "--k", "1", "--t", "0:1:1")),
    ],
)
def test_curves_value_starting_with_dash_is_the_flags_value(capsys, flag, value, rest):
    # Passed as a separate argument, the value must not be read as an option.
    joined = run(capsys, "curves", *rest, f"{flag}={value}")
    separate = run(capsys, "curves", *rest, flag, value)
    assert separate == joined
    rc, _, err = separate
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "usage" not in err


@pytest.mark.parametrize("text", ["0:100000:1", "0:1:0.00001", "-1e308:1e308:1"])
def test_curves_range_point_cap_exits_2(capsys, text):
    # One point more than the cap, and a span that overflows.
    rc, out, err = run(capsys, "curves", "--regime", "hyperbolic", "--k", "0.5", f"--t={text}")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "more than 100000 points" in err
    assert err.count("\n") == 1
    assert len(cli._parse_range("0:99999:1")) == 100000  # exactly at the cap


def test_parse_range_drops_a_last_point_past_hi():
    assert cli._parse_range("0:0.26:0.1") == [0.0, 0.1, 0.2]
    assert cli._parse_range("0:0.3:0.1") == [0.0, 0.1, 0.2, 0.30000000000000004]


def test_curves_missing_and_extra_parameters(capsys):
    rc, _, err = run(capsys, "curves", "--regime", "hyperbolic", "--t", "0:1:1")
    assert rc == 2
    assert "needs --k" in err
    rc, _, err = run(
        capsys, "curves", "--regime", "hyperbolic", "--k", "1", "--beta", "0.7", "--t", "0:1:1"
    )
    assert rc == 2
    assert "does not use --beta" in err


def test_curves_scale_regime_takes_reward(capsys):
    rc, out, _ = run(
        capsys, "curves", "--regime", "scale", "--r", "1.0", "--x", "100", "--t", "0:1:1"
    )
    assert rc == 0
    factors = [float(ln.rsplit(",", 1)[1]) for ln in out.splitlines()[1:]]
    assert factors[0] == 1.0
    assert factors[1] == pytest.approx(math.exp(-1.0 / 2.0), rel=1e-9)  # eta(100) = 1/2


def test_curves_rejects_nan_delay(capsys):
    rc, out, err = run(capsys, "curves", "--regime", "hyperbolic", "--k", "0.5", "--t", "nan")
    assert rc == 3
    assert out == "regime,param_set,t,factor\n"
    assert "delay must be nonnegative, got nan" in err


def test_missing_config_file(capsys):
    rc, _, err = run(capsys, "eval", "--config", "/nonexistent/path.conf")
    assert rc == 2
    assert "cannot read config" in err


@pytest.mark.parametrize("command", ["eval", "scan", "check", "fit"])
def test_config_that_is_not_utf8_is_a_read_error(capsys, tmp_path, command):
    cfg = tmp_path / "latin.conf"
    cfg.write_bytes(b'# \xff\xfe\ndiscount { kind = "exponential", r = 0.1 }\n')
    rc, out, err = run(capsys, command, "--config", str(cfg))
    assert (rc, out) == (2, "")
    assert err.startswith("parse error: cannot read config: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


def test_usage_error_without_command(capsys):
    assert main([]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--regime", "quasi", "--beta", "2", "--delta", "0.9"), "beta must lie in (0, 1]"),
        (("--regime", "exponential", "--r", "-1"), "rate must be nonnegative"),
        (("--regime", "hybrid", "--lambda", "1.5", "--r", "0.1", "--k", "1"), "lambda must lie"),
        (("--regime", "scale", "--r", "0.1", "--x", "100", "--log-base", "1"), "log base must"),
        (("--regime", "hyperbolic", "--k", "inf"), "k must be a finite number, got inf"),
    ],
    ids=["quasi-beta", "exponential-r", "hybrid-lambda", "scale-log-base", "hyperbolic-k-inf"],
)
def test_curves_invalid_parameter_exits_2(capsys, argv, message):
    rc, out, err = run(capsys, "curves", *argv, "--t", "0:3:1")
    assert rc == 2
    assert out == "regime,param_set,t,factor\n"
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


def test_check_malformed_assessments_exits_2(capsys, tmp_path):
    cfg = tmp_path / "rejected.conf"
    cfg.write_text('states { labels = ["s1", "s2"] }\nassessments { accepted = [], rejected = 3 }\n')
    rc, out, err = run(capsys, "check", "--config", str(cfg))
    assert rc == 2
    assert out == ""
    assert "line 2" in err and "rejected must be a list" in err


@pytest.mark.parametrize("command", ["eval", "check", "fit"])
def test_tol_is_a_scan_flag_only(capsys, command):
    rc, _, err = run(capsys, command, "--config", str(DATA / "check_coherent.conf"), "--tol", "1")
    assert rc == 2
    assert "unrecognized arguments: --tol 1" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_scan_rejects_a_negative_or_non_finite_tol(capsys, tol):
    config = str(DATA / "hyperbolic_projects.conf")
    rc, out, err = run(capsys, "scan", "--config", config, f"--tol={tol}")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: tol must be finite and nonnegative")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "fit"])
def test_assessment_domain_error_exits_3_with_one_line(capsys, tmp_path, command):
    cfg = tmp_path / "breach.conf"
    cfg.write_text(
        'utility { kind = "log_shift" }\n'
        'states { labels = ["s1", "s2"] }\n'
        "assessments { accepted = [{rewards = [1, -2]}] }\n"
    )
    rc, out, err = run(capsys, command, "--config", str(cfg))
    assert rc == 3
    assert out == ""
    assert err.startswith("error: state 's2'") and err.count("\n") == 1


def test_module_run_matches_main(capsys):
    argv = ["curves", "--regime", "exponential", "--r", "0.1", "--t", "0:2:1"]
    rc, out, _ = run(capsys, *argv)
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-m", "desirables.cli", *argv], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stdout) == (rc, out)
    assert out.count("\n") == 4


_ASSESSMENT_SET_ERRORS = {
    "sure-loss": (
        'states { labels = ["s1", "s2"] }\nassessments { accepted = [{rewards = [-1, -2]}] }\n',
        "accepted[0] is everywhere strictly negative: Gamble(s1=-1, s2=-2; w=2)",
    ),
    "space-mismatch": (
        'assessments { accepted = [{states = ["a", "b"], rewards = [1, 1]}, '
        '{states = ["c", "d"], rewards = [1, 1]}] }\n',
        "gamble on ('c', 'd') does not live on ('a', 'b')",
    ),
    "rejected-space-mismatch": (
        'assessments { accepted = [{states = ["a", "b"], rewards = [1, 1]}], '
        'rejected = [{states = ["c", "d"], rewards = [-1, -1]}] }\n',
        "gamble on ('c', 'd') does not live on ('a', 'b')",
    ),
    "no-states": (
        "assessments { accepted = [] }\n",
        "assessments need a states block or inline gamble states",
    ),
}


@pytest.mark.parametrize("command", ["check", "fit"])
@pytest.mark.parametrize("case", sorted(_ASSESSMENT_SET_ERRORS))
def test_assessment_set_error_exits_2_with_one_line(capsys, tmp_path, command, case):
    text, message = _ASSESSMENT_SET_ERRORS[case]
    cfg = tmp_path / "assessments.conf"
    cfg.write_text(text)
    assert run(capsys, command, "--config", str(cfg)) == (2, "", f"error: {message}\n")


def test_fit_strict_margin_out_of_range_exits_2(capsys):
    argv = ("fit", "--config", str(DATA / "check_coherent.conf"), "--strict-margin", "0.5")
    err = "error: strict margin must lie in (0, 1e-2], got 0.5\n"
    assert run(capsys, *argv) == (2, "", err)


def test_eval_without_discount_block_exits_2(capsys, tmp_path):
    cfg = tmp_path / "no_discount.conf"
    cfg.write_text('schedule "A" { pay = [{amount = 1, t = 0}] }\n')
    assert run(capsys, "eval", "--config", str(cfg)) == (2, "", "error: no discount block\n")


def test_curves_backwards_range_exits_2(capsys):
    argv = ("curves", "--regime", "hyperbolic", "--k", "1", "--t", "2:1:1")
    err = "error: malformed range '2:1:1'; need step > 0 and hi >= lo\n"
    assert run(capsys, *argv) == (2, "", err)


_OVERFLOW = (
    'utility { kind = "composed", base = {kind = "linear"}, phi = {form = "power", p = 400} }\n'
    'discount { kind = "exponential", r = 0.1 }\n'
    'states { labels = ["s1", "s2"] }\n'
    'schedule "A" { pay = [{amount = 1, t = 0}, {amount = 10, t = 0}] }\n'
    'schedule "B" { pay = [{amount = 1, t = 1}] }\n'
    "scan { shifts = [0, 1] }\n"
    "assessments { accepted = [{rewards = [1, 10]}] }\n"
)


@pytest.mark.parametrize(
    "command, where",
    [
        ("eval", 'schedule "A" payment 1 (amount=10, t=0)'),
        ("scan", 'schedule "A" payment 1 (amount=10, t=0)'),
        ("check", "state 's2'"),
        ("fit", "state 's2'"),
    ],
)
def test_utility_overflow_exits_3_naming_where(capsys, tmp_path, command, where):
    cfg = tmp_path / "overflow.conf"
    cfg.write_text(_OVERFLOW)
    err = f"error: {where}: composed: utility of reward 10.0 is not finite\n"
    assert run(capsys, command, "--config", str(cfg)) == (3, "", err)


def test_eval_rejects_an_infinite_value(capsys, tmp_path):
    cfg = tmp_path / "poly.conf"
    cfg.write_text(
        'utility { kind = "composed", base = {kind = "linear"}, '
        "phi = {form = \"poly\", coeffs = [0, 1e300, 1e300]} }\n"
        'discount { kind = "exponential", r = 0.1 }\n'
        'schedule "A" { pay = [{amount = 1e10, t = 0}] }\n'
    )
    rc, out, err = run(capsys, "eval", "--config", str(cfg))
    assert (rc, out) == (3, "")
    assert err.startswith('error: schedule "A" payment 0') and err.endswith("is not finite\n")
    assert err.count("\n") == 1
