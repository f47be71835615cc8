"""CLI stdout and exit codes replayed against a recorded golden set.

``tests/data/cli_golden.json`` holds the argv, exit code, exact stdout and
error line of every ``tests/data/*.conf`` under ``eval``, ``scan``, ``check``
and ``fit`` (each with and without ``--paper-rounding``) and of the ``curves``
sweeps in ``bench/cli_cases/cases.json``. The error line is the stderr line
that starts with ``error:`` or ``parse error:``, or empty; warnings are left
out, because they name source paths. A refactor must leave every one of them
byte-identical. Config paths are stored relative to the repository root.

Regenerate only when an output change is intended, and say so in CHANGES.md::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from desirables.cli import main

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
_ERROR_PREFIXES = ("error: ", "parse error: ")


def _resolve(argv):
    return [str(ROOT / a) if a.endswith(".conf") else a for a in argv]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(_resolve(argv))
    lines = err.getvalue().splitlines(keepends=True)
    return rc, out.getvalue(), "".join(ln for ln in lines if ln.startswith(_ERROR_PREFIXES))


def _golden_argvs():
    for conf in sorted((ROOT / "tests" / "data").glob("*.conf")):
        rel = str(conf.relative_to(ROOT))
        for command in ("eval", "scan", "check", "fit"):
            yield [command, "--config", rel]
            yield [command, "--config", rel, "--paper-rounding"]
    cases = json.loads((ROOT / "bench" / "cli_cases" / "cases.json").read_text())
    for case in cases:
        if case["argv"][0] == "curves":
            yield case["argv"]


def _cases():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", _cases(), ids=lambda c: " ".join(c["argv"]))
def test_cli_output_matches_golden(case):
    assert _run(case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


def test_golden_set_covers_every_fixture():
    recorded = [case["argv"] for case in _cases()]
    assert recorded == list(_golden_argvs())


if __name__ == "__main__":
    records = []
    for argv in _golden_argvs():
        rc, out, err = _run(argv)
        records.append({"argv": argv, "exit": rc, "stdout": out, "stderr": err})
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN}", file=sys.stderr)
