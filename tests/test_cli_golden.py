"""CLI stdout and exit codes replayed against a recorded golden set.

``tests/data/cli_golden.json`` holds the argv, exit code and exact stdout of
every ``tests/data/*.conf`` under ``eval``, ``scan``, ``check`` and ``fit``
(each with and without ``--paper-rounding``) and of the ``curves`` sweeps in
``bench/cli_cases/cases.json``. A refactor must leave every one of them
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


def _resolve(argv):
    return [str(ROOT / a) if a.endswith(".conf") else a for a in argv]


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = main(_resolve(argv))
    return rc, out.getvalue()


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
    rc, out = _run(case["argv"])
    assert (rc, out) == (case["exit"], case["stdout"])


def test_golden_set_covers_every_fixture():
    recorded = [case["argv"] for case in _cases()]
    assert recorded == list(_golden_argvs())


if __name__ == "__main__":
    records = []
    for argv in _golden_argvs():
        rc, out = _run(argv)
        records.append({"argv": argv, "exit": rc, "stdout": out})
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN}", file=sys.stderr)
