import os
import subprocess
import sys
from pathlib import Path

import pytest

import desirables
from desirables import coherence, discount, errors, gamble, intertemporal, utility

MODULES = (coherence, discount, errors, gamble, intertemporal, utility)
SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).parent / "data"


def test_package_exports_are_the_module_lists():
    names = desirables.__all__
    assert len(names) == len(set(names))
    assert set(names) == {name for module in MODULES for name in module.__all__}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(desirables, name) is getattr(module, name)
    assert "EtaSpec" in names


def test_star_import_binds_exactly_all_and_dir_lists_it():
    namespace = {}
    exec("from desirables import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(desirables.__all__)
    assert set(desirables.__all__) <= set(dir(desirables))
    with pytest.raises(AttributeError):
        desirables.no_such_name


HEAVY = ["desirables.coherence", "desirables.lp", "numpy"]


def loaded_after(code):
    """The heavy modules (``HEAVY``) loaded after each ``report()`` in a fresh interpreter."""
    prelude = (
        "import contextlib, io, sys\n"
        "def report():\n"
        f"    print(sorted({set(HEAVY)!r} & set(sys.modules)))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", prelude + code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_package_names_load_their_module_on_first_use():
    code = (
        "import desirables\n"
        "assert [m for m in sys.modules if m.startswith('desirables.')] == []\n"
        "assert not hasattr(desirables, 'config')\n"  # a miss imports nothing
        "report()\n"
        "desirables.Hyperbolic(1.0), desirables.Linear()\n"
        "report()\n"
        "desirables.audit\n"
        "report()\n"
    )
    assert loaded_after(code) == ["[]", "[]", str(HEAVY)]


@pytest.mark.parametrize(
    "argv, heavy",
    [
        (["eval", "--config", str(DATA / "hyperbolic_projects.conf")], False),
        (["scan", "--config", str(DATA / "hyperbolic_projects.conf")], False),
        (["curves", "--regime", "hyperbolic", "--k", "0.5", "--t", "0:2:1"], False),
        (["check", "--config", str(DATA / "check_coherent.conf")], True),
        (["fit", "--config", str(DATA / "fit_two_state.conf")], True),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else str(v),
)
def test_cli_loads_coherence_and_lp_for_check_and_fit_only(argv, heavy):
    # numpy too, where a grid (scan) or an LP (check, fit) runs.
    code = (
        "import desirables.cli\n"
        "report()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert desirables.cli.main({argv!r}) == 0\n"
        "report()\n"
    )
    after = HEAVY if heavy else ["numpy"] if argv[0] == "scan" else []
    assert loaded_after(code) == ["[]", str(after)]


def _config(command, name, *flags):
    return [command, "--config", str(DATA / name), *flags]


# Each regime's swept flags, one point or range each.
CURVES = {
    "exponential": ["--r", "0.05:0.1:0.05"],
    "hyperbolic": ["--k", "0.5"],
    "quasi": ["--beta", "0.6", "--delta", "0.9:0.95:0.05"],
    "generalized": ["--k", "0.5", "--p", "2"],
    "scale": ["--r", "0.1", "--x", "10:100:90"],
    "state": ["--r", "0.2"],
    "hybrid": ["--lambda", "0.5", "--r", "0.1", "--k", "0.5"],
}
# (argv, exit code): the scalar valuation path, and the exits before a grid or an LP.
WITHOUT_NUMPY = [
    (_config("eval", "hyperbolic_projects.conf"), 0),
    (_config("eval", "hybrid_mix.conf", "--paper-rounding"), 0),
    *[(["curves", "--regime", r, "--t", "0:3:0.5", *f], 0) for r, f in CURVES.items()],
    (_config("scan", "ghyp_p2.conf"), 2),  # no scan block
    (_config("check", "hyperbolic_projects.conf"), 2),  # no assessments
    (_config("fit", "hyperbolic_projects.conf"), 2),
]


@pytest.mark.parametrize(
    "argv, exit_code",
    WITHOUT_NUMPY,
    ids=[" ".join(Path(a).name for a in argv) for argv, _ in WITHOUT_NUMPY],
)
def test_eval_curves_and_early_exits_load_no_numpy(argv, exit_code):
    code = (
        "import desirables, desirables.cli\n"
        "report()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert desirables.cli.main({argv!r}) == {exit_code}\n"
        "report()\n"
    )
    assert loaded_after(code) == ["[]", "[]"]


@pytest.mark.parametrize(
    "argv",
    [_config("eval", "hyperbolic_projects.conf"), ["curves", "--regime", "quasi", "--t", "0:3:1", *CURVES["quasi"]]],
    ids=lambda argv: argv[0],
)
def test_eval_and_curves_import_no_dataclasses(argv):
    # Record imports dataclasses (and with it inspect, ast, dis and tokenize)
    # only to raise FrozenInstanceError, which it still raises.
    code = (
        "import desirables.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert desirables.cli.main({argv!r}) == 0\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
        "try:\n"
        "    desirables.Hyperbolic(1.0).k = 2.0\n"
        "except Exception as exc:\n"
        "    print(type(exc).__module__ + '.' + type(exc).__name__, exc)\n"
    )
    assert loaded_after(code) == ["[]", "dataclasses.FrozenInstanceError cannot assign to field 'k'"]


def test_eval_with_a_tabulated_eta_loads_no_numpy(tmp_path):
    # TabulatedEta interpolates in pure Python, as np.interp does.
    conf = tmp_path / "tabulated.conf"
    conf.write_text(
        'utility { kind = "sqrt" }\n'
        'discount { kind = "scale_dependent", base = {kind = "hyperbolic", k = 0.5},\n'
        '  eta = {form = "tabulated", x = [10, 100, 1000], y = [1.2, 1.0, 0.7]} }\n'
        'schedule "A" { pay = [{amount = 50, t = 0}, {amount = 400, t = 3}] }\n'
        'schedule "B" { pay = [{amount = 5000, t = 8}] }\n',
        encoding="utf-8",
    )
    code = (
        "import desirables, desirables.cli\n"
        "report()\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    assert desirables.cli.main(['eval', '--config', {str(conf)!r}]) == 0\n"
        "report()\n"
        "print(out.getvalue().splitlines()[1:])\n"
    )
    *loaded, rows = loaded_after(code)
    assert loaded == ["[]", "[]"]
    assert rows == str(["A\t20.3132", "B\t40.2574"])


def test_no_module_declares_a_dataclass():
    code = (
        "import importlib, pkgutil, desirables\n"
        "for info in pkgutil.iter_modules(desirables.__path__):\n"
        "    module = importlib.import_module('desirables.' + info.name)\n"
        "    for name, obj in vars(module).items():\n"
        "        if isinstance(obj, type) and hasattr(obj, '__dataclass_fields__'):\n"
        "            print(module.__name__ + '.' + name)\n"
        "report()\n"
    )
    assert loaded_after(code) == [str(HEAVY)]
