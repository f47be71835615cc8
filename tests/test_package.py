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


def loaded_after(code):
    """The heavy submodules loaded after each ``report()`` in a fresh interpreter."""
    prelude = (
        "import contextlib, io, sys\n"
        "def report():\n"
        "    print(sorted({'desirables.coherence', 'desirables.lp'} & set(sys.modules)))\n"
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
    assert loaded_after(code) == ["[]", "[]", "['desirables.coherence', 'desirables.lp']"]


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
    code = (
        "import desirables.cli\n"
        "report()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert desirables.cli.main({argv!r}) == 0\n"
        "report()\n"
    )
    after = "['desirables.coherence', 'desirables.lp']" if heavy else "[]"
    assert loaded_after(code) == ["[]", after]


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
    assert loaded_after(code) == ["['desirables.coherence', 'desirables.lp']"]
