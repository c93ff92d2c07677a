"""The package root imports a public name's module on first use, and the command
pins BLAS to one thread before numpy loads."""

import os
import subprocess
import sys

import pytest

import qarrival as qa
from qarrival import cli

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_child(code: str, **env: str):
    """`python -c CODE` in a fresh interpreter with qarrival's `src` on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qa.__file__)))
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_import_loads_no_module():
    run_child("import sys, qarrival\n"
              "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
              "loaded = [m for m in sys.modules if m.startswith('qarrival.')]\n"
              "assert not loaded, loaded\n")


@pytest.mark.parametrize("statement", ["import qarrival.cli",
                                       "from qarrival.cli import main"])   # the console script
def test_cli_import_pins_one_thread(statement):
    run_child(f"import os\n{statement}\n"
              f"values = [os.environ[k] for k in {THREAD_VARS!r}]\n"
              "assert values == ['1', '1', '1'], values\n",
              **dict.fromkeys(THREAD_VARS, "4"))


def test_cli_after_numpy_keeps_the_environment(tmp_path):
    scenario = tmp_path / "point.txt"
    scenario.write_text("detector.position = 0 0 20\n")
    run_child("import os, numpy\n"
              "before = dict(os.environ)\n"
              "from qarrival import cli\n"
              f"assert cli.main(['validate', {str(scenario)!r}]) == 0\n"
              "assert dict(os.environ) == before\n"
              "assert os.environ['OPENBLAS_NUM_THREADS'] == '4'\n",
              OPENBLAS_NUM_THREADS="4")
    before = dict(os.environ)
    assert cli.main(["validate", str(scenario)]) == 0
    assert dict(os.environ) == before


def test_public_names_are_their_modules_objects():
    names = [name for name in qa.__all__ if name != "__version__"]
    assert len(set(names)) == len(names) == 50
    for name in names:
        value = getattr(qa, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    star = {}
    exec("from qarrival import *", star)
    assert all(star[name] is getattr(qa, name) for name in qa.__all__)


def test_unknown_name_and_submodule():
    with pytest.raises(AttributeError, match="nope"):
        qa.nope
    from qarrival import oracle
    assert oracle.__name__ == "qarrival.oracle"
