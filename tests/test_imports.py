"""Import graph and public names.

The exact subcommands load only the standard library and the exact layers,
and no subcommand loads ``divsum.series``, the Gaussian-rational series
(arithmetic included) that the tests use as an oracle.  Each command runs
in a fresh interpreter, which then reports the modules it holds.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import divsum

NUMERIC_MODULES = ("numpy", "divsum.distributions", "divsum.quadrature",
                   "divsum.mollifiers")
ORACLE_MODULES = ("divsum.series",)

_PROBE = """
import json, sys
from divsum.cli import main
code = main(sys.argv[1:])
sys.stderr.write(json.dumps([code, sorted(sys.modules)]))
"""


def loaded_after(*argv, among=NUMERIC_MODULES):
    """Exit code and the modules of ``among`` loaded by one cold command."""
    src = str(Path(divsum.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    code, modules = json.loads(proc.stderr.splitlines()[-1])
    return code, [m for m in among if m in modules]


@pytest.mark.parametrize("argv", [
    ("sum", "--k", "200"),
    ("zeta", "--neg-k", "40"),
    ("table", "--k-max", "100"),
    ("casimir", "--d", "1.5"),
])
def test_exact_commands_skip_numerical_layers(argv):
    assert loaded_after(*argv) == (0, [])


def test_ladder_commands_load_them():
    # the probe sees the modules when a command does need them
    assert loaded_after("coeff", "--n", "2", "--levels", "6") == (
        0, list(NUMERIC_MODULES))


@pytest.mark.parametrize("argv", [
    ("sum", "--k", "3"),
    ("zeta", "--neg-k", "3"),
    ("check", "--k", "3"),
    ("table", "--k-max", "5"),
    ("casimir", "--d", "1"),
    ("coeff", "--n", "2", "--levels", "6"),
    ("mollify", "--target", "S", "--levels", "3"),
])
def test_no_command_loads_the_series_oracle(argv):
    assert loaded_after(*argv, among=ORACLE_MODULES) == (0, [])


@pytest.mark.parametrize("name", sorted(
    m.name for m in pkgutil.iter_modules(divsum.__path__)))
def test_public_names_are_defined(name):
    # a stale __all__ entry breaks `from divsum.<name> import *`
    module = importlib.import_module(f"divsum.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
