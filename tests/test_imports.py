"""Import graph and public names.

The exact subcommands load only the standard library modules they run and
the exact layers, and no subcommand loads ``divsum.series``, the
Gaussian-rational series (arithmetic included) that the tests use as an
oracle.  Each command runs in a fresh interpreter, which then reports the
modules it holds.
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
# beside NUMERIC_MODULES, what an exact subcommand in text format never runs
UNUSED_BY_EXACT = ("dataclasses", "inspect", "json", "csv", "divsum.extrapolation")

# the module list is taken before json is imported for the report
_PROBE = """
import sys
from divsum.cli import main
code = main(sys.argv[1:])
modules = sorted(sys.modules)
import json
sys.stderr.write(json.dumps([code, modules]))
"""


def _run_probe(probe, *argv):
    src = str(Path(divsum.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return json.loads(proc.stderr.splitlines()[-1])


def loaded_after(*argv, among=NUMERIC_MODULES):
    """Exit code and the modules of ``among`` loaded by one cold command."""
    code, modules = _run_probe(_PROBE, *argv)
    return code, [m for m in among if m in modules]


@pytest.mark.parametrize("argv", [
    ("sum", "--k", "200"),
    ("zeta", "--neg-k", "40"),
    ("table", "--k-max", "100"),
    ("casimir", "--d", "1.5"),
    ("check", "--k", "4"),
])
def test_exact_commands_skip_numerical_layers(argv):
    among = NUMERIC_MODULES + UNUSED_BY_EXACT
    assert loaded_after(*argv, among=among) == (0, [])


@pytest.mark.parametrize("argv,wanted", [
    (("--format", "json", "zeta", "--neg-k", "3"), "json"),
    (("--format", "csv", "table", "--k-max", "3"), "csv"),
])
def test_output_format_loads_its_writer(argv, wanted):
    # the probe sees json and csv when a command does use them
    assert loaded_after(*argv, among=UNUSED_BY_EXACT) == (0, [wanted])


def test_cli_module_alone_skips_casimir():
    probe = ("import sys, divsum.cli, json; "
             "sys.stderr.write(json.dumps(sorted(sys.modules)))")
    assert "divsum.casimir" not in _run_probe(probe)
    assert loaded_after("casimir", "--d", "1", among=("divsum.casimir",)) == (
        0, ["divsum.casimir"])


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
