"""Import graph and public names.

The exact subcommands load only the standard library modules they run and
the exact layers, coeff, every mollify target and an odd-k check from k = 5
on load no numpy, and no
subcommand loads ``divsum.series``, the exact series of the generating
function that the tests use as an oracle.  No module of the library loads
``dataclasses``: every record it builds is a named tuple.  A cold numerical
subcommand runs OpenBLAS on one thread unless the caller chose a count.
Each command runs in a fresh interpreter, which then reports the modules,
threads or environment it holds.
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
# what the closed-form commands, coeff and the Dirichlet comb, never run
UNUSED_BY_CLOSED_FORMS = NUMERIC_MODULES + ("dataclasses", "fractions", "decimal")

# the module list is taken before json is imported for the report
_PROBE = """
import sys
from divsum.cli import main
code = main(sys.argv[1:])
modules = sorted(sys.modules)
import json
sys.stderr.write(json.dumps([code, modules]))
"""


def _run_probe(probe, *argv, env=None):
    """The JSON report on the last stderr line of ``probe`` run cold with
    ``argv``; ``env`` sets variables of its environment, or removes those
    given as None."""
    src = str(Path(divsum.__file__).resolve().parents[1])
    full = dict(os.environ)
    full["PYTHONPATH"] = os.pathsep.join(filter(None, [src, full.get("PYTHONPATH")]))
    for name, value in (env or {}).items():
        if value is None:
            full.pop(name, None)
        else:
            full[name] = value
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env=full,
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
    # from k = 53 on the skips leave one block of the series for zeta(k + 1),
    # which holds n = 1 and sums to 1.0
    ("check", "--k", "53"),
    ("check", "--k", "199"),
])
def test_exact_commands_skip_numerical_layers(argv):
    among = NUMERIC_MODULES + UNUSED_BY_EXACT
    assert loaded_after(*argv, among=among) == (0, [])


@pytest.mark.parametrize("k,numpy", [
    ("1", True), ("3", True), ("5", False), ("21", False), ("51", False)])
def test_odd_check_loads_numpy_only_for_k_1_and_3(k, numpy):
    # below k = 53 the series for zeta(k + 1) is summed: k = 1 and 3 keep
    # all 10^6 terms, for numpy, and from k = 5 on at most 5407 are left
    # after the skips, which plain Python sums
    assert loaded_after("check", "--k", k, among=("numpy",)) == (
        0, ["numpy"] if numpy else [])


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


@pytest.mark.parametrize("target, p", [
    ("S", "0"), ("H2S", "2"), ("T0", "2"), ("jump:heaviside", "0"),
    ("jump:sign", "2"), ("jump:cos", "4")])
def test_numerical_mollify_skips_numerical_layers(target, p):
    # each target is one kernel pass of divsum.panels on plain floats
    assert loaded_after("mollify", "--target", target, "--p", p, "--levels", "3",
                        among=NUMERIC_MODULES) == (0, [])


def test_coeff_skips_numerical_layers():
    # c_n is a closed Fejer sum: coeff adds coefficients and extrapolation
    assert loaded_after("coeff", "--n", "2", "--levels", "6",
                        among=UNUSED_BY_CLOSED_FORMS) == (0, [])


def test_dirichlet_comb_skips_numerical_layers():
    # the comb pairing is 2 pi m phi(0): it too adds only those two
    assert loaded_after("mollify", "--target", "dirichlet",
                        among=UNUSED_BY_CLOSED_FORMS) == (0, [])


# argv[1] is "numpy" to load numpy before main(), or "cold"; the report is
# the exit code, the threads held (None without /proc/self/task), the final
# OPENBLAS_NUM_THREADS and the names of the variables main() changed
_BLAS_PROBE = """
import json, os, sys
if sys.argv[1] == "numpy":
    import numpy
before = dict(os.environ)
from divsum.cli import main
code = main(sys.argv[2:])
after = dict(os.environ)
tasks = "/proc/self/task"
threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
sys.stderr.write(json.dumps([code, threads, after.get("OPENBLAS_NUM_THREADS"), changed]))
"""
# check --k 3, with all of its 10^6 terms, loads numpy
CHECK_3 = ("--quiet", "check", "--k", "3")
UNSET = {"OPENBLAS_NUM_THREADS": None}


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_cold_numerical_command_holds_one_thread():
    assert _run_probe(_BLAS_PROBE, "cold", *CHECK_3, env=UNSET) == [
        0, 1, "1", ["OPENBLAS_NUM_THREADS"]]


def test_caller_thread_count_wins():
    code, _, value, changed = _run_probe(
        _BLAS_PROBE, "cold", *CHECK_3, env={"OPENBLAS_NUM_THREADS": "2"})
    assert (code, value, changed) == (0, "2", [])


def test_after_numpy_loads_environment_is_left_alone():
    code, _, value, changed = _run_probe(_BLAS_PROBE, "numpy", *CHECK_3, env=UNSET)
    assert (code, value, changed) == (0, None, [])


@pytest.mark.parametrize("argv", [
    ("sum", "--k", "3"),
    ("zeta", "--neg-k", "3"),
    ("check", "--k", "3"),
    ("table", "--k-max", "5"),
    ("casimir", "--d", "1"),
    ("coeff", "--n", "2", "--levels", "6"),
    ("mollify", "--target", "S", "--levels", "3"),
    ("mollify", "--target", "dirichlet"),
    ("mollify", "--target", "T0", "--p", "2"),
    ("mollify", "--target", "jump:cos"),
    ("check", "--k", "51"),
])
def test_no_command_loads_the_series_oracle(argv):
    # nor dataclasses: the library's records are named tuples
    assert loaded_after(*argv, among=ORACLE_MODULES + ("dataclasses",)) == (0, [])


# the report is every module found and the first after whose import
# dataclasses was loaded, or None
_ALL_MODULES_PROBE = """
import importlib, json, pkgutil, sys
import divsum
names = sorted(m.name for m in pkgutil.iter_modules(divsum.__path__))
first = None
for name in names:
    importlib.import_module(f"divsum.{name}")
    if first is None and "dataclasses" in sys.modules:
        first = name
sys.stderr.write(json.dumps([names, first]))
"""


def test_no_module_loads_dataclasses():
    names, first = _run_probe(_ALL_MODULES_PROBE)
    assert "series" in names and "cli" in names
    assert first is None


@pytest.mark.parametrize("name", sorted(
    m.name for m in pkgutil.iter_modules(divsum.__path__)))
def test_public_names_are_defined(name):
    # a stale __all__ entry breaks `from divsum.<name> import *`
    module = importlib.import_module(f"divsum.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
