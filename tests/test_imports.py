"""The exact subcommands load only the standard library and the exact layers.

Each command runs in a fresh interpreter, which then reports the modules it
holds; numpy and the numerical layers must not be among them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import divsum

NUMERIC_MODULES = ("numpy", "divsum.distributions", "divsum.quadrature",
                   "divsum.mollifiers")

_PROBE = """
import json, sys
from divsum.cli import main
code = main(sys.argv[1:])
sys.stderr.write(json.dumps([code, sorted(sys.modules)]))
"""


def loaded_after(*argv):
    """Exit code and the numerical modules loaded by one cold command."""
    src = str(Path(divsum.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    code, modules = json.loads(proc.stderr.splitlines()[-1])
    return code, [m for m in NUMERIC_MODULES if m in modules]


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
