"""Byte-for-byte CLI output: stdout and exit code of fixed commands.

``golden_cli.json`` holds one record per command: ``argv``, the exit
``code`` and the exact ``stdout``.  It covers zeta, check, casimir (natural
and si units), coeff (pass and fail) and mollify in its converged,
not-converged, divergent and Dirichlet-comb branches, plus the dilated
H2S target, S at p = 2 and a p = 4 jump, each in text, JSON and CSV, with
and without --quiet.  Only stdout is pinned; error wording on
stderr is free to change.

Two deeper ladders are pinned here beside the file: coeff at its deepest
and the p = 4 jump at its default ten levels.

In process, numpy has loaded before ``main()`` runs, so the coeff and
mollify cases are also replayed in one cold interpreter, where the CLI
runs OpenBLAS on one thread unless the caller set a count, and once more
with ``DIVSUM_QUAD_TOL=1e-300``, which the library does not read.
"""

import json
from pathlib import Path

import pytest

from divsum.cli import main
from test_imports import _run_probe

CASES = json.loads((Path(__file__).with_name("golden_cli.json")).read_text()) + [
    {"argv": ["--quiet", "coeff", "--n", "32", "--levels", "20"], "code": 0,
     "stdout": "extrapolant -32 0\nexpected -32\npass\n"},
    {"argv": ["--quiet", "mollify", "--target", "jump:sign", "--p", "4"], "code": 0,
     "stdout": "extrapolant 0 0\nerror_estimate 5e-14\nconverged\n"},
]
NUMERICAL = [c for c in CASES if {"coeff", "mollify"} & set(c["argv"])]

# argv[1] is the JSON list of argvs; the report is the final
# OPENBLAS_NUM_THREADS and each case's exit code and stdout
_REPLAY = r"""
import contextlib, io, json, os, sys
from divsum.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
sys.stderr.write("\n" + json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), results]))
"""


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_stdout_and_exit_code(capsys, case):
    code = main(case["argv"])
    assert (code, capsys.readouterr().out) == (case["code"], case["stdout"])


@pytest.mark.parametrize("env,want", [
    pytest.param({"OPENBLAS_NUM_THREADS": None}, "1", id="None-1"),
    pytest.param({"OPENBLAS_NUM_THREADS": "2"}, "2", id="2-2"),
    pytest.param({"OPENBLAS_NUM_THREADS": None, "DIVSUM_QUAD_TOL": "1e-300"}, "1",
                 id="quad-tol-1e-300"),
])
def test_cold_replay_at_any_blas_thread_count(env, want):
    value, results = _run_probe(_REPLAY, json.dumps([c["argv"] for c in NUMERICAL]),
                                env=env)
    missed = [" ".join(c["argv"]) for c, (code, out) in zip(NUMERICAL, results)
              if (code, out) != (c["code"], c["stdout"])]
    assert (value, len(results), missed) == (want, len(NUMERICAL), [])
