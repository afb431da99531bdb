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

In process, numpy has loaded before ``main()`` runs, so
``test_golden_lib.test_cold_replay_of_both_goldens`` also replays the coeff
and mollify cases in cold interpreters, where the CLI runs OpenBLAS on one
thread unless the caller set a count.
"""

import json
from pathlib import Path

import pytest

from divsum.cli import main

CASES = json.loads((Path(__file__).with_name("golden_cli.json")).read_text()) + [
    {"argv": ["--quiet", "coeff", "--n", "32", "--levels", "20"], "code": 0,
     "stdout": "extrapolant -32 0\nexpected -32\npass\n"},
    {"argv": ["--quiet", "mollify", "--target", "jump:sign", "--p", "4"], "code": 0,
     "stdout": "extrapolant 0 0\nerror_estimate 5e-14\nconverged\n"},
]


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_stdout_and_exit_code(capsys, case):
    code = main(case["argv"])
    assert (code, capsys.readouterr().out) == (case["code"], case["stdout"])
