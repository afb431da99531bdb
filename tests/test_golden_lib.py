"""Library values pinned beside the CLI goldens.

``golden_lib.json`` maps each call below to its record: the ``float.hex``
of every sample (parameter and value), extrapolant and error estimate,
with ``converged`` and ``growth_exponent``, or the ``float.hex`` of a
single value.  The calls are the c_n ladders, the S, H2S and T0 scale
ladders, the three jumps, both finite-part routes on the mpmath-checked
bumps and on bumps with a support edge on the pole or just past it,
``alternating_series_action`` on bumps whose pole lies just outside the
support and on 12 bumps spanning 1.5 to 4 periods, and ``zeta_partial_sum``
past 2^20 terms and on both sides of its numpy-free branch.

Whether a ladder converged or diverged, and its parameters, must match
exactly.  Every value, estimate and growth exponent must lie within
``REL_BOUND`` times the entry's scale, max(1, the largest |value| among its
samples and extrapolant): the same absolute-below-1 floor as the library's
absolute quadrature tolerance.  The entries are replayed in process, and
with the numerical cases of ``golden_cli.json`` in one cold interpreter per
entry of ``ENVIRONMENTS``: OpenBLAS at one thread and at two, with
``DIVSUM_QUAD_TOL`` set (the library reads no such variable), and with
numpy's AVX512-class loops switched off.  The CLI cases load no numpy,
and the replay asserts that.  The last bits of library samples depend on
numpy's CPU dispatch; the printed digits and every entry within
``REL_BOUND`` do not.

Regenerate with ``PYTHONPATH=src python tests/test_golden_lib.py --write``;
it prints each entry that moves, and by how much, before it rewrites the
file.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from divsum.coefficients import fourier_coefficient_numeric
from divsum.distributions import (
    all_plus_series_action,
    alternating_series_action,
    finite_part_action,
    finite_part_action_epsilon,
    jump_average,
    mollified_limit,
)
from divsum.extrapolation import EpsilonLimit
from divsum.mollifiers import mollifier
from divsum.sums import zeta_partial_sum
from oracles import (
    EDGE_POLE_BUMPS,
    JUMPS,
    NEAR_POLE_BUMPS,
    REMAINDER_BUMPS,
    SPANNING_BUMPS,
)
from test_cli_golden import CASES
from test_imports import _run_probe

GOLDEN = Path(__file__).with_name("golden_lib.json")
PI = math.pi
# OpenBLAS at one and two threads gives the same bits.  Summing each panel's
# weighted nodes by (values * weights).sum(-1) or np.einsum instead of BLAS's
# @ moves 43 entries, the worst by 2.7e-13 of its scale (the counterterm
# extrapolant of the p = 2 bump at offset 0.3), and scaling every integrand
# value by a random 1 + 4 eps * U(-1, 1) by at most 1.6e-13
REL_BOUND = 1e-12
# the CLI cases that run the numerical ladders
NUMERICAL = [c for c in CASES if {"coeff", "mollify"} & set(c["argv"])]


def calls() -> dict:
    """Entry name -> a zero-argument library call."""
    out = {}
    for n in range(-32, 33):
        out[f"coeff n={n} levels=10"] = lambda n=n: fourier_coefficient_numeric(n, 10)
    for p in (0, 2, 4):
        out[f"S p={p}"] = lambda p=p: mollified_limit(alternating_series_action, p, 10)
        out[f"H2S p={p}"] = lambda p=p: mollified_limit(
            lambda tf: 0.5 * alternating_series_action(tf.dilated(0.5)), p, 10)
    for p in (2, 4):
        out[f"T0 p={p}"] = lambda p=p: mollified_limit(all_plus_series_action, p, 8)
    for name, f in JUMPS.items():
        for p in (0, 2, 4):
            out[f"jump:{name} p={p}"] = lambda f=f, p=p: jump_average(f, p)
    for p, lam, offset in REMAINDER_BUMPS:
        tf = mollifier(p, 1).dilated(lam).shifted(PI + offset)
        key = f"p={p} lam={lam!r} offset={offset!r}"
        out[f"finite_part_action {key}"] = lambda tf=tf: finite_part_action(tf)
        out[f"finite_part_action_epsilon {key}"] = (
            lambda tf=tf: finite_part_action_epsilon(tf))
    for p, side, gap in EDGE_POLE_BUMPS:
        tf = mollifier(p, 1).dilated(20.0).shifted(PI + side * (0.05 + gap))
        key = f"p={p} side={side:+d} gap={gap!r}"
        out[f"finite_part_action edge {key}"] = lambda tf=tf: finite_part_action(tf)
        out[f"finite_part_action_epsilon edge {key}"] = (
            lambda tf=tf: finite_part_action_epsilon(tf))
    for p, gap, side in NEAR_POLE_BUMPS:
        tf = mollifier(p, 1).dilated(1000.0).shifted(PI + side * (gap + 0.001))
        out[f"alternating_series_action p={p} gap={gap} side={side:+d}"] = (
            lambda tf=tf: alternating_series_action(tf))
    for p, periods, tf in SPANNING_BUMPS[0]:  # one bump per cell
        out[f"alternating_series_action p={p} periods={periods}"] = (
            lambda tf=tf: alternating_series_action(tf))
    for s in (2.0, 4.0, 12.0):
        for terms in (10, 65537, 10**6, (1 << 20) + 1):
            out[f"zeta_partial_sum s={s} terms={terms}"] = (
                lambda s=s, terms=terms: zeta_partial_sum(s, terms))
    # both sides of s = 54, from where the skips leave one block
    for s in (53.0, 54.0, 56.0, 200.0):
        out[f"zeta_partial_sum s={s} terms={10**6}"] = (
            lambda s=s: zeta_partial_sum(s, 10**6))
    return out


def _hex(z) -> list:
    return [float(z.real).hex(), float(z.imag).hex()]


def record(value) -> dict:
    """A library result in JSON types, every float as its float.hex."""
    if isinstance(value, EpsilonLimit):
        return {
            "samples": [[float(p).hex(), *_hex(v)] for p, v in value.samples],
            "extrapolated": None if value.extrapolated is None else _hex(value.extrapolated),
            "error_estimate": float(value.error_estimate).hex(),
            "converged": value.converged,
            "growth_exponent": (None if value.growth_exponent is None
                                else float(value.growth_exponent).hex()),
        }
    return {"value": _hex(complex(value))}


def compute() -> dict:
    return {name: record(call()) for name, call in calls().items()}


def _values(rec: dict) -> list:
    """(label, float) of every compared value of a record."""
    if "value" in rec:
        return [("value", float.fromhex(h)) for h in rec["value"]]
    out = [(f"sample {i}", float.fromhex(h))
           for i, (_, *vs) in enumerate(rec["samples"]) for h in vs]
    if rec["extrapolated"] is not None:
        out += [("extrapolated", float.fromhex(h)) for h in rec["extrapolated"]]
    return out


def _shape(rec: dict) -> tuple:
    """What must match exactly: parameters, convergence and divergence."""
    if "value" in rec:
        return ()
    return ([p for p, *_ in rec["samples"]], rec["converged"],
            rec["extrapolated"] is None, rec["growth_exponent"] is None)


def moves(want: dict, got: dict) -> list:
    """(label, wanted, got, move / scale) for each value that is not bitwise
    the same; estimates and exponents count as values."""
    values = _values(want)
    scale = max([1.0, *(abs(v) for _, v in values if math.isfinite(v))])
    pairs = [(label, a, b) for (label, a), (_, b) in zip(values, _values(got))]
    if "value" not in want:
        pairs += [(field, float.fromhex(want[field]), float.fromhex(got[field]))
                  for field in ("error_estimate", "growth_exponent")
                  if want[field] is not None and got[field] is not None]
    return [(label, a, b, abs(b - a) / scale) for label, a, b in pairs
            if a.hex() != b.hex() and not (math.isnan(a) and math.isnan(b))]


def misses(want: dict, got: dict) -> list:
    """Entries missing, of another shape, or with a move past REL_BOUND."""
    return [name for name, rec in want.items()
            if name not in got or _shape(got[name]) != _shape(rec)
            or any(not rel <= REL_BOUND for *_, rel in moves(rec, got[name]))]


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_call_is_pinned():
    assert sorted(_golden()) == sorted(calls())


def test_in_process_replay():
    assert misses(_golden(), compute()) == []


def avx512_targets() -> list:
    """The AVX512-class dispatch targets numpy enables in this process:
    X86_V4 and every AVX512* name, read from numpy's private tables (none
    where this numpy has no such tables)."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return []
    return [t for t in __cpu_dispatch__ if __cpu_features__.get(t)
            and (t == "X86_V4" or t.startswith("AVX512"))]


HOST_TARGETS = avx512_targets()
# (environment changes, OPENBLAS_NUM_THREADS and AVX512-class targets the
# replay must report).  No CLI case loads numpy, so the library records run
# at the thread count set here, which main() leaves alone; numpy reads
# NPY_DISABLE_CPU_FEATURES at import, so the last entry runs the loops of a
# host without AVX512
ENVIRONMENTS = [
    pytest.param({"OPENBLAS_NUM_THREADS": "1"}, "1", HOST_TARGETS, id="blas-1"),
    pytest.param({"OPENBLAS_NUM_THREADS": "2"}, "2", HOST_TARGETS, id="blas-2"),
    pytest.param({"OPENBLAS_NUM_THREADS": "1", "DIVSUM_QUAD_TOL": "1e-300"}, "1",
                 HOST_TARGETS, id="quad-tol-1e-300"),
    pytest.param({"OPENBLAS_NUM_THREADS": "1",
                  "NPY_DISABLE_CPU_FEATURES": " ".join(HOST_TARGETS)}, "1", [],
                 id="no-avx512", marks=pytest.mark.skipif(
                     not HOST_TARGETS,
                     reason="numpy enables no AVX512-class dispatch target on this host")),
]

# argv[1] is the tests directory and argv[2] the JSON list of CLI argvs.  The
# CLI cases run before anything loads numpy, as in a cold command; the report
# is whether they loaded numpy, the final OPENBLAS_NUM_THREADS, the
# AVX512-class targets numpy enabled, each case's exit code and stdout, and
# the library records
_REPLAY = r"""
import contextlib, io, json, os, sys
from divsum.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
cli_numpy = "numpy" in sys.modules
sys.path.insert(0, sys.argv[1])
from test_golden_lib import avx512_targets, compute
records = compute()
sys.stderr.write("\n" + json.dumps([cli_numpy, os.environ.get("OPENBLAS_NUM_THREADS"),
                                    avx512_targets(), results, records]))
"""


@pytest.mark.parametrize("env, threads, targets", ENVIRONMENTS)
def test_cold_replay_of_both_goldens(env, threads, targets):
    cli_numpy, value, enabled, results, records = _run_probe(
        _REPLAY, str(Path(__file__).parent),
        json.dumps([c["argv"] for c in NUMERICAL]), env=env)
    missed = [" ".join(c["argv"]) for c, (code, out) in zip(NUMERICAL, results)
              if (code, out) != (c["code"], c["stdout"])]
    assert (cli_numpy, value, enabled, len(results), missed,
            misses(_golden(), records)) == (
        False, threads, targets, len(NUMERICAL), [], [])


def write() -> None:
    """Rewrite golden_lib.json, printing each value that moves."""
    old = _golden() if GOLDEN.exists() else {}
    new = compute()
    for name in sorted(set(old) | set(new)):
        if name not in new or name not in old:
            print(f"{name}: {'removed' if name not in new else 'added'}")
        elif _shape(new[name]) != _shape(old[name]):
            print(f"{name}: shape {_shape(old[name])} -> {_shape(new[name])}")
        else:
            for label, a, b, rel in moves(old[name], new[name]):
                print(f"{name}: {label} {a!r} -> {b!r} ({rel:.2g} of its scale)")
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_lib.py --write")
    write()
