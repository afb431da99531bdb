"""In-process calls for the lib-pairings workload.

Each call looks its library function up through the module at call time,
so that a tracer installed between calls sees it.  Test functions are built
before the clock starts; only the library call is timed.
"""

from __future__ import annotations

import math

import numpy as np

import divsum.distributions as dist
from divsum.mollifiers import mollifier

JUMP_FUNCTIONS = {
    "heaviside": lambda t: np.where(np.asarray(t) > 0, 1.0, 0.0),
    "sign": lambda t: np.sign(np.asarray(t)),
    "cos": np.cos,
}


def _pairing(target):
    if target == "S":
        return lambda tf: dist.alternating_series_action(tf)
    if target == "H2S":
        return lambda tf: 0.5 * dist.alternating_series_action(tf.dilated(0.5))
    return lambda tf: dist.all_plus_series_action(tf)


def _fp_function(spec):
    if spec["mode"] == "shift":
        base = mollifier(spec["p"], spec["m"])
    else:
        base = mollifier(spec["p"], 1).dilated(1.0 / spec["half"])
    return base.shifted(spec["center"]).scaled(spec["amp"])


def prepare(op):
    """A zero-argument callable performing the operation's library call."""
    kind, spec = op.kind, op.spec
    if kind == "coeff":
        return lambda: dist.fourier_coefficient_numeric(spec["n"])
    if kind == "mollified":
        pairing = _pairing(spec["target"])
        return lambda: dist.mollified_limit(pairing, spec["p"], spec["levels"])
    if kind == "jump":
        f = JUMP_FUNCTIONS[spec["name"]]
        return lambda: dist.jump_average(f, vanishing_order=spec["p"])
    if kind == "fp-remainder":
        phi = _fp_function(spec)
        return lambda: dist.finite_part_action(phi)
    if kind == "fp-epsilon":
        phi = _fp_function(spec)
        return lambda: dist.finite_part_action_epsilon(phi)
    if kind == "asa":
        phi = (mollifier(spec["p"], 1).dilated(1.0 / (spec["periods"] * math.pi))
               .shifted(spec["center"]).scaled(spec["amp"]))
        return lambda: dist.alternating_series_action(phi)
    raise ValueError(f"unknown op kind {kind}")


def warm_up(ops):
    """Run each kind of operation once, filling caches and lazy set-up."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            prepare(op)()
