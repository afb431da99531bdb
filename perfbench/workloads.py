"""Seeded workload schedules for the divsum benchmark.

Every workload is a sequence of fixed-composition blocks.  A block lists
the same operation kinds in the same numbers on every seed; the seed only
chooses the concrete inputs and the order inside the block.  Ranged inputs
(k, n, d, bump parameters) come from stratified streams: draw i of a
stream lies in the sixteenth of [0, 1) that starts at vdc(i), the base-2
van der Corput point, at a seeded position inside it.  The first sixteen
draws of a stream thus fall one in each sixteenth, and any prefix covers
the distribution evenly, so runs on different seeds see the same input mix.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field

# Block compositions.  Order inside a block is shuffled per seed.
# In cli-exact, zeta and check (13 of 20) need no Taylor series, while sum,
# casimir and table build it at order 64 or more and take about 1.5x as
# long.  With the fast kind in a clear majority, the median falls inside its
# cluster rather than in the gap between the two, and p90 inside the other.
CLI_EXACT_BLOCK = (
    ["zeta"] * 7 + ["check"] * 6
    + ["sum"] * 2 + ["sum-alt"] + ["casimir"] * 2 + ["table"] * 2
)
# four Dirichlet combs per block, three at --levels 8 and one at 10: 16% of
# the operations.  The combs at 8 levels take ranks 85 to 96 of every 100
# latencies and those at 10 the top four, so the 90th percentile falls in
# the middle of a cluster of like operations, not at its edge
CLI_LADDERS_BLOCK = (
    ["coeff"] * 7 + ["mollify:S"] * 3 + ["mollify:H2S"] * 3
    + ["mollify:T0"] * 2
    + ["mollify:jump:heaviside"] * 2 + ["mollify:jump:sign"] * 2
    + ["mollify:jump:cos"] * 2
    + ["dirichlet:8"] * 3 + ["dirichlet:10"]
)
LIB_BLOCK = (
    [f"coeff:{n}" for n in range(-32, 33)]
    + [f"mollified:{t}:{p}" for t in ("S", "H2S") for p in (0, 2, 4)]
    + ["mollified:T0:2", "mollified:T0:4"]
    + ["jump:heaviside", "jump:sign", "jump:cos"]
    + ["fp"] * 4 + ["asa"] * 6
)

# Wall seconds of one block at commit 13354f6 on a 2-vCPU Intel Xeon host.
# A run of --seconds S executes round(S / NOMINAL_BLOCK_S) blocks, so its
# work is fixed by S and the same on every commit it is compared across.
NOMINAL_BLOCK_S = {"cli-exact": 7.0, "lib-pairings": 0.8, "cli-ladders": 12.0}

FORMATS = ("text", "json", "csv")
# support widths for alternating_series_action, in periods of 2*pi; a small
# fixed set keeps the independent Fourier-series truth cheap to tabulate
ASA_PERIODS = (1.5, 2.0, 3.0, 4.0)


def vdc(i: int) -> float:
    """Base-2 van der Corput radical inverse of i."""
    x, d = 0.0, 0.5
    while i:
        if i & 1:
            x += d
        i >>= 1
        d *= 0.5
    return x


class Stream:
    """Stratified quantiles: vdc(i) plus a seeded offset within 1/STRATA."""

    STRATA = 16

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.i = 0

    def next(self) -> float:
        u = (vdc(self.i) + self.rng.random() / self.STRATA) % 1.0
        self.i += 1
        return u


class Cycle:
    """Round-robin over a tuple of choices from a seeded starting offset."""

    def __init__(self, rng: random.Random, choices):
        self.choices = tuple(choices)
        self.i = rng.randrange(len(self.choices))

    def next(self):
        c = self.choices[self.i % len(self.choices)]
        self.i += 1
        return c


class HarmonicK:
    """Integer k in [lo, hi] with weight 1/k, drawn by quantile."""

    def __init__(self, lo: int, hi: int):
        self.ks = list(range(lo, hi + 1))
        total = sum(1.0 / k for k in self.ks)
        acc, self.cdf = 0.0, []
        for k in self.ks:
            acc += 1.0 / k / total
            self.cdf.append(acc)

    def at(self, u: float) -> int:
        return self.ks[min(bisect.bisect_left(self.cdf, u), len(self.ks) - 1)]


@dataclass
class Op:
    """One operation: ``kind`` names it, ``spec`` holds its inputs."""

    kind: str
    spec: dict = field(default_factory=dict)
    argv: list | None = None  # CLI arguments after the program name

    def key(self) -> str:
        return self.kind + " " + " ".join(self.argv or [repr(sorted(self.spec.items()))])


class Schedule:
    """Endless, seeded sequence of blocks for one workload."""

    def __init__(self, workload: str, seed: int):
        if workload not in BLOCKS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self._streams: dict = {}
        self._cycles: dict = {}
        self.blocks_made = 0
        self.pairs = 0

    def stream(self, name: str) -> Stream:
        if name not in self._streams:
            self._streams[name] = Stream(self.rng)
        return self._streams[name]

    def cycle(self, name: str, choices) -> Cycle:
        if name not in self._cycles:
            self._cycles[name] = Cycle(self.rng, choices)
        return self._cycles[name]

    def uniform(self, name: str, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.stream(name).next()

    def block(self) -> list:
        make = MAKERS[self.workload]
        ops = [make(self, kind) for kind in BLOCKS[self.workload]]
        ops = [op for item in ops for op in (item if isinstance(item, list) else [item])]
        self.rng.shuffle(ops)
        self.blocks_made += 1
        return ops

    def ops(self, count: int) -> list:
        out = []
        while len(out) < count:
            out.extend(self.block())
        return out[:count]


# ---------------------------------------------------------------------------
# cli-exact

_K200 = HarmonicK(1, 200)
_K100 = HarmonicK(1, 100)


def _make_cli_exact(s: Schedule, kind: str) -> Op:
    fmt = s.cycle("fmt:" + kind, FORMATS).next()
    if kind in ("sum", "sum-alt"):
        k = _K200.at(s.stream("k:" + kind).next())
        argv = ["sum", "--k", str(k)] + (["--alternating"] if kind == "sum-alt" else [])
        spec = {"k": k, "alternating": kind == "sum-alt"}
    elif kind == "zeta":
        k = _K200.at(s.stream("k:zeta").next())
        argv, spec = ["zeta", "--neg-k", str(k)], {"k": k}
    elif kind == "check":
        k = _K200.at(s.stream("k:check").next())
        argv, spec = ["check", "--k", str(k)], {"k": k}
    elif kind == "table":
        k = _K100.at(s.stream("k:table").next())
        argv, spec = ["table", "--k-max", str(k)], {"k": k}
    else:
        # separations log-uniform over 1e-3 .. 1e3, printed with 6 digits
        d = float(f"{10 ** s.uniform('d:' + kind, -3.0, 3.0):.6g}")
        units = s.cycle("units", ("natural", "si")).next()
        argv = ["casimir", "--d", repr(d)] + (["--units", "si"] if units == "si" else [])
        spec = {"d": d, "units": units}
    spec["format"] = fmt
    return Op(kind, spec, ["--format", fmt] + argv)


# ---------------------------------------------------------------------------
# cli-ladders


def _make_cli_ladders(s: Schedule, kind: str) -> Op:
    fmt = s.cycle("fmt:" + kind, FORMATS).next()
    if kind == "coeff":
        n = -32 + min(64, int(65 * s.stream("n").next()))
        return Op(kind, {"n": n, "levels": 10, "format": fmt},
                  ["--format", fmt, "coeff", "--n", str(n)])
    if kind.startswith("dirichlet:"):
        levels = int(kind.split(":")[1])
        return Op("mollify:dirichlet",
                  {"target": "dirichlet", "p": 0, "levels": levels, "format": fmt},
                  ["--format", fmt, "mollify", "--target", "dirichlet",
                   "--levels", str(levels)])
    target = kind.split(":", 1)[1]
    orders = (2, 4) if target == "T0" else (0, 2, 4)
    p = s.cycle("p:" + kind, orders).next()
    levels = 8 if target == "T0" else 10
    return Op(kind, {"target": target, "p": p, "levels": levels, "format": fmt},
              ["--format", fmt, "mollify", "--target", target, "--p", str(p)])


# ---------------------------------------------------------------------------
# lib-pairings

TWO_PI = 2.0 * math.pi


def _fp_spec(s: Schedule) -> dict:
    """A bump inside (0, 2*pi), shifted (scale m) or dilated (half-width h)."""
    amp = s.uniform("fp:amp", 0.5, 2.0)
    if s.cycle("fp:mode", ("shift", "dilate")).next() == "shift":
        # one cycle over every (p, m) pair, so each seed sees all nine
        p, m = s.cycle("fp:p,m", [(p, m) for p in (0, 2, 4) for m in (1, 2, 3)]).next()
        half = 1.0 / m
        spec = {"mode": "shift", "m": m}
    else:
        p = s.cycle("fp:p", (0, 2, 4)).next()
        half = s.uniform("fp:half", 0.3, 1.5)
        spec = {"mode": "dilate", "half": half}
    margin = 0.05
    spec.update(p=p, amp=amp,
                center=s.uniform("fp:center", half + margin, TWO_PI - half - margin))
    return spec


def _asa_spec(s: Schedule) -> dict:
    """A dilated bump whose support spans several periods."""
    return {
        "p": s.cycle("asa:p", (0, 2, 4)).next(),
        "periods": s.cycle("asa:periods", ASA_PERIODS).next(),
        "center": s.uniform("asa:center", -math.pi, math.pi),
        "amp": s.uniform("asa:amp", 0.5, 2.0),
    }


def _make_lib(s: Schedule, kind: str) -> Op:
    if kind.startswith("coeff:"):
        return Op("coeff", {"n": int(kind.split(":")[1])})
    if kind.startswith("mollified:"):
        _, target, p = kind.split(":")
        return Op("mollified", {"target": target, "p": int(p),
                                "levels": 8 if target == "T0" else 10})
    if kind.startswith("jump:"):
        return Op("jump", {"name": kind.split(":")[1],
                           "p": s.cycle("jump:p:" + kind, (0, 2, 4)).next()})
    if kind == "fp":
        # both finite-part routes on the same input; verification pairs them
        spec = _fp_spec(s)
        spec["pair"] = s.pairs = s.pairs + 1
        return [Op("fp-remainder", spec), Op("fp-epsilon", dict(spec))]
    return Op("asa", _asa_spec(s))


BLOCKS = {
    "cli-exact": CLI_EXACT_BLOCK,
    "lib-pairings": LIB_BLOCK,
    "cli-ladders": CLI_LADDERS_BLOCK,
}
MAKERS = {
    "cli-exact": _make_cli_exact,
    "lib-pairings": _make_lib,
    "cli-ladders": _make_cli_ladders,
}
WORKLOADS = tuple(BLOCKS)
