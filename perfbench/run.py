"""divsum benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload cli-exact --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the directory holding src/divsum).
The library is used unmodified and uninstalled: CLI commands run as
``python -m divsum.cli`` with src on PYTHONPATH, exactly as the tier-1
tests import it, and DIVSUM_QUAD_TOL is removed so its default applies.

Load comes from one closed-loop client: the next operation starts only
after the previous one returned.  A run executes a fixed number of whole
blocks (see workloads.py): as many as take --seconds at the nominal block
time, but never fewer than MIN_OPS operations, so the 90th percentile has
at least ten samples beyond it.  The same --seconds thus gives the same
operations on every commit.  Outputs are verified after the timed loop
against truths computed here (verify.py).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced pass over a fixed number of operations.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --out FILE the full record, stamped with commit, versions and machine
load, is appended to FILE as one JSON line (compare.py reads these).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100          # p90 then has at least ten samples beyond it
MAX_LOOP_S = 100.0     # the timed loop starts no block after this
OP_TIMEOUT_S = 60.0    # a CLI command still running after this is killed
SETUP_PROBES = 7       # cold set-ups per run; setup_s is their median
TRACE_OPS = {"cli-exact": 40, "lib-pairings": 180, "cli-ladders": 50}

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_s", "s"),
    ("latency_p90_s", "s"), ("cpu_per_op_s", "s"), ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
)
PER_LAYER = (
    ("startup.numpy_import_s", "s"), ("startup.divsum_import_s", "s"),
    ("series.busy_s", "s"), ("series.orders_built", "count"),
    ("series.max_order", "count"),
    ("sums.busy_s", "s"), ("sums.bernoulli_calls", "count"),
    ("sums.bernoulli_steps", "count"),
    ("quadrature.calls", "count"), ("quadrature.evals", "count"),
    ("quadrature.panel_evals", "count"), ("quadrature.busy_s", "s"),
    ("quadrature.errors", "count"),
    ("extrapolation.ladders", "count"), ("extrapolation.samples", "count"),
    ("extrapolation.divergent", "count"), ("extrapolation.converged_ratio", "ratio"),
    ("extrapolation.busy_s", "s"),
    ("mollifiers.evals", "count"), ("mollifiers.busy_s", "s"),
    ("mollifiers.bump_moment_calls", "count"),
    ("distributions.busy_s", "s"), ("distributions.comb_terms", "count"),
    ("distributions.comb_busy_s", "s"),
    ("cli.busy_s", "s"), ("cli.bytes_out", "bytes"),
    ("tracing.overhead_ratio", "ratio"),
)


class Outcome:
    """What one operation did: timing, resources and its raw result."""

    __slots__ = ("op", "wall", "cpu", "rc", "out", "err", "value",
                 "trace", "start", "status", "reason", "known")

    def __init__(self, op, **kw):
        self.op = op
        self.wall = self.cpu = 0.0
        self.rc = 0
        self.out = self.err = ""
        self.value = self.trace = None
        self.start = 0.0
        self.status, self.reason, self.known = "ok", None, None
        for key, val in kw.items():
            setattr(self, key, val)


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    """Children get src on PYTHONPATH, the default quadrature tolerance, and
    bytecode caching, as an installed command would have."""
    env = dict(os.environ)
    env.pop("DIVSUM_QUAD_TOL", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv, env, timeout=OP_TIMEOUT_S) -> dict:
    """Run argv to completion: wall time, the child's CPU time, stdout, stderr.

    The CPU time is the growth of RUSAGE_CHILDREN across the call.  It
    holds this child alone, because each child is waited for before the
    next one starts.  A child still running after timeout is killed.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, env=env, cwd=ROOT, timeout=timeout)
        rc, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        rc, out, err = -signal.SIGKILL, exc.stdout or b"", exc.stderr or b""
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "start": start, "wall": wall, "rc": rc,
        "cpu": after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime,
        "out": out.decode(errors="replace"), "err": err.decode(errors="replace"),
    }


def parse_importtime(err: str) -> tuple:
    """(numpy, divsum without numpy) cumulative import seconds from -X importtime."""
    numpy_us = divsum_us = 0
    for line in err.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue
        indent = len(name) - len(name.lstrip())
        name = name.strip()
        if name == "numpy":
            numpy_us = int(cum)
        elif name.startswith("divsum") and indent == 1:
            divsum_us = max(divsum_us, int(cum))
    return numpy_us / 1e6, (divsum_us - numpy_us) / 1e6


def measure_setup(workload, env, importtime=False) -> tuple:
    """Median wall time of cold set-ups, and the import-time split of each."""
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(HERE / "child.py"), "setup", workload]
    walls, splits = [], []
    for i in range(SETUP_PROBES + 1):
        res = spawn(argv, env)
        if res["rc"] != 0:
            raise RuntimeError(f"set-up probe failed:\n{res['err'][-2000:]}")
        if i:  # the first probe also writes bytecode caches; discard it
            walls.append(res["wall"])
            splits.append(parse_importtime(res["err"]))
    return walls, splits


# ---------------------------------------------------------------------------
# executing operations


def cli_executor(env, traced):
    from child import TRACE_MARK

    prefix = [sys.executable] + (
        [str(HERE / "child.py"), "cli"] if traced else ["-m", "divsum.cli"])

    def execute(op):
        res = spawn(prefix + op.argv, env)
        outcome = Outcome(op, **res)
        if traced:
            kept = []
            for line in res["err"].splitlines(keepends=True):
                if line.startswith(TRACE_MARK):
                    outcome.trace = json.loads(line[len(TRACE_MARK):])
                else:
                    kept.append(line)
            outcome.err = "".join(kept)
        return outcome

    return execute


def lib_executor():
    import libops

    def execute(op):
        call = libops.prepare(op)
        start = time.perf_counter()
        try:
            value = call()
        except Exception:  # a library error is a failed operation, not a crash
            wall = time.perf_counter() - start
            return Outcome(op, start=start, wall=wall, rc=1, err=traceback.format_exc())
        return Outcome(op, start=start, wall=time.perf_counter() - start, value=value)

    return execute


def traced_pass(ops, env, in_process) -> tuple:
    """Run ops under the tracer: (outcomes, wall, spans, counts, maxima)."""
    import tracer

    if in_process:
        tr = tracer.Tracer().install()
        execute = lib_executor()
        outcomes = []
        t0 = time.perf_counter()
        try:
            for op_id, op in enumerate(ops):
                tr.op = op_id
                outcomes.append(execute(op))
        finally:
            tr.uninstall()
        return outcomes, time.perf_counter() - t0, tr.spans, tr.counts, tr.maxima

    execute = cli_executor(env, traced=True)
    t0 = time.perf_counter()
    outcomes = [execute(op) for op in ops]
    wall = time.perf_counter() - t0
    counts, maxima = Counter(), Counter()
    for o in outcomes:
        if o.trace:
            counts.update(o.trace["counts"])
            for key, val in o.trace["maxima"].items():
                maxima[key] = max(maxima[key], val)
    return outcomes, wall, cli_spans(outcomes), counts, maxima


def block_count(workload, seconds) -> int:
    import workloads

    per_block = len(workloads.BLOCKS[workload])
    return max(math.ceil(MIN_OPS / per_block),
               round(seconds / workloads.NOMINAL_BLOCK_S[workload]))


def timed_loop(schedule, execute, blocks) -> tuple:
    """Run whole blocks; stop early only past MAX_LOOP_S."""
    outcomes = []
    cpu0, t0 = time.process_time(), time.perf_counter()
    for _ in range(blocks):
        for op in schedule.block():
            outcomes.append(execute(op))
        if time.perf_counter() - t0 >= MAX_LOOP_S:
            break
    return outcomes, time.perf_counter() - t0, time.process_time() - cpu0


# ---------------------------------------------------------------------------
# verification


def verify(outcomes) -> None:
    """Set status to ok, error (exit status, traceback, exception) or wrong,
    and name the known parent defect behind each failure that shows one."""
    import verify as v

    pairs = {}
    for o in outcomes:
        if o.rc != 0 or "Traceback" in o.err:
            tail = o.err.strip().splitlines()[-1:] or [""]
            o.status, o.reason = "error", f"exit {o.rc}: {tail[0][:160]}"
            o.known = v.known_check_defect(o.op, o.rc, o.out, o.err)
            continue
        o.reason = v.check_cli(o.op, o.out) if o.op.argv else v.check_lib(o.op, o.value)
        if o.reason:
            o.status = "wrong"
            if o.op.kind == "fp-epsilon":
                o.known = v.known_fp_epsilon_defect(o.op.spec, o.value)
        if o.op.kind.startswith("fp-"):
            pairs.setdefault(o.op.spec["pair"], {})[o.op.kind] = o
    for pair in pairs.values():
        if len(pair) == 2 and all(o.status == "ok" for o in pair.values()):
            rem, eps = pair["fp-remainder"], pair["fp-epsilon"]
            reason, known = v.check_fp_pair(rem.op.spec, rem.value, eps.value)
            if reason:
                for o in pair.values():
                    o.status, o.reason, o.known = "wrong", reason, known


def k_share(outcomes) -> float | None:
    ks = [o.op.spec["k"] for o in outcomes if "k" in o.op.spec]
    return sum(k > 64 for k in ks) / len(outcomes) if ks else None


# ---------------------------------------------------------------------------
# metrics


def percentile(values, q) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, the i-th of n weighted by the
    mass that Beta(q(n+1), (1-q)(n+1)) puts on [(i-1)/n, i/n].  The weight
    sits on the few samples around rank q*n, so one sample that a slow
    moment of the host stretched moves it less than it moves a single
    nearest-rank sample.  The Beta mass is summed over 64 midpoints per
    sample interval.
    """
    import numpy as np

    ordered = np.sort(np.asarray(values, dtype=float))
    n, sub = len(ordered), 64
    a, b = q * (n + 1), (1 - q) * (n + 1)
    u = (np.arange(n * sub) + 0.5) / (n * sub)
    log_pdf = (a - 1) * np.log(u) + (b - 1) * np.log1p(-u)
    mass = np.exp(log_pdf - log_pdf.max()).reshape(n, sub).sum(axis=1)
    return float(mass @ ordered / mass.sum())


def end_to_end(outcomes, loop_wall, loop_cpu, setup_walls, rss_mb, in_process) -> dict:
    walls = [o.wall for o in outcomes]
    n = len(outcomes)
    cpu = loop_cpu / n if in_process else statistics.fmean(o.cpu for o in outcomes)
    return {
        "setup_s": statistics.median(setup_walls),
        "ops_per_s": n / loop_wall,
        "latency_p50_s": percentile(walls, 0.5),
        "latency_p90_s": percentile(walls, 0.9),
        "cpu_per_op_s": cpu,
        "peak_rss_mb": rss_mb,
        "success_ratio": sum(o.status == "ok" for o in outcomes) / n,
    }


def cli_spans(outcomes) -> list:
    """Merge the children's spans into one list with op ids and a startup span."""
    spans = []
    for op_id, o in enumerate(outcomes):
        if not o.trace:
            continue
        base = len(spans) + 1
        spans.append(["startup.interpreter", o.start, o.trace["import"][1], -1, op_id])
        for name, start, end, parent, _ in o.trace["spans"]:
            spans.append([name, start, end, parent + base if parent >= 0 else -1, op_id])
    return spans


def per_layer(spans, counts, maxima, splits, outcomes, plain_wall, traced_wall,
              details) -> dict:
    """Per-layer metrics; self time per span name goes into details."""
    from tracer import busy_by_name

    busy = busy_by_name(spans)
    details["self_s_by_span"] = {k: v for k, v in sorted(busy.items()) if "." in k}
    metrics = {
        "startup.numpy_import_s": statistics.median(s[0] for s in splits),
        "startup.divsum_import_s": statistics.median(s[1] for s in splits),
        "cli.bytes_out": sum(len(o.out.encode()) for o in outcomes if o.op.argv),
        "tracing.overhead_ratio": traced_wall / plain_wall,
        "distributions.comb_busy_s": busy["distributions.dirichlet_comb_growth"],
        "series.max_order": maxima.get("series.max_order", 0),
    }
    ladders = counts.get("extrapolation.ladders", 0)
    metrics["extrapolation.converged_ratio"] = (
        counts.get("extrapolation.converged", 0) / ladders if ladders else 0.0)
    for name, _ in PER_LAYER:
        if name in metrics:
            continue
        layer, what = name.split(".", 1)
        metrics[name] = busy[layer] if what == "busy_s" else counts.get(name, 0)
    return metrics


# ---------------------------------------------------------------------------
# stamping and output


def stamp(seed) -> dict:
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "divsum").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in f
                              if ln.startswith("model name")), None)
    except OSError:
        pass
    import numpy

    return {
        "commit": commit, "src_sha256": digest.hexdigest()[:16], "seed": seed,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu_model or platform.processor(),
        "loadavg_before": list(os.getloadavg()),
    }


def cpu_jiffies() -> list | None:
    """Machine-wide CPU time from /proc/stat: user, nice, system, idle,
    iowait, irq, softirq, steal."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def cpu_shares(before, after) -> dict | None:
    """Shares of the machine's CPU time between two readings that were idle,
    and that the hypervisor gave to other guests (steal).  They tell a slow
    host from a slow program when runs disagree."""
    if not before or not after or len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return {"idle": delta[3] / total, "steal": delta[7] / total} if total else None


def by_kind(outcomes) -> dict:
    """Count, median and total wall time per operation kind."""
    groups = {}
    for o in outcomes:
        groups.setdefault(o.op.kind, []).append(o.wall)
    return {kind: {"n": len(w), "median_s": statistics.median(w), "total_s": sum(w)}
            for kind, w in sorted(groups.items())}


def failure_summary(outcomes) -> dict:
    return dict(Counter(f"known defect: {o.known}" if o.known else f"{o.op.kind}: {o.reason}"
                        for o in outcomes if o.status != "ok").most_common(12))


def run(args) -> dict:
    import workloads

    sys.path.insert(0, str(SRC))
    env = child_env()
    info = stamp(args.seed)
    jiffies = cpu_jiffies()
    in_process = args.workload == "lib-pairings"
    schedule = workloads.Schedule(args.workload, args.seed)
    setup_walls, splits = measure_setup(args.workload, env, importtime=bool(args.trace))

    if in_process:
        os.environ.pop("DIVSUM_QUAD_TOL", None)
        import libops

        libops.warm_up(workloads.Schedule(args.workload, 0).block())
        plain = lib_executor()
    else:
        plain = cli_executor(env, traced=False)

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    if not args.trace:
        blocks = block_count(args.workload, args.seconds)
        outcomes, loop_wall, loop_cpu = timed_loop(schedule, plain, blocks)
        # Peak RSS: the benchmark's own for the in-process workload, else the
        # largest child's.  RUSAGE_CHILDREN keeps the maximum over every child
        # so far; the set-up probes only import divsum.cli, and every command
        # does that and more, so the maximum is a command's.
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        rss_mb = resource.getrusage(who).ru_maxrss / 1024
        verify(outcomes)
        metrics = end_to_end(outcomes, loop_wall, loop_cpu, setup_walls, rss_mb, in_process)
        record.update(loop_wall_s=loop_wall, blocks=blocks,
                      blocks_run=schedule.blocks_made)
        record["latency_quantiles_s"] = {
            f"p{q}": percentile([o.wall for o in outcomes], q / 100)
            for q in (10, 25, 50, 75, 80, 85, 90, 95, 100)}
    else:
        ops = schedule.ops(TRACE_OPS[args.workload])
        t0 = time.perf_counter()
        first = [plain(op) for op in ops]
        plain_wall = time.perf_counter() - t0
        second, traced_wall, spans, counts, maxima = traced_pass(ops, env, in_process)
        metrics = per_layer(spans, counts, maxima, splits, second, plain_wall, traced_wall,
                            record)
        record["spans"] = len(spans)
        outcomes = first + second
        verify(outcomes)

    info["loadavg_after"] = list(os.getloadavg())
    info["cpu_share"] = cpu_shares(jiffies, cpu_jiffies())
    failed = sum(o.status != "ok" for o in outcomes)
    record.update(
        stamp=info, correct=all(o.status == "ok" or o.known for o in outcomes),
        attempted=len(outcomes), failed=failed,
        fail_ratio=failed / len(outcomes), k_over_64_share=k_share(outcomes),
        failures=failure_summary(outcomes), by_kind=by_kind(outcomes),
        metrics={name: {"value": metrics[name], "unit": unit}
                 for name, unit in (PER_LAYER if args.trace else END_TO_END)},
    )
    return record


def report(record) -> None:
    """Human-readable lines; the machine-readable result is the last line."""
    for key, val in record["stamp"].items():
        print(f"# {key}: {val}")
    print(f"# workload {record['workload']}: {record['attempted']} operations, "
          f"{record['failed']} failed, fail_ratio {record['fail_ratio']:.4f}")
    if record["k_over_64_share"] is not None:
        print(f"# share of operations with k > 64: {record['k_over_64_share']:.4f}")
    for reason, count in record["failures"].items():
        print(f"# failure x{count}: {reason}")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the full record to this file")
    args = parser.parse_args(argv)
    if not (SRC / "divsum" / "cli.py").is_file():
        print(f"error: no divsum sources under {SRC}; run from a divsum checkout",
              file=sys.stderr)
        return 2

    record = run(args)
    report(record)
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
