"""Child processes started by run.py.

    python child.py setup WORKLOAD   cold import of divsum.cli, plus the
                                      lib-pairings warm-up for that workload
    python child.py cli ARGS...       one divsum command under the tracer

The traced command writes its spans and counters as one JSON line,
prefixed with TRACE_MARK, to stderr; stdout is the command's own output.
"""

import sys
import time

TRACE_MARK = "@@perfbench-trace "


def _setup(workload):
    import divsum.cli  # noqa: F401

    if workload == "lib-pairings":
        import libops
        import workloads

        libops.warm_up(workloads.Schedule(workload, 0).block())


def _traced_cli(argv):
    t0 = time.perf_counter()
    import divsum.cli

    t1 = time.perf_counter()
    import json

    import tracer

    tr = tracer.Tracer().install()
    main = tr.wrap("cli.main", divsum.cli.main)
    try:
        rc = main(argv)
    finally:
        sys.stdout.flush()
        record = tr.export()
        record["import"] = [t0, t1]
        sys.stderr.write(TRACE_MARK + json.dumps(record) + "\n")
    return rc


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        _setup(sys.argv[2])
    elif mode == "cli":
        sys.exit(_traced_cli(sys.argv[2:]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
