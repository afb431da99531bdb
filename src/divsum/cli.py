"""Command-line front end.

Subcommands: sum, zeta, check, coeff, mollify, casimir, table.  Global
flags --format {text|json|csv} and --quiet.

Exit status: 0 success; 1 a failed check: a table row whose closed form
misses the zeta oracle, or a check or coeff result that misses its
acceptance test, such as an unconverged coeff ladder at few levels; 2 usage
or precondition error; 3 numerical failure (a quadrature that cannot reach
its tolerance).  All floats print with 12 significant digits and rationals
as "p/q", so output is byte-stable for golden tests.

Each subcommand imports only what it runs.  At load this module imports
argparse, math, os and sys.  sum, zeta, table and an even-k check add
``divsum.sums`` (with fractions and decimal); casimir adds
``divsum.casimir``, which loads ``divsum.sums``; only check at k = 1 or 3
adds numpy, for its direct series at more than 8192 terms (10^6 by
default): from k = 5 on the skips leave at most 5407 terms, which plain
Python sums, and from k = 53 on one block of at most 128.
coeff and ``mollify --target dirichlet``, closed forms, add only
``divsum.coefficients`` and ``divsum.extrapolation``; the other mollify
targets add ``divsum.panels`` as well, whose kernel pass runs on plain
floats.  --format json or csv adds its writer.
"""

import argparse
import math
import os
import sys

from ._checks import integer

CHECK_TOLERANCE = 1e-8
COEFF_TOLERANCE = 1e-6

_MOLLIFY_TARGETS = ("S", "H2S", "T0", "dirichlet",
                    "jump:heaviside", "jump:sign", "jump:cos")


def fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _round12(obj):
    """Normalize floats to 12 significant digits for stable JSON output."""
    if isinstance(obj, float):
        return float(fmt_float(obj)) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def _emit(args, obj, text, csv_rows=None) -> None:
    """Print one result in the chosen --format; the only reader of it.

    JSON prints ``obj``; CSV writes ``csv_rows`` (header first) or, when
    none are given, the record's keys over one row per record (``obj`` is
    a dict or a list of dicts), each cell through ``_csv_cell``; text
    prints the lines of ``text``.
    """
    if args.format == "json":
        import json

        print(json.dumps(_round12(obj)))
    elif args.format == "csv":
        import csv
        import io

        if csv_rows is None:
            records = obj if isinstance(obj, list) else [obj]
            csv_rows = [list(records[0])] + [list(r.values()) for r in records]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [_csv_cell(v) for v in row] for row in csv_rows)
        sys.stdout.write(buf.getvalue())
    else:
        for line in text:
            print(line)


def _emit_ladder(args, limit, extra: dict, tail) -> None:
    """A ladder (an ``EpsilonLimit``): its JSON record plus ``extra``, its
    samples as CSV, and its samples as text (unless --quiet) followed by the
    ``tail`` lines."""
    obj = limit.to_json_obj()
    obj.update(extra)
    rows = [[fmt_float(p), fmt_float(v.real), fmt_float(v.imag)]
            for p, v in limit.samples]
    ladder = [] if args.quiet else ["  " + "  ".join(r) for r in rows]
    _emit(args, obj, ladder + tail, [["parameter", "value_re", "value_im"]] + rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_sum(args) -> int:
    from .sums import alternating_sum_powers, sum_powers

    result = alternating_sum_powers(args.k) if args.alternating else sum_powers(args.k)
    _emit(args, result.to_json_obj(), [result.value])
    return 0


def cmd_zeta(args) -> int:
    from .sums import zeta_negative_oracle

    value = zeta_negative_oracle(args.neg_k)
    _emit(args, {"neg_k": args.neg_k, "value": str(value)}, [value])
    return 0


def cmd_check(args) -> int:
    from .sums import functional_equation_residual

    residual = functional_equation_residual(args.k, args.terms)
    passed = residual < CHECK_TOLERANCE
    status = "pass" if passed else "fail"
    record = {"k": args.k, "terms": args.terms, "residual": residual,
              "tolerance": CHECK_TOLERANCE, "status": status}
    text = [status] if args.quiet else [f"residual {fmt_float(residual)}", status]
    _emit(args, record, text, [["k", "terms", "residual", "status"],
                               [args.k, args.terms, residual, status]])
    return 0 if passed else 1


def cmd_coeff(args) -> int:
    from .coefficients import fourier_coefficient_numeric

    limit = fourier_coefficient_numeric(args.n, levels=args.levels)
    expected = float((-1) ** (args.n - 1) * args.n) if args.n >= 1 else 0.0
    ex = limit.extrapolated  # an epsilon-ladder never diverges
    passed = limit.converged and abs(ex - expected) <= COEFF_TOLERANCE
    status = "pass" if passed else "fail"
    _emit_ladder(
        args, limit, {"n": args.n, "expected": expected, "status": status},
        [f"extrapolant {fmt_float(ex.real)} {fmt_float(ex.imag)}",
         f"expected {fmt_float(expected)}", status],
    )
    return 0 if passed else 1


_DEFAULT_LEVELS = {"T0": 8, "dirichlet": 8}


def _mollify_limit(args):
    """The ``EpsilonLimit`` of the mollify target; none loads numpy.

    The comb is a closed form.  Every other target is one pass of
    ``panels.kernel_ladder``, the plain-float twin of
    ``distributions.jump_average``: its sample at m is the integral of
    k(u / m) phi(u), which is <S, phi_m> for the alternating kernel,
    <H2S, phi_m> for it at 2t and <T0, phi_m> for minus the centered one.
    The pass cannot check that phi vanishes to second order at T0's double
    pole, so T0 takes p = 2 or 4 only."""
    target = args.target
    p = args.p
    if target == "dirichlet" and p != 0:
        raise ValueError("target dirichlet requires p = 0")
    if target == "T0" and p == 0:
        raise ValueError("target T0 requires p = 2 or 4")
    levels = args.levels
    if levels is None:
        levels = _DEFAULT_LEVELS.get(target, 10)
    if target == "dirichlet":
        from .coefficients import dirichlet_comb_ladder

        return dirichlet_comb_ladder(levels)

    from .panels import kernel_ladder

    # the kernels of one float, formed as distributions forms them
    def alternating(t):  # 1 / (4 cos^2(t/2))
        c = math.cos(0.5 * t)
        return 0.25 / (c * c)

    def centered(x):  # 1 / (4 sin^2(x/2))
        s = math.sin(0.5 * x)
        return 0.25 / (s * s)

    kernels = {
        "S": alternating,
        "H2S": lambda t: alternating(2.0 * t),
        "T0": lambda t: -centered(t),
        "jump:heaviside": lambda t: 1.0 if t > 0 else 0.0,
        "jump:sign": lambda t: float((t > 0) - (t < 0)),
        "jump:cos": math.cos,
    }
    return kernel_ladder(kernels[target], p, levels)


def cmd_mollify(args) -> int:
    limit = _mollify_limit(args)
    last = limit.samples[-1][1].real  # every mollify ladder has >= 3 levels
    sign = (last > 0) - (last < 0)
    if limit.converged and limit.extrapolated is not None:
        tail = [f"extrapolant {fmt_float(limit.extrapolated.real)} "
                f"{fmt_float(limit.extrapolated.imag)}",
                f"error_estimate {fmt_float(limit.error_estimate)}",
                "converged"]
    elif limit.growth_exponent is not None:
        tail = [f"diverges exponent {fmt_float(limit.growth_exponent)} "
                f"sign {'-' if sign < 0 else '+'}"]
    else:
        tail = ["not converged"]
    _emit_ladder(args, limit, {"target": args.target, "p": args.p, "sign": sign},
                 tail)
    return 0


def cmd_casimir(args) -> int:
    from .casimir import CavityConfig, casimir_force, ground_state_energy

    cfg = CavityConfig.si(args.d) if args.units == "si" else CavityConfig(d=args.d)
    energy = ground_state_energy(cfg)
    force = casimir_force(cfg)
    _emit(args, {"d": args.d, "energy": energy, "force": force, "units": args.units},
          [f"energy {fmt_float(energy)}", f"force {fmt_float(force)}"])
    return 0


def cmd_table(args) -> int:
    from .sums import bernoulli_numbers, sum_powers

    k_max = integer(args.k_max, "k-max", 1, 100)
    bernoulli = bernoulli_numbers(k_max + 1)
    rows = []
    for k in range(1, k_max + 1):
        closed = sum_powers(k).value
        oracle = -bernoulli[k + 1] / (k + 1)  # zeta(-k)
        rows.append({"k": k, "sum": str(closed), "zeta": str(oracle),
                     "match": closed == oracle})
    _emit(args, rows, [
        f"{r['k']}\t{r['sum']}\t{r['zeta']}\t{'ok' if r['match'] else 'MISMATCH'}"
        for r in rows
    ])
    if not all(r["match"] for r in rows):
        print("table mismatch: closed form disagrees with the zeta oracle",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divsum",
        description="Regularized sums of divergent power series and their "
        "distributional underpinnings.",
    )
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress ladder rows in text output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sum", help="regularized power sum (exact rational)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alternating", action="store_true")
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("zeta", help="zeta(-k) from the Bernoulli oracle")
    p.add_argument("--neg-k", type=int, required=True)
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("check", help="functional-equation residual")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--terms", type=int, default=10**6)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("coeff", help="numerical Fourier coefficient c_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--levels", type=int, default=10)
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("mollify", help="mollified limit or divergence ladder")
    p.add_argument("--target", choices=_MOLLIFY_TARGETS, required=True)
    p.add_argument("--p", type=int, default=0, help="vanishing order (0, 2, 4)")
    p.add_argument("--levels", type=int, default=None)
    p.set_defaults(func=cmd_mollify)

    p = sub.add_parser("casimir", help="toy-model vacuum energy and force")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--units", choices=("natural", "si"), default="natural")
    p.set_defaults(func=cmd_casimir)

    p = sub.add_parser("table", help="closed form vs zeta oracle for k <= k-max")
    p.add_argument("--k-max", dest="k_max", type=int, required=True)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit status.

    OpenBLAS runs on one thread unless OPENBLAS_NUM_THREADS is set: no BLAS
    call here gains from threads, and the idle worker cost about 0.1 s of
    CPU per process (for the CLI this overrides OMP_NUM_THREADS alone).
    OpenBLAS reads the variable when numpy loads, so it is set only before
    then, and removed after a command that loaded no numpy.  The library
    API never changes threads.
    """
    args = build_parser().parse_args(argv)
    pinned = "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
    if pinned:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        return args.func(args)
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if pinned and "numpy" not in sys.modules:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)


if __name__ == "__main__":
    sys.exit(main())
