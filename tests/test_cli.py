"""End-to-end CLI behavior: output formats, determinism, exit codes."""

import contextlib
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divsum.cli
import divsum.sums
from divsum.cli import main
from divsum.quadrature import QuadratureError
from divsum.sums import bernoulli_numbers
from test_imports import _BLAS_PROBE, UNSET, _run_probe


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def zeta_strings():
    """str(zeta(-k)) for k = 1..200 from one Bernoulli table."""
    table = bernoulli_numbers(201)
    return {k: str(-table[k + 1] / (k + 1)) for k in range(1, 201)}


class TestSum:
    def test_headline(self, capsys):
        code, out, _ = run(capsys, "sum", "--k", "1")
        assert code == 0 and out == "-1/12\n"

    def test_alternating(self, capsys):
        code, out, _ = run(capsys, "sum", "--k", "1", "--alternating")
        assert code == 0 and out == "1/4\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "sum", "--k", "3")
        assert code == 0
        assert json.loads(out) == {
            "k": 3, "kind": "powers_all_plus", "value": "1/120",
            "method": "closed_form",
        }

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "sum", "--k", "2")
        assert code == 0
        assert out.splitlines()[0] == "k,kind,value,method"
        assert out.splitlines()[1] == "2,powers_all_plus,0,closed_form"

    def test_k_zero_usage_error(self, capsys):
        code, _, err = run(capsys, "sum", "--k", "0")
        assert code == 2
        assert err == "error: k must be >= 1\n"

    @pytest.mark.parametrize("alternating", [False, True])
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("k", [199, 200])
    def test_large_k_all_formats(self, capsys, zeta_strings, k, fmt, alternating):
        value = Fraction(zeta_strings[k])
        kind = "powers_all_plus"
        argv = ["--format", fmt, "sum", "--k", str(k)]
        if alternating:
            value *= 1 - 2 ** (k + 1)
            kind = "powers_alternating"
            argv.append("--alternating")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == {
            "text": f"{value}\n",
            "json": json.dumps({"k": k, "kind": kind, "value": str(value),
                                "method": "closed_form"}) + "\n",
            "csv": f"k,kind,value,method\n{k},{kind},{value},closed_form\n",
        }[fmt]


class TestZetaAndCheck:
    def test_zeta_values(self, capsys):
        assert run(capsys, "zeta", "--neg-k", "3")[1] == "1/120\n"
        assert run(capsys, "zeta", "--neg-k", "2")[1] == "0\n"

    def test_zeta_bad_k(self, capsys):
        assert run(capsys, "zeta", "--neg-k", "0")[0] == 2
        # the Bernoulli table's cost grows like k^3.5; the oracle stops at 260
        for k in ("261", "100000"):
            assert run(capsys, "zeta", "--neg-k", k)[:2] == (2, "")

    @pytest.mark.parametrize("argv", [("--k", "0"), ("--k", "3", "--terms", "5"),
                                      ("--k", "261"),
                                      ("--k", "3", "--terms", "100000001"),
                                      ("--k", "2", "--terms", "100000001")])
    def test_check_bad_arguments(self, capsys, argv):
        code, out, err = run(capsys, "check", *argv)
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_check_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--k", "5", "--terms", "100000")
        assert code == 0
        assert out.splitlines()[-1] == "pass"

    # a small k beside the large ones, each at the default terms
    @pytest.mark.parametrize("k", [7, 29, 30, 64, 170, 171, 200])
    def test_check_large_k_passes(self, capsys, k):
        code, out, _ = run(capsys, "check", "--k", str(k))
        lines = out.splitlines()
        assert code == 0 and lines[-1] == "pass"
        assert float(lines[0].split()[1]) < 1e-8

    def test_check_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "check", "--k", "2",
                           "--terms", "1000")
        obj = json.loads(out)
        assert code == 0 and obj["status"] == "pass"
        assert obj["residual"] < 1e-8


class TestCoeff:
    def test_pass_and_ladder(self, capsys):
        code, out, _ = run(capsys, "coeff", "--n", "2", "--levels", "8")
        lines = out.splitlines()
        assert code == 0 and lines[-1] == "pass"
        assert lines[-3].startswith("extrapolant -2")

    def test_quiet_suppresses_ladder(self, capsys):
        _, loud, _ = run(capsys, "coeff", "--n", "1", "--levels", "6")
        _, quiet, _ = run(capsys, "--quiet", "coeff", "--n", "1", "--levels", "6")
        assert len(quiet.splitlines()) == 3
        assert len(loud.splitlines()) == 9

    def test_csv_ladder_rows(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "coeff", "--n", "1",
                           "--levels", "4")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "parameter,value_re,value_im"
        assert len(lines) == 5
        assert lines[1].startswith("0.5,")

    def test_out_of_range(self, capsys):
        assert run(capsys, "coeff", "--n", "33")[0] == 2

    @pytest.mark.parametrize("levels", ["2", "3"])
    def test_too_few_levels(self, capsys, levels):
        code, out, err = run(capsys, "coeff", "--n", "2", "--levels", levels)
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_too_many_levels(self, capsys):
        code, out, err = run(capsys, "coeff", "--n", "2", "--levels", "21")
        assert code == 2 and out == "" and err == "error: levels must be <= 20\n"


class TestMollify:
    def test_target_s(self, capsys):
        code, out, _ = run(capsys, "--quiet", "mollify", "--target", "S")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("extrapolant 0.25")
        assert lines[-1] == "converged"

    def test_target_t0_diverges(self, capsys):
        code, out, _ = run(capsys, "--quiet", "mollify", "--target", "T0",
                           "--p", "4", "--levels", "7")
        assert code == 0
        assert out.startswith("diverges exponent ")
        assert out.rstrip().endswith("sign -")

    def test_target_dirichlet(self, capsys):
        code, out, _ = run(capsys, "--quiet", "mollify", "--target",
                           "dirichlet", "--levels", "6")
        assert code == 0
        exponent = float(out.split()[2])
        assert abs(exponent - 1.0) < 0.05
        assert out.rstrip().endswith("sign +")

    @pytest.mark.parametrize("levels", ["16", "20"])
    def test_target_dirichlet_at_large_scales(self, capsys, levels):
        # m reaches 2^19; the comb's value is its closed form at every scale
        code, out, err = run(capsys, "--quiet", "mollify", "--target",
                             "dirichlet", "--levels", levels)
        assert (code, out, err) == (0, "diverges exponent 1 sign +\n", "")

    def test_target_jump(self, capsys):
        code, out, _ = run(capsys, "--quiet", "mollify", "--target",
                           "jump:heaviside", "--levels", "6")
        assert code == 0
        assert out.splitlines()[0].startswith("extrapolant 0.5")

    def test_incompatible_p_rejected(self, capsys):
        # T0's kernel pass cannot check that phi vanishes to second order at
        # its double pole, so p = 0 is refused before the levels are read
        for argv, message in [
            (("T0", "--p", "0"), "target T0 requires p = 2 or 4"),
            (("T0", "--p", "0", "--levels", "21"), "target T0 requires p = 2 or 4"),
            (("T0", "--p", "3"), "vanishing order must be one of (0, 2, 4)"),
            (("T0", "--p", "-2"), "vanishing order must be one of (0, 2, 4)"),
            (("dirichlet", "--p", "2"), "target dirichlet requires p = 0"),
        ]:
            code, out, err = run(capsys, "mollify", "--target", *argv)
            assert (code, out, err) == (2, "", f"error: {message}\n"), argv

    @pytest.mark.parametrize("target", ["S", "jump:cos"])
    def test_invalid_p_rejected(self, capsys, target):
        code, out, err = run(capsys, "mollify", "--target", target, "--p", "3")
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("target", ["S", "dirichlet"])
    def test_too_few_levels(self, capsys, target):
        code, out, err = run(capsys, "mollify", "--target", target,
                             "--levels", "2")
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("target", ["S", "dirichlet", "jump:sign"])
    def test_too_many_levels(self, capsys, target):
        code, out, err = run(capsys, "mollify", "--target", target,
                             "--levels", "21")
        assert code == 2 and out == "" and err == "error: levels must be <= 20\n"

    def test_unreachable_tolerance_is_a_numerical_failure(self, capsys, monkeypatch):
        # two active panels: without the bump's grading the kernel pass seeds
        # only its edge u = 0, so [-1, 0] and [0, 1], and bisecting both stalls.
        # With the grading, or a cap of 1, the seeded panels alone exceed the
        # cap, a ValueError
        monkeypatch.setattr("divsum.panels._MAX_ACTIVE_PANELS", 2)
        monkeypatch.setattr("divsum.panels._BUMP_GRADING", ())
        code, out, err = run(capsys, "mollify", "--target", "S", "--levels", "3")
        assert (code, out) == (3, "")
        assert err == "numerical failure: more than 2 panels short of tolerance 1.000e-10\n"

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "mollify", "--target",
                           "T0", "--p", "4", "--levels", "5")
        obj = json.loads(out)
        assert code == 0
        assert obj["extrapolated"] is None
        assert obj["sign"] == -1
        assert abs(obj["growth_exponent"] - 2.0) < 0.25


class TestCasimir:
    def test_json_natural_units(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "casimir", "--d", "1")
        obj = json.loads(out)
        assert code == 0
        assert obj["units"] == "natural"
        assert abs(obj["energy"] + math.pi / 24) < 1e-9
        assert abs(obj["force"] - math.pi / 24) < 1e-9
        assert list(obj) == ["d", "energy", "force", "units"]

    def test_text(self, capsys):
        code, out, _ = run(capsys, "casimir", "--d", "2")
        assert code == 0
        assert out.splitlines()[1] == f"force {math.pi / 96:.12g}"
        assert run(capsys, "casimir", "--d", "1")[:2] == (
            0, "energy -0.1308996939\nforce 0.1308996939\n")

    def test_invalid_d(self, capsys):
        assert run(capsys, "casimir", "--d", "0")[0] == 2
        assert run(capsys, "casimir", "--d", "-3")[0] == 2
        # energy or force outside the float range
        for d in ("1e-160", "1e-170", "5e-324", "1e200"):
            for units in ("natural", "si"):
                code, out, err = run(capsys, "casimir", "--d", d, "--units", units)
                assert code == 2 and out == "" and err.startswith("error: ")
                assert "float range" in err

    @pytest.mark.parametrize("d", ["inf", "nan"])
    @pytest.mark.parametrize("units", ["natural", "si"])
    def test_non_finite_d(self, capsys, d, units):
        code, out, _ = run(capsys, "casimir", "--d", d, "--units", units)
        assert code == 2 and out == ""


class TestTable:
    def test_small_table(self, capsys):
        code, out, _ = run(capsys, "table", "--k-max", "3")
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()]
        assert [r[1] for r in rows] == ["-1/12", "0", "1/120"]
        assert all(r[3] == "ok" for r in rows)

    def test_k_max_30_all_match(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "table", "--k-max", "30")
        obj = json.loads(out)
        assert code == 0
        assert len(obj) == 30
        assert all(row["match"] for row in obj)

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_k_max_100_all_formats(self, capsys, zeta_strings, fmt):
        code, out, _ = run(capsys, "--format", fmt, "table", "--k-max", "100")
        assert code == 0
        ks = range(1, 101)
        assert out == {
            "text": "".join(f"{k}\t{zeta_strings[k]}\t{zeta_strings[k]}\tok\n"
                            for k in ks),
            "json": json.dumps([{"k": k, "sum": zeta_strings[k],
                                 "zeta": zeta_strings[k], "match": True}
                                for k in ks]) + "\n",
            "csv": "k,sum,zeta,match\n" + "".join(
                f"{k},{zeta_strings[k]},{zeta_strings[k]},true\n" for k in ks),
        }[fmt]

    def test_mismatch_row_fails(self, capsys, monkeypatch):
        # a closed form that misses the oracle at k = 2 only
        closed = divsum.sums.sum_powers
        monkeypatch.setattr(divsum.sums, "sum_powers", lambda k: closed(k)._replace(
            value=Fraction(1, 7)) if k == 2 else closed(k))
        assert run(capsys, "table", "--k-max", "3") == (
            1, "1\t-1/12\t-1/12\tok\n2\t1/7\t0\tMISMATCH\n3\t1/120\t1/120\tok\n",
            "table mismatch: closed form disagrees with the zeta oracle\n")

    def test_invalid_k_max(self, capsys):
        assert run(capsys, "table", "--k-max", "0")[0] == 2

    @pytest.mark.parametrize("k_max,bound", [("0", ">= 1"), ("101", "<= 100")])
    def test_k_max_bounds_message(self, capsys, k_max, bound):
        assert run(capsys, "table", "--k-max", k_max) == (
            2, "", f"error: k-max must be {bound}\n")

    def test_one_bernoulli_table(self, capsys, monkeypatch):
        sizes = []

        def counted(n):
            sizes.append(n)
            return bernoulli_numbers(n)

        monkeypatch.setattr(divsum.sums, "bernoulli_numbers", counted)
        assert run(capsys, "table", "--k-max", "30")[0] == 0
        assert sizes == [31]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--format", "json", "coeff", "--n", "2", "--levels", "6"),
            ("--format", "csv", "mollify", "--target", "S", "--levels", "5"),
            ("--format", "json", "casimir", "--d", "1.5"),
            ("--format", "csv", "table", "--k-max", "10"),
            ("--format", "json", "mollify", "--target", "H2S", "--p", "2",
             "--levels", "4"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        code, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert code == 0 and first == second


class TestExitStatus:
    @pytest.mark.parametrize("exc,code", [
        (ValueError("bad"), 2),
        (QuadratureError("stalled"), 3),
        (ArithmeticError("tail"), 3),
        (ZeroDivisionError("division"), 3),
    ])
    def test_error_maps_to_exit_code(self, capsys, monkeypatch, exc, code):
        def fail(_):
            raise exc

        monkeypatch.setattr(divsum.sums, "zeta_negative_oracle", fail)
        got, out, err = run(capsys, "zeta", "--neg-k", "3")
        assert got == code and out == ""
        assert str(exc) in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("--quiet", "coeff", "--n", "2"),
    ("--quiet", "sum", "--k", "1"),
])
def test_command_without_numpy_leaves_environment_alone(argv):
    # main() pins OpenBLAS before the command and, when the command loaded
    # no numpy, takes the pin back: the caller's environment is unchanged
    code, _, value, changed = _run_probe(_BLAS_PROBE, "cold", *argv, env=UNSET)
    assert (code, value, changed) == (0, None, [])


class TestUsageErrors:
    def test_unknown_target(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mollify", "--target", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()


_INDEX = st.integers(-5, 270)
_LEVELS = st.integers(-2, 8).map(lambda n: [f"--levels={n}"])
_SEPARATION = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 5e-324, 1e-200, 1e200]),
    st.floats(),
)
_SUBCOMMANDS = st.one_of(
    st.tuples(_INDEX, st.booleans()).map(
        lambda a: ["sum", f"--k={a[0]}"] + ["--alternating"] * a[1]),
    _INDEX.map(lambda k: ["zeta", f"--neg-k={k}"]),
    st.tuples(_INDEX, st.integers(-5, 10**5)).map(
        lambda a: ["check", f"--k={a[0]}", f"--terms={a[1]}"]),
    st.tuples(_INDEX, _LEVELS).map(lambda a: ["coeff", f"--n={a[0]}", *a[1]]),
    st.tuples(st.sampled_from(divsum.cli._MOLLIFY_TARGETS), st.integers(-1, 5),
              st.one_of(st.just([]), _LEVELS)).map(
        lambda a: ["mollify", f"--target={a[0]}", f"--p={a[1]}", *a[2]]),
    st.tuples(_SEPARATION, st.sampled_from(["natural", "si"])).map(
        lambda a: ["casimir", f"--d={a[0]!r}", f"--units={a[1]}"]),
    _INDEX.map(lambda k: ["table", f"--k-max={k}"]),
)


class TestOutcomes:
    """Every parsed input ends in one of the CLI's outcomes: a result (exit
    0 or 1), a precondition error (exit 2: nothing on stdout, one ``error:``
    line on stderr) or a numerical failure (exit 3), never a traceback."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["text", "json", "csv"]), st.booleans(), _SUBCOMMANDS)
    def test_exit_status_and_streams(self, fmt, quiet, command):
        argv = [f"--format={fmt}"] + ["--quiet"] * quiet + command
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2, 3), argv
        if code == 2:
            assert out.getvalue() == "" and len(lines) == 1, argv
            assert lines[0].startswith("error: "), argv
        if code == 3:
            assert lines and lines[0].startswith("numerical failure: "), argv
