"""End-to-end CLI behavior: output formats, determinism, exit codes."""

import json
import math
from fractions import Fraction

import pytest

import divsum.cli
from divsum.cli import main
from divsum.errors import ConsistencyError
from divsum.quadrature import QuadratureError
from divsum.sums import bernoulli_numbers


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
        assert "1 <= k <= 200" in err

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

    @pytest.mark.parametrize("k", [29, 30, 64, 170, 171, 200])
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

    def test_target_jump(self, capsys):
        code, out, _ = run(capsys, "--quiet", "mollify", "--target",
                           "jump:heaviside", "--levels", "6")
        assert code == 0
        assert out.splitlines()[0].startswith("extrapolant 0.5")

    def test_incompatible_p_rejected(self, capsys):
        assert run(capsys, "mollify", "--target", "T0", "--p", "0")[0] == 2
        assert run(capsys, "mollify", "--target", "dirichlet", "--p", "2")[0] == 2

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
        # one active panel: the first bump that needs bisection stalls.  With
        # its grading the bump would seed more panels than that, a ValueError
        monkeypatch.setattr("divsum.quadrature._MAX_ACTIVE_PANELS", 1)
        monkeypatch.setattr("divsum.mollifiers._BUMP_GRADING", ())
        code, out, err = run(capsys, "mollify", "--target", "S", "--levels", "3")
        assert code == 3 and out == ""
        assert err.startswith("numerical failure: ") and "Traceback" not in err

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

    def test_invalid_d(self, capsys):
        assert run(capsys, "casimir", "--d", "0")[0] == 2
        assert run(capsys, "casimir", "--d", "-3")[0] == 2
        # energy or force outside the float range
        for d in ("1e-160", "1e-170", "5e-324", "1e200"):
            for units in ("natural", "si"):
                code, out, err = run(capsys, "casimir", "--d", d, "--units", units)
                assert code == 2 and out == "" and "float range" in err

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

    def test_invalid_k_max(self, capsys):
        assert run(capsys, "table", "--k-max", "0")[0] == 2

    def test_one_bernoulli_table(self, capsys, monkeypatch):
        sizes = []

        def counted(n):
            sizes.append(n)
            return bernoulli_numbers(n)

        monkeypatch.setattr(divsum.cli, "bernoulli_numbers", counted)
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
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestExitStatus:
    @pytest.mark.parametrize("exc,code", [
        (ConsistencyError("routes disagree"), 1),
        (QuadratureError("stalled"), 3),
        (ArithmeticError("tail"), 3),
        (ZeroDivisionError("division"), 3),
        (ValueError("bad"), 2),
    ])
    def test_error_maps_to_exit_code(self, capsys, monkeypatch, exc, code):
        def fail(_):
            raise exc

        monkeypatch.setattr(divsum.cli, "zeta_negative_oracle", fail)
        got, out, err = run(capsys, "zeta", "--neg-k", "3")
        assert got == code and out == ""
        assert str(exc) in err and "Traceback" not in err


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
