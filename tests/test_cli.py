"""End-to-end tests for the command line interface."""

import json
import os
import sys

import pytest

import lucas_rank.closed_form as closed_form
import lucas_rank.rank as rank
import lucas_rank.verifier as verifier
from lucas_rank.cli import build_parser, run
from lucas_rank.closed_form import ClosedFormResult
from lucas_rank.lucas_core import make_params, u_exact, v_exact


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeq:
    def test_u_with_default_params(self, capsys):
        code, out, err = _run(capsys, "seq", "u", "--n", "10")
        assert (code, out, err) == (0, "55\n", "")

    def test_u_json(self, capsys):
        code, out, _ = _run(capsys, "seq", "u", "--n", "10", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"kind": "U", "index": 10, "value": 55}

    def test_v(self, capsys):
        code, out, _ = _run(capsys, "seq", "v", "--a", "2", "--b", "1", "--n", "5")
        assert (code, out) == (0, "82\n")

    def test_negative_coefficients(self, capsys):
        code, out, _ = _run(capsys, "seq", "u", "--a", "-3", "--b", "-5", "--n", "6")
        assert (code, out) == (0, "72\n")

    def test_mod(self, capsys):
        code, out, _ = _run(capsys, "seq", "mod", "--n", "10", "--modulus", "100")
        assert (code, out) == (0, "55 23\n")

    def test_big_index_exact(self, capsys):
        code, out, _ = _run(capsys, "seq", "u", "--n", "400")
        u0, u1 = 0, 1
        for _ in range(400):
            u0, u1 = u1, u0 + u1
        assert code == 0
        assert out.strip() == str(u0)
        assert len(out.strip()) > 80

    @pytest.fixture
    def int_str_limit(self):
        """Run at the default int/str digit limit; put the old limit back after."""
        if not hasattr(sys, "get_int_max_str_digits"):  # no limit before 3.10.7
            yield None
            return
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the default, which U_30000 passes
        yield 4300
        sys.set_int_max_str_digits(limit)

    def test_past_the_int_str_digit_limit(self, capsys, int_str_limit):
        fib = make_params(1, 1)
        code, u_out, err = _run(capsys, "seq", "u", "--n", "30000")
        assert (code, err) == (0, "")
        code, v_out, err = _run(capsys, "seq", "v", "--n", "30000", "--format", "json")
        assert (code, err) == (0, "")
        if int_str_limit is not None:
            # run() lifts the process-wide limit only while it runs
            assert sys.get_int_max_str_digits() == int_str_limit
            assert _run(capsys, "seq", "u", "--n", "x")[0] == 64
            assert sys.get_int_max_str_digits() == int_str_limit
            sys.set_int_max_str_digits(0)  # to compare the outputs here
        assert len(u_out) > 6000 and int(u_out) == u_exact(fib, 30000)
        assert json.loads(v_out) == {"kind": "V", "index": 30000, "value": v_exact(fib, 30000)}

    def test_mod_big_index(self, capsys):
        code, out, _ = _run(
            capsys, "seq", "mod", "--n", str(2**62), "--modulus", "1000003"
        )
        assert code == 0
        u, v = map(int, out.split())
        assert 0 <= u < 1000003 and 0 <= v < 1000003


class TestVal:
    def test_val_u_json(self, capsys):
        code, out, _ = _run(
            capsys, "val", "u", "--p", "5", "--n", "25", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"value": 2, "prime": 5, "case": "p|delta,p|n"}

    def test_val_v(self, capsys):
        code, out, _ = _run(capsys, "val", "v", "--p", "11", "--n", "5")
        assert (code, out) == (0, "1\n")

    def test_val_int(self, capsys):
        code, out, _ = _run(
            capsys, "val", "int", "--p", "5", "--x", "75025", "--format", "json"
        )
        assert json.loads(out) == {"value": 2, "prime": 5, "case": None}

    def test_prime_dividing_b_is_domain_error(self, capsys):
        code, _, err = _run(capsys, "val", "u", "--b", "2", "--p", "2", "--n", "6")
        assert code == 1
        assert "PrimeDividesB" in err


class TestGcdAndDivides:
    def test_gcd_uu(self, capsys):
        code, out, _ = _run(capsys, "gcd", "uu", "--m", "12", "--n", "18")
        assert (code, out) == (0, "8\n")

    def test_gcd_uv_json(self, capsys):
        code, out, _ = _run(
            capsys, "gcd", "uv", "--m", "3", "--n", "6", "--format", "json"
        )
        assert json.loads(out) == {"value": 2, "branch": "2", "d": 3}

    def test_divides_vu(self, capsys):
        code, out, _ = _run(capsys, "divides", "vu", "--n", "3", "--m", "6")
        assert (code, out) == (0, "true\n")
        code, out, _ = _run(capsys, "divides", "vu", "--n", "3", "--m", "9")
        assert (code, out) == (0, "false\n")

    def test_divides_json(self, capsys):
        code, out, _ = _run(
            capsys, "divides", "uu", "--n", "6", "--m", "12", "--format", "json"
        )
        assert json.loads(out) == {"divides": True}

    def test_ineligible_is_domain_error(self, capsys):
        code, _, err = _run(
            capsys, "gcd", "uu", "--a", "1", "--b", "-2", "--m", "4", "--n", "8"
        )
        assert code == 1
        assert "NotEligible" in err


class TestTau:
    def test_tau_json(self, capsys):
        code, out, _ = _run(capsys, "tau", "--m", "272", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "value": 36, "method": "factorization-lift", "witness": None,
        }

    def test_tau_scan_matches(self, capsys):
        _, fast, _ = _run(capsys, "tau", "--m", "1000")
        _, slow, _ = _run(capsys, "tau-scan", "--m", "1000")
        assert fast == slow

    def test_tau_scan_json_method(self, capsys):
        code, out, _ = _run(capsys, "tau-scan", "--m", "10", "--format", "json")
        payload = json.loads(out)
        assert payload["value"] == 15
        assert payload["method"] == "linear-scan"

    def test_tau_scan_default_cap_is_2_to_32(self, capsys, monkeypatch):
        caps = []
        real = rank.tau_scan

        def recording(params, m, cap):
            caps.append(cap)
            return real(params, m, cap)

        monkeypatch.setattr(rank, "tau_scan", recording)
        assert _run(capsys, "tau-scan", "--m", "10007")[:2] == (0, "10008\n")
        assert caps == [2 ** 32]

    def test_tau_scan_without_cap_refuses_a_41_bit_rank(self, capsys):
        # tau(1099511627791) = 1099511627790 is past the default cap, so the search ends
        code, _, err = _run(capsys, "tau-scan", "--m", "1099511627791")
        assert code == 1
        assert "NotFound: no index k <= 4294967296 " in err

    def test_tau_scan_cap_exhausted(self, capsys):
        code, _, err = _run(capsys, "tau-scan", "--m", "272", "--cap", "35")
        assert code == 1
        assert "NotFound" in err

    def test_tau_not_coprime(self, capsys):
        code, _, err = _run(capsys, "tau", "--a", "1", "--b", "2", "--m", "4")
        assert code == 1
        assert "NotCoprimeToB" in err


class TestFormula:
    def test_pair(self, capsys):
        code, out, _ = _run(capsys, "formula", "um-vn", "--m", "4", "--n", "6")
        assert (code, out) == (0, "36\n")

    def test_pair_json_ingredients(self, capsys):
        code, out, _ = _run(
            capsys, "formula", "um-un", "--m", "6", "--n", "9", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["value"] == 36
        assert payload["case_label"] == "lcm*U_d"
        assert payload["ingredients"]["d"] == 3
        assert payload["ingredients"]["U_d"] == 2

    def test_triple_benchmark(self, capsys):
        code, out, _ = _run(capsys, "formula", "triple", "--n", "50", "--p", "5")
        assert (code, out) == (0, "82500\n")

    def test_triple_rejects_even_prime(self, capsys):
        code, _, err = _run(capsys, "formula", "triple", "--n", "5", "--p", "4")
        assert code == 1
        assert "NotOddPrime" in err


class TestVerify:
    def test_sweep_text(self, capsys):
        code, out, _ = _run(
            capsys, "verify", "sweep", "--theorem", "um-un",
            "--m-min", "3", "--m-max", "5", "--n-min", "3", "--n-max", "5",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "theorem=um-un a=1 b=1 cells=9 agreed=9 disagreed=0"
        assert lines[1].startswith("coverage: lcm*U_d=9")

    def test_sweep_json_deterministic(self, capsys):
        argv = (
            "verify", "sweep", "--theorem", "vm-vn", "--format", "json",
            "--m-min", "3", "--m-max", "6", "--n-min", "3", "--n-max", "6",
            "--seed", "5",
        )
        code1, out1, _ = _run(capsys, *argv)
        code2, out2, _ = _run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["summary"] == {
            "total": 16, "agreed": 16, "disagreed": 0,
            "branch_coverage": {"2lcm*gcd": 12, "lcm*gcd": 4},
        }

    def test_sweep_triple_with_primes_flag(self, capsys):
        code, out, _ = _run(
            capsys, "verify", "sweep", "--theorem", "triple",
            "--n-min", "1", "--n-max", "10", "--primes", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["total"] == 10
        assert payload["summary"]["disagreed"] == 0

    def test_sweep_csv_written(self, capsys, tmp_path):
        path = tmp_path / "cells.csv"
        code, _, _ = _run(
            capsys, "verify", "sweep", "--theorem", "um-un",
            "--m-min", "3", "--m-max", "4", "--n-min", "3", "--n-max", "4",
            "--csv", str(path),
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("theorem,a,b,inputs")
        assert len(lines) == 5

    @pytest.mark.parametrize("where", ["missing-dir", "directory", "empty", "read-only-file"])
    def test_sweep_csv_unwritable_refused_before_work(self, capsys, monkeypatch, tmp_path, where):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the --csv path was checked")

        monkeypatch.setattr(verifier, "sweep", no_sweep)
        path = {"missing-dir": tmp_path / "no" / "such" / "x.csv", "directory": tmp_path,
                "empty": "", "read-only-file": tmp_path / "cells.csv"}[where]
        if where == "read-only-file":
            path.write_text("kept\n")
            access = os.access  # a superuser may write any file, so os.access says it may not
            monkeypatch.setattr(os, "access", lambda p, mode: str(p) != str(path) and access(p, mode))
        code, out, err = _run(
            capsys, "verify", "sweep", "--theorem", "um-un",
            "--m-max", "4", "--n-max", "4", "--csv", str(path),
        )
        assert code == 64
        assert out == ""
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "--csv" in errors[0]
        assert "Traceback" not in err
        assert not (tmp_path / "no").exists()

    @pytest.mark.parametrize("theorem,argv,flag", [
        ("um-vn", ("--primes", "3,5", "--m-max", "4", "--n-max", "4"), "--primes"),
        ("vm-vn", ("--primes", "3"), "--primes"),
        ("triple", ("--m-min", "3", "--n-max", "3"), "--m-min"),
        ("triple", ("--n-max", "3", "--m-max", "4", "--primes", "3"), "--m-max"),
    ], ids=["um-vn --primes", "vm-vn --primes", "triple --m-min", "triple --m-max"])
    def test_sweep_refuses_flag_of_another_theorem(self, capsys, monkeypatch, theorem, argv, flag):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran with a flag its theorem does not take")

        monkeypatch.setattr(verifier, "sweep", no_sweep)
        code, out, err = _run(capsys, "verify", "sweep", "--theorem", theorem, *argv)
        assert (code, out) == (64, "")
        lines = err.splitlines()
        assert lines[0].startswith("usage: lucas-rank verify sweep ")
        assert [line for line in lines if line.startswith("error:")] == [
            f"error: argument {flag}: not allowed with --theorem {theorem}"]
        assert lines[-1].startswith("error:")

    def test_sweep_inverted_range_is_domain_error(self, capsys):
        code, out, err = _run(
            capsys, "verify", "sweep", "--theorem", "um-vn", "--m-min", "10", "--m-max", "3",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: BadRange: empty range for m")

    def test_sweep_repeated_prime_is_domain_error(self, capsys):
        code, out, err = _run(
            capsys, "verify", "sweep", "--theorem", "triple", "--primes", "3,3", "--n-max", "2",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: BadRange: repeated prime in p")

    def test_sweep_disagreement_exit_code(self, capsys, monkeypatch):
        real = closed_form.tau_um_un

        def doubled(params, m, n):
            r = real(params, m, n)
            if (m, n) == (4, 6):
                return ClosedFormResult(r.value * 2, r.case_label, r.ingredients)
            return r

        monkeypatch.setattr(closed_form, "tau_um_un", doubled)
        code, out, _ = _run(
            capsys, "verify", "sweep", "--theorem", "um-un",
            "--m-min", "3", "--m-max", "6", "--n-min", "3", "--n-max", "6",
        )
        assert code == 2
        assert "disagreed=1" in out
        assert any(line.startswith("DISAGREE") for line in out.splitlines())

    def test_jobs_is_a_usage_error(self, capsys):
        code, out, err = _run(capsys, "verify", "sweep", "--theorem", "um-un", "--jobs", "2")
        assert (code, out) == (64, "")
        assert err.startswith("usage: lucas-rank verify sweep ")
        assert err.splitlines()[-1] == "error: unrecognized arguments: --jobs 2"

    def test_scan_below_is_a_usage_error(self, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran with --scan-below")

        monkeypatch.setattr(verifier, "sweep", no_sweep)
        code, out, err = _run(capsys, "verify", "sweep", "--theorem", "um-un",
                              "--scan-below", "0")
        assert (code, out) == (64, "")
        assert err.startswith("usage: lucas-rank verify sweep ")
        assert err.splitlines()[-1] == "error: unrecognized arguments: --scan-below 0"

    def test_oracle_is_a_usage_error(self, capsys):
        code, out, err = _run(capsys, "verify", "sweep", "--theorem", "um-un",
                              "--oracle", "scan")
        assert (code, out) == (64, "")
        assert err.startswith("usage: lucas-rank verify sweep ")
        assert err.splitlines()[-1] == "error: unrecognized arguments: --oracle scan"

    def test_remark_json(self, capsys):
        code, out, _ = _run(capsys, "verify", "remark", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        cell = payload["cells"][0]
        assert cell["closed_form_value"] == 82500
        assert cell["inputs"]["alternative_value"] == 907500
        assert cell["inputs"]["ratio"] == 11
        assert cell["inputs"]["scan_checked"] is True
        assert cell["agree"] is True

    def test_remark_text_mentions_both_values(self, capsys):
        code, out, _ = _run(capsys, "verify", "remark")
        assert code == 0
        assert "closed_form=82500" in out
        assert "alternative=907500" in out

    def test_fixtures(self, capsys):
        code, out, _ = _run(capsys, "verify", "fixtures")
        assert code == 0
        assert "cells=4 agreed=4 disagreed=0" in out


class TestExitCodes:
    def test_usage_error_unknown_command(self, capsys):
        code, _, err = _run(capsys, "frobnicate")
        assert code == 64
        assert "error:" in err

    def test_usage_error_missing_required(self, capsys):
        code, _, _ = _run(capsys, "seq", "u")
        assert code == 64

    def test_usage_error_bad_type(self, capsys):
        code, _, _ = _run(capsys, "seq", "u", "--n", "-3")
        assert code == 64

    def test_unknown_option_shows_the_subcommands_usage(self, capsys):
        code, out, err = _run(capsys, "tau", "--m", "7", "--bogus")
        assert (code, out) == (64, "")
        assert err.startswith("usage: lucas-rank tau ")
        assert err.splitlines()[-1] == "error: unrecognized arguments: --bogus"

    def test_help_exits_zero(self, capsys):
        code, out, _ = _run(capsys, "--help")
        assert code == 0
        assert "lucas-rank" in out

    def test_domain_error_message_names_type(self, capsys):
        code, _, err = _run(capsys, "tau", "--a", "2", "--b", "4", "--m", "5")
        assert code == 1
        assert err.startswith("error: NotCoprime")


@pytest.mark.parametrize("argv", [
    ["seq", "u", "--n", "5"],
    ["tau", "--m", "77", "--format", "json"],
    ["formula", "triple", "--n", "5", "--p", "3"],
    ["verify", "sweep", "--theorem", "um-un", "--m-max", "4"],
], ids=lambda argv: argv[0])
def test_full_parser_reads_argv_as_the_one_run_builds(argv):
    """`run` builds only the called command; `build_parser()` still builds every one."""
    full, part = (vars(p.parse_args(argv)) for p in (build_parser(), build_parser(argv[:1])))
    assert full.keys() == part.keys()
    assert ({k: v for k, v in full.items() if not callable(v)}
            == {k: v for k, v in part.items() if not callable(v)})
