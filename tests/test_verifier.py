"""Tests for grid sweeps, the benchmark reproduction, and fixtures."""

import json

import pytest

import lucas_rank.closed_form as closed_form
import lucas_rank.verifier as verifier
from lucas_rank.closed_form import ClosedFormResult
from lucas_rank.errors import NotEligible
from lucas_rank.lucas_core import make_params
from lucas_rank.verifier import (
    DEFAULT_SCAN_BELOW,
    PAIR_THEOREMS,
    THEOREM_TABLE,
    THEOREMS,
    _worker_count,
    check_delta_negative_fixtures,
    default_ranges,
    report_from_dict,
    report_to_csv,
    report_to_dict,
    report_to_json,
    reproduce_remark,
    sweep,
)

FIB = make_params(1, 1)
SMALL = {"m": (3, 8), "n": (3, 8)}


class TestSweep:
    def test_small_grid_agrees(self):
        report = sweep(FIB, "um-un", SMALL)
        assert report.summary.total == 36
        assert report.summary.disagreed == 0
        assert report.summary.agreed == 36
        assert report.summary.branch_coverage == {"lcm*U_d": 36}
        assert all(c.agree for c in report.cells)

    def test_cells_in_row_major_order(self):
        report = sweep(FIB, "um-un", SMALL)
        points = [(c.inputs["m"], c.inputs["n"]) for c in report.cells]
        assert points == [(m, n) for m in range(3, 9) for n in range(3, 9)]

    def test_branch_coverage_keys(self):
        report = sweep(FIB, "um-vn", SMALL)
        assert set(report.summary.branch_coverage) == {"2lcm", "lcm*V_d"}
        report = sweep(FIB, "vm-vn", SMALL)
        assert set(report.summary.branch_coverage) == {"lcm*gcd", "2lcm*gcd"}

    def test_triple_covers_all_four_branches(self):
        report = sweep(FIB, "triple", {"n": (1, 12), "p": (3,)})
        assert report.summary.total == 12
        assert report.summary.disagreed == 0
        assert set(report.summary.branch_coverage) == {
            "p!|n,2!|n", "p!|n,2|n", "p|n,2!|n", "p|n,2|n",
        }

    def test_scan_checked_marker_follows_threshold(self):
        report = sweep(FIB, "um-un", SMALL, scan_below=DEFAULT_SCAN_BELOW)
        assert all(c.inputs.get("scan_checked") for c in report.cells)
        report = sweep(FIB, "um-un", SMALL, scan_below=1)
        assert not any(c.inputs.get("scan_checked") for c in report.cells)

    def test_scan_oracle(self):
        report = sweep(FIB, "um-un", {"m": (3, 6), "n": (3, 6)}, oracle="scan")
        assert report.summary.disagreed == 0
        assert all(c.oracle_value == c.closed_form_value for c in report.cells)

    def test_parallel_matches_serial(self):
        kwargs = dict(ranges={"m": (3, 7), "n": (3, 7)})
        serial = sweep(FIB, "vm-vn", **kwargs)
        parallel = sweep(FIB, "vm-vn", jobs=2, **kwargs)
        assert report_to_dict(serial) == report_to_dict(parallel)

    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_ineligible_params_rejected(self, theorem):
        with pytest.raises(NotEligible):
            sweep(make_params(1, -2), theorem, {"m": (3, 4), "n": (3, 4)})

    def test_unknown_tags_rejected(self):
        with pytest.raises(ValueError):
            sweep(FIB, "nope")
        with pytest.raises(ValueError):
            sweep(FIB, "um-un", SMALL, oracle="guess")

    def test_default_ranges(self):
        assert default_ranges("um-un") == {"m": (3, 20), "n": (3, 20)}
        assert default_ranges("triple") == {"n": (1, 60), "p": (3, 5, 7)}
        assert set(PAIR_THEOREMS) == {"um-vn", "um-un", "vm-vn"}

    def test_partial_ranges_keep_other_defaults(self):
        report = sweep(FIB, "triple", {"p": (3,)}, scan_below=0)
        assert [c.inputs["n"] for c in report.cells] == list(range(1, 61))


class TestTheoremTable:
    def test_order_and_label_sets(self):
        assert THEOREMS == ("um-vn", "um-un", "vm-vn", "triple")
        assert {t: set(th.labels) for t, th in THEOREM_TABLE.items()} == {
            "um-vn": {"2lcm", "lcm*V_d"},
            "um-un": {"lcm*U_d"},
            "vm-vn": {"lcm*gcd", "2lcm*gcd"},
            "triple": {"p!|n,2!|n", "p!|n,2|n", "p|n,2!|n", "p|n,2|n"},
        }

    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_product_matches_terms(self, theorem):
        point = dict(zip(THEOREM_TABLE[theorem].keys, (9, 5)))
        u, v = [0, 1], [2, 1]
        while len(u) < 20:
            u.append(u[-1] + u[-2])
            v.append(v[-1] + v[-2])
        want = {
            "um-vn": u[9] * v[5],
            "um-un": u[9] * u[5],
            "vm-vn": v[9] * v[5],
            "triple": u[9] * u[14] * u[19],
        }[theorem]
        assert THEOREM_TABLE[theorem].product(FIB, point) == want


class TestWorkerCount:
    @pytest.mark.parametrize(
        "jobs, cpus, cells, want",
        [(64, 2, 100, 2), (1, 8, 100, 1), (4, 8, 3, 3), (4, None, 100, 1), (3, 8, 100, 3)],
    )
    def test_clamped_to_cpus_and_cells(self, monkeypatch, jobs, cpus, cells, want):
        monkeypatch.setattr(verifier.os, "cpu_count", lambda: cpus)
        assert _worker_count(jobs, cells) == want

    def test_sweep_uses_the_clamped_count(self, monkeypatch):
        started = []

        class InlinePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work, chunksize):
                return map(fn, work)

        monkeypatch.setattr(verifier, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(verifier.os, "cpu_count", lambda: 2)
        report = sweep(FIB, "um-un", {"m": (3, 4), "n": (3, 4)}, jobs=64)
        assert started == [2] and report.summary.agreed == 4
        report = sweep(FIB, "um-un", {"m": (3, 3), "n": (3, 3)}, jobs=64)
        assert started == [2] and report.summary.agreed == 1


class TestDisagreementPath:
    def test_wrong_multiple_is_recorded(self, monkeypatch):
        real = closed_form.tau_um_un

        def doubled(params, m, n):
            r = real(params, m, n)
            if (m, n) == (4, 6):
                return ClosedFormResult(r.value * 2, r.case_label, r.ingredients)
            return r

        monkeypatch.setattr(closed_form, "tau_um_un", doubled)
        report = sweep(FIB, "um-un", {"m": (3, 6), "n": (3, 6)})
        assert report.summary.disagreed == 1
        bad = [c for c in report.cells if not c.agree]
        assert len(bad) == 1
        assert (bad[0].inputs["m"], bad[0].inputs["n"]) == (4, 6)
        assert bad[0].closed_form_value == 24
        assert bad[0].oracle_value == 12

    def test_non_multiple_falls_back_to_scan(self, monkeypatch):
        real = closed_form.tau_um_un

        def off_by_one(params, m, n):
            r = real(params, m, n)
            if (m, n) == (4, 6):
                return ClosedFormResult(r.value + 1, r.case_label, r.ingredients)
            return r

        monkeypatch.setattr(closed_form, "tau_um_un", off_by_one)
        report = sweep(FIB, "um-un", {"m": (4, 4), "n": (6, 6)})
        cell = report.cells[0]
        assert not cell.agree
        assert cell.closed_form_value == 13
        assert cell.oracle_value == 12
        assert "oracle_note" in cell.inputs


class TestRemark:
    def test_benchmark_instance(self):
        report = reproduce_remark()
        assert report.theorem == "remark"
        assert report.summary.total == 1
        cell = report.cells[0]
        assert cell.agree
        assert cell.closed_form_value == 82500
        assert cell.oracle_value == 82500
        assert cell.case_label == "p|n,2|n"
        assert cell.inputs["alternative_value"] == 907500
        assert cell.inputs["alternative_strips_to"] == 82500
        assert cell.inputs["ratio"] == 11

    def test_deterministic(self):
        a = report_to_dict(reproduce_remark())
        b = report_to_dict(reproduce_remark())
        assert a == b


class TestFixtures:
    def test_all_four_reproduce(self):
        report = check_delta_negative_fixtures()
        assert report.theorem == "fixtures"
        assert report.summary.total == 4
        assert report.summary.disagreed == 0
        assert report.summary.branch_coverage == {"U|U": 2, "V|U": 2}
        for cell in report.cells:
            assert cell.inputs["value_divides"]
            assert not cell.inputs["index_rule_holds"]
            assert cell.inputs["rejected_not_eligible"]

    def test_fixture_values(self):
        report = check_delta_negative_fixtures()
        by_pair = {(c.inputs["a"], c.inputs["b"]): c for c in report.cells}
        assert by_pair[(-3, -5)].inputs["divisor_value"] == 3
        assert by_pair[(-3, -5)].inputs["dividend_value"] == 72
        assert by_pair[(1, -2)].inputs["divisor_value"] == -3
        assert by_pair[(1, -2)].inputs["dividend_value"] == 45
        assert by_pair[(4, -5)].inputs["divisor_value"] == 4
        assert by_pair[(4, -5)].inputs["dividend_value"] == 24
        assert by_pair[(2, -3)].inputs["divisor_value"] == 2
        assert by_pair[(2, -3)].inputs["dividend_value"] == -10


class TestSerialization:
    def test_json_roundtrip(self):
        report = sweep(FIB, "um-un", {"m": (3, 5), "n": (3, 5)})
        data = json.loads(report_to_json(report))
        back = report_from_dict(data)
        assert report_to_dict(back) == report_to_dict(report)

    def test_equal_runs_give_equal_bytes(self):
        kwargs = dict(ranges={"m": (3, 6), "n": (3, 6)}, seed=7)
        a = report_to_json(sweep(FIB, "vm-vn", **kwargs))
        b = report_to_json(sweep(FIB, "vm-vn", **kwargs))
        assert a == b

    def test_timings_are_opt_in(self):
        report = sweep(FIB, "um-un", {"m": (3, 4), "n": (3, 4)})
        assert "elapsed_ms" not in report_to_json(report)
        assert "elapsed_ms" in json.dumps(
            report_to_dict(report, include_timings=True)
        )

    def test_csv_shape(self):
        report = sweep(FIB, "um-un", {"m": (3, 5), "n": (3, 5)})
        lines = report_to_csv(report).strip().splitlines()
        assert lines[0] == (
            "theorem,a,b,inputs,closed_form_value,oracle_value,case_label,agree"
        )
        assert len(lines) == 1 + 9
        assert all(line.split(",")[-1] == "1" for line in lines[1:])

    def test_csv_timings_column(self):
        report = sweep(FIB, "um-un", {"m": (3, 3), "n": (3, 3)})
        out = report_to_csv(report, include_timings=True)
        assert out.splitlines()[0].endswith(",elapsed_ms")
