"""Tests for grid sweeps, the benchmark reproduction, and fixtures."""

import json
import math
import random
import types
from collections import Counter

import pytest

import lucas_rank.closed_form as closed_form
import lucas_rank.rank as rank
import lucas_rank.verifier as verifier
from lucas_rank.closed_form import ClosedFormResult
from lucas_rank.errors import (
    BadRange,
    LucasRankError,
    NotAMultiple,
    NotEligible,
    NotOddPrime,
    TooLarge,
)
from lucas_rank.lucas_core import make_params
from lucas_rank.verifier import (
    PAIR_THEOREMS,
    SCAN_BELOW,
    THEOREM_TABLE,
    THEOREMS,
    SweepCell,
    check_delta_negative_fixtures,
    report_to_csv,
    report_to_dict,
    report_to_json,
    report_to_text,
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
        # of the 25 cells at (3, 1), exactly the 23 claimed below 10^7 get the extra scan
        report = sweep(make_params(3, 1), "um-un", {"m": (10, 14), "n": (10, 14)})
        assert report.summary.agreed == 25
        below = [c.closed_form_value < SCAN_BELOW for c in report.cells]
        assert sum(below) == 23
        assert [c.inputs.get("scan_checked", False) for c in report.cells] == below

    def test_a_cell_claimed_past_the_scan_threshold_is_checked_by_the_strip_alone(self):
        # the one cell at (3, 1), m = n = 13, is claimed in [10^7, 10^8]: stripped, not scanned
        report = sweep(make_params(3, 1), "um-un", {"m": (13, 13), "n": (13, 13)})
        (cell,) = report.cells
        assert cell.closed_form_value == 20_063_173
        assert SCAN_BELOW <= cell.closed_form_value < verifier._SCAN_HARD_CAP
        assert cell.agree and cell.oracle_value == cell.closed_form_value
        assert cell.inputs == {"m": 13, "n": 13}

    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_ineligible_params_rejected(self, theorem):
        ranges = {key: (3, 4) for key in THEOREM_TABLE[theorem].keys if key != "p"}
        with pytest.raises(NotEligible):
            sweep(make_params(1, -2), theorem, ranges)

    def test_takes_no_jobs(self):
        with pytest.raises(TypeError):
            sweep(FIB, "um-un", SMALL, jobs=2)

    def test_takes_no_scan_below(self):
        with pytest.raises(TypeError):
            sweep(FIB, "um-un", SMALL, scan_below=0)

    def test_takes_no_oracle(self):
        with pytest.raises(TypeError):
            sweep(FIB, "um-un", SMALL, oracle="scan")

    def test_unknown_tags_rejected(self):
        with pytest.raises(ValueError):
            sweep(FIB, "nope")

    @pytest.mark.parametrize(
        "theorem, ranges, key",
        [
            ("um-vn", {"m": (10, 3)}, "m"),
            ("vm-vn", {"n": (5, 4)}, "n"),
            ("triple", {"p": ()}, "p"),
        ],
    )
    def test_empty_grid_refused(self, theorem, ranges, key):
        with pytest.raises(BadRange, match=f"empty range for {key}"):
            sweep(FIB, theorem, ranges)

    def test_default_ranges(self):
        assert THEOREM_TABLE["um-un"].defaults == {"m": (3, 20), "n": (3, 20)}
        assert THEOREM_TABLE["triple"].defaults == {"n": (1, 60), "p": (3, 5, 7)}
        assert set(PAIR_THEOREMS) == {"um-vn", "um-un", "vm-vn"}

    def test_partial_ranges_keep_other_defaults(self):
        report = sweep(FIB, "triple", {"p": (3,)})
        assert [c.inputs["n"] for c in report.cells] == list(range(1, 61))

    def test_none_bound_keeps_its_default(self):
        report = sweep(FIB, "um-vn", {"m": (None, 5), "n": (19, None)})
        points = [(c.inputs["m"], c.inputs["n"]) for c in report.cells]
        assert points == [(m, n) for m in (3, 4, 5) for n in (19, 20)]
        assert report.summary.agreed == 6

    def test_none_key_keeps_its_default(self):
        report = sweep(FIB, "triple", {"n": (1, 2), "p": None})
        assert [(c.inputs["n"], c.inputs["p"]) for c in report.cells] == [
            (n, p) for p in (3, 5, 7) for n in (1, 2)]

    def test_listed_primes_keep_the_callers_order(self):
        report = sweep(FIB, "triple", {"n": (1, 2), "p": (5, 3)})
        assert [(c.inputs["n"], c.inputs["p"]) for c in report.cells] == [
            (1, 5), (2, 5), (1, 3), (2, 3)]
        assert all(list(c.inputs)[:2] == ["n", "p"] for c in report.cells)

    def test_defaults_order_is_the_loop_order(self, monkeypatch):
        row = THEOREM_TABLE["um-un"]._replace(defaults={"n": (3, 4), "m": (3, 5)})
        monkeypatch.setitem(THEOREM_TABLE, "um-un", row)
        report = sweep(FIB, "um-un")
        assert [(c.inputs["m"], c.inputs["n"]) for c in report.cells] == [
            (m, n) for n in (3, 4) for m in (3, 4, 5)]
        assert all(list(c.inputs)[:2] == ["m", "n"] for c in report.cells)

    @pytest.mark.parametrize(
        "theorem, ranges, key",
        [("um-un", {"p": (3,)}, "p"), ("triple", {"m": (3, 4)}, "m")],
    )
    def test_key_of_another_theorem_refused(self, theorem, ranges, key):
        with pytest.raises(BadRange, match=f"^theorem {theorem} takes no range for {key}$"):
            sweep(FIB, theorem, ranges)

    @pytest.mark.parametrize(
        "theorem, ranges, key",
        [
            ("um-un", {"m": (5,)}, "m"),
            ("um-un", {"m": 5}, "m"),
            ("triple", {"p": 3}, "p"),
            ("triple", {"p": (3, None)}, "p"),
            ("um-un", {"n": ("a", 3)}, "n"),
            ("um-un", {"m": (3, 4, 9), "n": (3, 3)}, "m"),
        ],
    )
    def test_malformed_bounds_refused_before_any_cell(self, monkeypatch, theorem, ranges, key):
        monkeypatch.setattr(verifier._Sweep, "cell", None)  # a cell would raise TypeError
        with pytest.raises(BadRange, match=f"^malformed range for {key}: "):
            sweep(FIB, theorem, ranges)

    @pytest.mark.parametrize("primes", [(3, 9), (3, 1)])
    def test_bad_prime_refused_before_any_cell(self, monkeypatch, primes):
        monkeypatch.setattr(verifier._Sweep, "cell", None)  # a cell would raise TypeError
        with pytest.raises(NotOddPrime, match=f"^need an odd prime, got {primes[1]}$"):
            sweep(FIB, "triple", {"p": primes})
        # ineligible params are refused first, as tau_triple refuses them
        with pytest.raises(NotEligible):
            sweep(make_params(1, -2), "triple", {"p": primes})


@pytest.mark.parametrize("theorem", ["um-un", "vm-vn"])
@pytest.mark.parametrize("a,b", [(3, 1), (3, 2), (4, -3)])
def test_pair_sweeps_record_cells_past_2_63(theorem, a, b):
    # the diagonal's closed forms pass 2^63 from m = n = 32-38 on; every cell is recorded
    report = sweep(make_params(a, b), theorem, {"m": (32, 40), "n": (32, 40)})
    assert report.summary.total == 81 and report.summary.disagreed == 0
    assert max(c.closed_form_value for c in report.cells) > 2**63


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
        terms = types.SimpleNamespace(u=u.__getitem__, v=v.__getitem__)
        assert THEOREM_TABLE[theorem].exact_product(terms, 9, 5) == want


class TestTermsOncePerSweep:
    def test_default_block_evaluates_each_term_once(self, monkeypatch):
        exact, ladders = Counter(), []
        for kind in ("u_exact", "v_exact"):
            real = getattr(verifier, kind)

            def counting(params, n, kind=kind, real=real):
                exact[kind, n] += 1
                return real(params, n)

            monkeypatch.setattr(verifier, kind, counting)
        real_uv_mod = rank.uv_mod

        def counting_uv_mod(params, n, modulus):
            ladders.append(n)
            return real_uv_mod(params, n, modulus)

        monkeypatch.setattr(rank, "uv_mod", counting_uv_mod)
        cells = calls = 0
        for theorem in THEOREMS:
            exact.clear()
            report = sweep(FIB, theorem)
            assert report.summary.disagreed == 0
            assert exact and max(exact.values()) == 1, theorem
            cells += report.summary.total
            calls += exact.total()
        assert cells == 1152
        assert calls == 146  # 2,484 when every cell evaluates both its terms
        # each of the 293 strips verifies its claimed value with one ladder, then makes one
        # per candidate it tries: 1,358 in all
        assert len(ladders) == 1651


class TestPartsOncePerSweep:
    def test_default_block_walks_each_part_once(self, monkeypatch):
        walks = []
        for name in ("_plain_scan", "_orbit_search"):
            real = getattr(rank, name)

            def counting(am, bm, m, cap, real=real):
                k = real(am, bm, m, cap)
                walks.append(((am, bm, m), cap, k))
                return k

            monkeypatch.setattr(rank, name, counting)
        total = 0
        for theorem in THEOREMS:
            walks.clear()
            assert sweep(FIB, theorem).summary.disagreed == 0
            keys = Counter(key for key, _, _ in walks)
            assert max(keys.values()) == 1, theorem
            assert all(k is not None for _, _, k in walks), theorem
            total += len(walks)
        assert total == 292  # 4,588 when every scan walks every part

    def test_default_block_splits_each_target_once(self, monkeypatch):
        splits = Counter()
        real = rank._parts

        def counting(m, cap):
            splits[cap] += 1
            return real(m, cap)

        monkeypatch.setattr(rank, "_parts", counting)
        claims, scanned = Counter(), 0
        for theorem in THEOREMS:
            report = sweep(FIB, theorem)
            assert report.summary.disagreed == 0
            claims.update(c.closed_form_value for c in report.cells)
            scanned += sum("scan_checked" in c.inputs for c in report.cells)
        # one split per cell, at its claimed value: the scan-checked cells hand the strip's
        # parts to the scan, where each scan split its target again (2,303 calls)
        assert claims.total() == 1152 and scanned == 1151
        assert splits.total() == 1152 and splits == claims


class _CountedCache(dict):
    """A strip cache that counts its lookups, by whether the key was held."""

    def __init__(self):
        super().__init__()
        self.met = Counter()

    def get(self, key, default=None):
        self.met[key in self] += 1
        return super().get(key, default)


class TestStripsOncePerSweep:
    def test_default_block_strips_each_part_once(self, monkeypatch):
        strips = Counter()
        real = rank.tau_min_divisor_oracle

        def counting(params, target, multiple, *, seed=0):
            strips[params.a % target, params.b % target, target] += 1
            return real(params, target, multiple, seed=seed)

        monkeypatch.setattr(rank, "tau_min_divisor_oracle", counting)
        total = 0
        for theorem in THEOREMS:
            strips.clear()
            assert sweep(FIB, theorem).summary.disagreed == 0
            assert max(strips.values()) == 1, theorem
            total += sum(strips.values())
        assert total == 293  # 1,152 when every cell strips its whole target

    def test_a_shared_cache_answers_as_the_whole_target_oracle(self, monkeypatch):
        # one strip cache for each of six random (a, b), as a sweep keeps one for its (a, b): the
        # targets are drawn from a few prime powers and primes above 10^4, so parts repeat, and
        # the claimed values are odd and even multiples of the rank and non-multiples of it
        rng = random.Random(27)
        pool = [2**3, 3**2, 5, 7**2, 11, 13**2, 89, 997, 10_007, 10_009, 10_037]
        pairs = []
        while len(pairs) < 6:  # three with delta < 0, three with delta > 0
            try:
                params = make_params(rng.randint(-9, 9), rng.randint(-9, 9))
            except LucasRankError:
                continue
            if sum((p.delta < 0) == (params.delta < 0) for p in pairs) < 3:
                pairs.append(params)
        whole = rank.tau_min_divisor_oracle
        refused = []

        def part_oracle(params, target, multiple, *, seed=0):
            try:
                return whole(params, target, multiple, seed=seed)
            except NotAMultiple:
                refused.append(target)
                raise

        monkeypatch.setattr(rank, "tau_min_divisor_oracle", part_oracle)
        sweeps, outcomes = {}, Counter()
        for params in pairs:
            sweeps[params] = verifier._Sweep(params, "triple")
            sweeps[params].stripped = _CountedCache()
        for _ in range(400):
            params = rng.choice(pairs)
            target = math.prod(rng.sample(pool, rng.randint(1, 3)))
            if math.gcd(target, params.b) != 1:
                continue
            t = rank.tau(params, target).value
            q = rng.choice([f[0] for f in rank.factorize(t).factors]) if t > 1 else 1
            multiple = t * rng.randint(1, 12)
            claimed = rng.choice([multiple, multiple, t // q, multiple + 1])
            try:
                want = whole(params, target, claimed).value
            except NotAMultiple:
                want = NotAMultiple
            refused.clear()
            parts = tuple(rank._parts(target, claimed))
            try:
                got = sweeps[params].strip(target, parts, claimed)
            except NotAMultiple:
                got = NotAMultiple
                outcomes["refused by a " + ("strip" if refused else "cached rank")] += 1
            else:
                outcomes["odd" if claimed % 2 else "even"] += 1
            assert got == want, (params, target, claimed)
        assert min(outcomes.values()) >= 10 and len(outcomes) == 4, outcomes
        met = sum((run.stripped.met for run in sweeps.values()), Counter())
        assert min(met.values()) >= 50 and len(met) == 2, met

    def test_a_claimed_value_past_the_factoring_bound_is_refused_whole(self):
        # 2 of this sweep's 40 closed-form values pass 2^96, and the first, at n = 14 and p = 7,
        # stops it, as it did when every cell stripped its whole target
        params = make_params(40, 99)
        message = "^610270232150241875327686647192480 exceeds the factoring bound"
        with pytest.raises(TooLarge, match=message):
            sweep(params, "triple", {"n": (1, 20), "p": (7, 11)})
        # so with every part of that cell's target cached: the small parts hold their ranks,
        # and the 285-bit cofactor holds the claimed value, a multiple of its rank, which a
        # cache read before the bound would accept
        th = THEOREM_TABLE["triple"]
        claimed = th.evaluate(params, 14, 7).value
        run = verifier._Sweep(params, "triple")
        target = th.exact_product(run, 14, 7)
        stripped, parts = run.stripped, tuple(rank._parts(target, claimed))
        for part, _ in parts:
            small = part < rank.FACTOR_BOUND
            stripped[part] = rank.tau(params, part).value if small else claimed
        assert len(stripped) == 7 and claimed > rank.FACTOR_BOUND
        with pytest.raises(TooLarge, match=message):
            run.strip(target, parts, claimed)


class TestWorkerCount:
    """The grid's refusals, made before any cell runs."""

    @staticmethod
    def _no_cell(monkeypatch):
        def no_cell(self, values):
            raise AssertionError("a cell ran before the grid was checked")

        monkeypatch.setattr(verifier._Sweep, "cell", no_cell)

    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_ineligible_params_refused_before_the_pool(self, monkeypatch, theorem):
        self._no_cell(monkeypatch)
        with pytest.raises(NotEligible):
            sweep(make_params(-1, 2), theorem)

    @pytest.mark.parametrize(
        "theorem, ranges, message",
        [
            ("um-vn", {"m": (1, 5)}, r"^indices must be >= 3, got \(1, 3\)$"),
            ("um-un", {"n": (2, 5)}, r"^indices must be >= 3, got \(3, 2\)$"),
            ("vm-vn", {"m": (2, 5), "n": (1, 5)}, r"^indices must be >= 3, got \(2, 1\)$"),
            ("triple", {"n": (0, 5)}, "^need n >= 1, got 0$"),
        ],
    )
    def test_index_below_the_form_refused_before_the_pool(
        self, monkeypatch, theorem, ranges, message
    ):
        self._no_cell(monkeypatch)
        with pytest.raises(BadRange, match=message):
            sweep(FIB, theorem, ranges)


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
        assert report_to_text(report).splitlines() == [
            "theorem=um-un a=1 b=1 cells=16 agreed=15 disagreed=1",
            "coverage: lcm*U_d=16",
            'DISAGREE inputs={"m": 4, "n": 6} closed=24 oracle=12',
        ]

    def test_non_multiple_falls_back_to_scan(self, monkeypatch):
        real = closed_form.tau_um_un

        def off_by_one(params, m, n):
            r = real(params, m, n)
            if (m, n) == (4, 6):
                return ClosedFormResult(r.value + 1, r.case_label, r.ingredients)
            return r

        monkeypatch.setattr(closed_form, "tau_um_un", off_by_one)
        splits = []
        real_parts = rank._parts

        def recording(m, cap):
            splits.append((m, cap))
            return real_parts(m, cap)

        monkeypatch.setattr(rank, "_parts", recording)
        report = sweep(FIB, "um-un", {"m": (4, 4), "n": (6, 6)})
        cell = report.cells[0]
        assert not cell.agree
        assert cell.closed_form_value == 13
        assert cell.oracle_value == 12
        assert "oracle_note" in cell.inputs
        # the strip's split is at the claimed value; the fallback scan splits at its own cap
        target = 3 * 8  # U_4 * U_6
        assert splits == [(target, 13), (target, verifier._SCAN_HARD_CAP)]

    def test_fallback_scan_that_finds_nothing(self, monkeypatch):
        real = closed_form.tau_um_un

        def one(params, m, n):
            r = real(params, m, n)
            return ClosedFormResult(1, r.case_label, r.ingredients)

        monkeypatch.setattr(closed_form, "tau_um_un", one)
        # 1 is no multiple of the rank, so the fallback scan runs to the sweep's one bound,
        # 10^8: tau(U_21^2) = 21 * F_21 = 229866 is found, tau(U_45^2) = 45 * F_45 is not
        report = sweep(FIB, "um-un", {"m": (21, 21), "n": (21, 21)})
        (cell,) = report.cells
        assert "oracle_note" in cell.inputs
        assert cell.oracle_value == 229866 == real(FIB, 21, 21).value
        assert not cell.agree
        report = sweep(FIB, "um-un", {"m": (45, 45), "n": (45, 45)})
        (cell,) = report.cells
        assert "oracle_note" in cell.inputs
        assert real(FIB, 45, 45).value > verifier._SCAN_HARD_CAP
        assert cell.oracle_value is None
        assert not cell.agree


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
        assert cell.inputs["scan_checked"] is True
        assert list(cell.inputs) == [
            "n", "p", "scan_checked", "alternative_value", "alternative_strips_to", "ratio",
            "oracle_method",
        ]

    def test_scanned_once_at_the_claimed_cap(self, monkeypatch):
        scans = []
        real = rank.tau_scan

        def counting(params, m, cap, **kwargs):
            scans.append((m, cap))
            return real(params, m, cap, **kwargs)

        monkeypatch.setattr(rank, "tau_scan", counting)
        assert reproduce_remark().cells[0].oracle_value == 82500
        u = [0, 1]
        while len(u) <= 60:
            u.append(u[-1] + u[-2])
        assert scans == [(u[50] * u[55] * u[60], 82500)]

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

    def test_call_that_is_not_refused_disagrees(self, monkeypatch):
        monkeypatch.setattr(verifier, "divides_uu", lambda params, n, m: True)
        report = check_delta_negative_fixtures()
        u_cells = [c for c in report.cells if c.inputs["kind"] == "U"]
        assert len(u_cells) == 2
        for cell in u_cells:
            assert cell.inputs["rejected_not_eligible"] is False
            assert cell.agree is False
        assert report.summary.disagreed == 2

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


def _report_from_dict(data: dict) -> verifier.SweepReport:
    """The report that `report_to_dict` gave, rebuilt field by field."""
    return verifier.SweepReport(
        make_params(data["params"]["a"], data["params"]["b"]),
        data["theorem"],
        [SweepCell(**c) for c in data["cells"]],
        verifier.SweepSummary(**data["summary"]),
    )


class TestSerialization:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: sweep(FIB, "um-un", {"m": (3, 5), "n": (3, 5)}),
            reproduce_remark,
            check_delta_negative_fixtures,
        ],
        ids=["sweep", "remark", "fixtures"],
    )
    def test_json_roundtrip(self, make):
        report = make()
        data = json.loads(report_to_json(report, include_timings=True))
        back = _report_from_dict(data)
        assert back.cells == report.cells  # elapsed_ms included
        assert (back.params, back.theorem, back.summary) == (
            report.params, report.theorem, report.summary)
        assert report_to_dict(back) == report_to_dict(report)
        assert _report_from_dict(report_to_dict(report, include_timings=True)) == report
        # fresh dicts, not the records' own: the params, each cell's inputs, the coverage
        d = report_to_dict(report)
        d["params"]["a"] += 1
        d["cells"][0]["inputs"]["edited"] = True
        d["summary"]["branch_coverage"]["edited"] = 1
        assert report == back

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
        assert out.splitlines()[0].split(",") == ["theorem", "a", "b", *SweepCell._fields]
