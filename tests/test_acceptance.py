"""Acceptance checks for the whole package.

Each test prints one summary line, ACCEPTANCE <tag>: PASS/FAIL, on the
real stdout so the lines survive pytest's capture.  Every equality here
is exact; no tolerances are involved anywhere.
"""

import math
import random
import time

import pytest

from lucas_rank.closed_form import tau_triple
from lucas_rank.errors import NotEligible
from lucas_rank.gcd_identities import (
    divides_uu,
    divides_vu,
    gcd_uu,
    gcd_uv,
    gcd_vv,
)
from lucas_rank.lucas_core import make_params, u_exact, v_exact
from lucas_rank.rank import tau, tau_min_divisor_oracle, tau_scan
from lucas_rank.valuation import nu_u, nu_v
from lucas_rank.verifier import (
    PAIR_THEOREMS,
    THEOREM_TABLE,
    check_delta_negative_fixtures,
    reproduce_remark,
    sweep,
)

PARAMS_GRID = [(1, 1), (2, 1), (3, 1), (1, 2), (3, 2), (3, -1), (4, -3)]
TRIPLE_LABELS = THEOREM_TABLE["triple"].labels


@pytest.fixture()
def announce(capfd):
    """Print one ACCEPTANCE line outside pytest's capture."""

    def emit(tag: str, ok: bool, elapsed: float, detail: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        line = f"ACCEPTANCE {tag}: {status} ({elapsed:.2f}s)"
        if detail:
            line += f" {detail}"
        with capfd.disabled():
            print(line, flush=True)

    return emit


def _nu_slow(p, x):
    x = abs(x)
    e = 0
    while x and x % p == 0:
        x //= p
        e += 1
    return e


def test_remark_reproduction(announce):
    start = time.perf_counter()
    fib = make_params(1, 1)
    closed = tau_triple(fib, 50, 5)
    target = u_exact(fib, 50) * u_exact(fib, 55) * u_exact(fib, 60)
    oracle = tau_min_divisor_oracle(fib, target, closed.value)
    report = reproduce_remark()
    cell = report.cells[0]
    elapsed = time.perf_counter() - start
    ok = (
        closed.value == 82500
        and closed.value == 25 * 55 * 60
        and oracle.value == 82500
        and cell.inputs["alternative_value"] == 907500
        and cell.inputs["alternative_value"] == 11 * 82500
        and cell.inputs["alternative_strips_to"] == 82500
        and cell.agree
        and elapsed < 5.0
    )
    announce("remark-reproduction", ok, elapsed,
             f"closed=82500 alternative=907500 ratio={cell.inputs['ratio']}")
    assert ok


def test_pair_theorem_sweeps(announce):
    start = time.perf_counter()
    total = agreed = disagreed = 0
    bad = []
    # Some pairs reach only part of a theorem's branches (vm-vn gives
    # only 2lcm*gcd at (1, 2) and (3, 2)), so coverage is checked over
    # the whole grid.
    labels = {theorem: set() for theorem in PAIR_THEOREMS}
    for a, b in PARAMS_GRID:
        params = make_params(a, b)
        for theorem in PAIR_THEOREMS:
            report = sweep(params, theorem, {"m": (3, 20), "n": (3, 20)})
            total += report.summary.total
            agreed += report.summary.agreed
            disagreed += report.summary.disagreed
            labels[theorem].update(c.case_label for c in report.cells)
            bad.extend(
                (a, b, theorem, c.inputs) for c in report.cells if not c.agree
            )
    elapsed = time.perf_counter() - start
    coverage_ok = all(labels[t] == THEOREM_TABLE[t].labels for t in PAIR_THEOREMS)
    if not coverage_ok:
        bad.append({t: sorted(labels[t]) for t in PAIR_THEOREMS})
    ok = disagreed == 0 and coverage_ok and total == len(PARAMS_GRID) * 3 * 18 * 18
    announce("pair-theorem-sweep", ok, elapsed,
             f"cells={total} agreed={agreed} disagreed={disagreed} "
             f"all-branches={coverage_ok}")
    assert ok, bad[:10]


@pytest.mark.slow
def test_pair_theorem_sweeps_to_40(announce):
    # the paper's grid is m, n <= 20; past 32 the diagonal's closed forms pass 2^63
    start = time.perf_counter()
    total = disagreed = 0
    bad = []
    for a, b in PARAMS_GRID:
        params = make_params(a, b)
        for theorem in PAIR_THEOREMS:
            report = sweep(params, theorem, {"m": (3, 40), "n": (3, 40)})
            total += report.summary.total
            disagreed += report.summary.disagreed
            bad.extend((a, b, theorem, c.inputs) for c in report.cells if not c.agree)
    elapsed = time.perf_counter() - start
    ok = disagreed == 0 and total == len(PARAMS_GRID) * 3 * 38 * 38 == 30_324
    announce("pair-theorem-sweep-40", ok, elapsed, f"cells={total} disagreed={disagreed}")
    assert ok, bad[:10]


def test_triple_theorem_sweeps(announce):
    start = time.perf_counter()
    total = disagreed = 0
    coverage_ok = True
    bad = []
    for a, b in PARAMS_GRID:
        params = make_params(a, b)
        report = sweep(params, "triple", {"n": (1, 60), "p": (3, 5, 7)})
        total += report.summary.total
        disagreed += report.summary.disagreed
        bad.extend((a, b, c.inputs) for c in report.cells if not c.agree)
        for p in (3, 5, 7):
            labels = {c.case_label for c in report.cells if c.inputs["p"] == p}
            if labels != TRIPLE_LABELS:
                coverage_ok = False
                bad.append((a, b, p, sorted(labels)))
    elapsed = time.perf_counter() - start
    ok = disagreed == 0 and coverage_ok and total == len(PARAMS_GRID) * 3 * 60
    announce("triple-theorem-sweep", ok, elapsed,
             f"cells={total} disagreed={disagreed} all-branches={coverage_ok}")
    assert ok, bad[:10]


def test_valuation_lemmas(announce):
    start = time.perf_counter()
    checked = mismatches = 0
    bad = []
    for a, b in PARAMS_GRID:
        params = make_params(a, b)
        useq = [u_exact(params, n) for n in range(0, 121)]
        vseq = [v_exact(params, n) for n in range(0, 121)]
        for p in (2, 3, 5, 7, 11, 13):
            if b % p == 0:
                continue
            for n in range(1, 121):
                for closed_fn, seq in ((nu_u, useq), (nu_v, vseq)):
                    got = closed_fn(params, p, n).value
                    want = _nu_slow(p, seq[n])
                    checked += 1
                    if got != want:
                        mismatches += 1
                        bad.append((a, b, closed_fn.__name__, p, n, got, want))
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and checked > 0
    announce("valuation-lemmas", ok, elapsed,
             f"checked={checked} mismatches={mismatches}")
    assert ok, bad[:10]


def test_gcd_identities(announce):
    start = time.perf_counter()
    checked = mismatches = 0
    bad = []
    for a, b in PARAMS_GRID:
        params = make_params(a, b)
        useq = [abs(u_exact(params, k)) for k in range(0, 25)]
        vseq = [abs(v_exact(params, k)) for k in range(0, 25)]
        for m in range(3, 25):
            for n in range(3, 25):
                d = math.gcd(m, n)
                direct_uu = math.gcd(useq[m], useq[n])
                direct_vv = math.gcd(vseq[m], vseq[n])
                direct_uv = math.gcd(useq[m], vseq[n])
                even_vv = a % 2 == 0 or (a % 2 == 1 and b % 2 == 1 and d % 3 == 0)
                even_uv = (a % 2 == 0 and m % 2 == 0) or (
                    a % 2 == 1 and b % 2 == 1 and d % 3 == 0
                )
                facts = [
                    gcd_uu(params, m, n).value == direct_uu,
                    gcd_vv(params, m, n).value == direct_vv,
                    gcd_uv(params, m, n).value == direct_uv,
                    (direct_vv % 2 == 0) == even_vv,
                    (direct_uv % 2 == 0) == even_uv,
                    divides_uu(params, m, n) == (useq[n] % useq[m] == 0),
                    divides_vu(params, m, n) == (useq[n] % vseq[m] == 0),
                ]
                checked += len(facts)
                if not all(facts):
                    mismatches += 1
                    bad.append((a, b, m, n, facts))
    elapsed = time.perf_counter() - start
    ok = mismatches == 0
    announce("gcd-identities", ok, elapsed,
             f"checked={checked} mismatches={mismatches}")
    assert ok, bad[:10]


def test_rank_consistency(announce):
    start = time.perf_counter()
    checked_tau = checked_pairs = mismatches = 0
    bad = []
    for a, b in PARAMS_GRID:
        params = make_params(a, b)
        for m in range(2, 201):
            if math.gcd(m, b) != 1:
                continue
            fast = tau(params, m).value
            slow = tau_scan(params, m, cap=10 * m * m + 10).value
            checked_tau += 1
            if fast != slow:
                mismatches += 1
                bad.append((a, b, m, fast, slow))
        useq = [u_exact(params, k) for k in range(0, 241)]
        rng = random.Random(20260816)
        ranks = {}
        for _ in range(500):
            m = rng.randrange(2, 301)
            k = rng.randrange(1, 241)
            checked_pairs += 1
            if math.gcd(m, b) != 1:
                # terms are coprime to b, so such m never divides any U_k
                if useq[k] % m == 0:
                    mismatches += 1
                    bad.append((a, b, m, k, "divides despite gcd(m,b)>1"))
                continue
            if m not in ranks:
                ranks[m] = tau(params, m).value
            if (useq[k] % m == 0) != (k % ranks[m] == 0):
                mismatches += 1
                bad.append((a, b, m, k, ranks[m]))
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and checked_tau > 0 and checked_pairs == 3500
    announce("rank-consistency", ok, elapsed,
             f"tau_vs_scan={checked_tau} sampled_pairs={checked_pairs} "
             f"mismatches={mismatches}")
    assert ok, bad[:10]


def test_delta_negative_fixtures(announce):
    start = time.perf_counter()
    report = check_delta_negative_fixtures()
    refusals_ok = True
    for a, b in [(-3, -5), (1, -2), (4, -5), (2, -3)]:
        params = make_params(a, b)
        for fn in (divides_uu, divides_vu):
            with pytest.raises(NotEligible):
                fn(params, 4, 8)
    expected = {
        (-3, -5): (3, 72),
        (1, -2): (-3, 45),
        (4, -5): (4, 24),
        (2, -3): (2, -10),
    }
    values_ok = all(
        (c.inputs["divisor_value"], c.inputs["dividend_value"])
        == expected[(c.inputs["a"], c.inputs["b"])]
        for c in report.cells
    )
    elapsed = time.perf_counter() - start
    ok = (
        report.summary.total == 4
        and report.summary.disagreed == 0
        and values_ok
        and refusals_ok
    )
    announce("delta-negative-fixtures", ok, elapsed,
             f"fixtures={report.summary.total} disagreed={report.summary.disagreed}")
    assert ok
