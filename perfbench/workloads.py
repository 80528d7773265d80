"""The four workloads: seeded inputs, one operation, and its check.

Each workload draws a fresh corpus of operations per round from
(workload, seed, round), so a cache inside the program never sees a
repeated input within one timed phase; round 0 is replayed for the
traced pass.  `run` is the only code inside the timed region.  `check`
runs afterwards and returns one verdict per operation: None when the
answer is right, "WrongAnswer" when it is wrong, or the name of the
failure (exception type, or the error the CLI printed).
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import arith
import spans
from lucas_rank import closed_form, gcd_identities, lucas_core, rank, valuation, verifier
from lucas_rank.errors import LucasRankError

ROOT = Path(__file__).resolve().parents[1]
PARAMS_GRID = [(1, 1), (2, 1), (3, 1), (1, 2), (3, 2), (3, -1), (4, -3)]  # tests/test_acceptance.py
WRONG = "WrongAnswer"


def _random_params(rng, bound):
    """A validated non-degenerate pair with |a|, |b| <= bound (delta may be negative)."""
    while True:
        try:
            return lucas_core.make_params(rng.randint(-bound, bound), rng.randint(-bound, bound))
        except LucasRankError:
            continue


def _params(rng, bound=10 ** 6):
    if rng.random() < 0.5:
        return lucas_core.make_params(*rng.choice(PARAMS_GRID))
    return _random_params(rng, bound)


def _eligible_params(rng):
    if rng.random() < 0.5:
        return lucas_core.make_params(*rng.choice(PARAMS_GRID))
    while True:
        a = rng.randint(1, 40)
        b = rng.randint(-((a * a - 1) // 4), 40)  # delta = a^2 + 4b > 0
        try:
            return lucas_core.make_params(a, b)
        except LucasRankError:
            continue


def _coprime_with_bits(rng, bits, b):
    """A random m of `bits` bits coprime to b; 1 when a hundred draws share a factor.

    Every prime factor of m is below 2^63: above 63 bits m is a random
    x of half the bits times a uniform cofactor that keeps the bit length,
    because `rank.tau` raises TooLarge on a larger prime factor (a known
    defect, run apart by `_tau_defect`).  At 2 or 3 bits every candidate
    can share a factor with b (6 | b).
    """
    for _ in range(100):
        if bits <= 63:
            m = rng.getrandbits(bits) | (1 << (bits - 1))
        else:
            half = bits // 2
            x = rng.getrandbits(half) | (1 << (half - 1))
            m = x * rng.randint(-(-(1 << (bits - 1)) // x), ((1 << bits) - 1) // x)
        if math.gcd(m, b) == 1:
            return m
    return 1


def _tau_defect(rng, params):
    """An m of at most 96 bits with a prime factor above 2^64, on which `rank.tau` raises TooLarge.

    The divisor strip calls `uv_mod` at indices near the factor, above
    `MOD_INDEX_CAP`, although `FACTOR_BOUND` is 2^96.
    """
    while True:
        m = arith.next_prime(rng.randrange(2 ** 64, 2 ** 80)) * rng.randrange(3, 2 ** 16)
        if math.gcd(m, params.b) == 1:
            return m


def _triple_peak(params, n_max, primes):
    """The largest closed-form rank of a triple sweep: the oracle evaluates U_k there.

    Above `MOD_INDEX_CAP` the sweep stops with TooLarge instead of recording
    the cell.
    """
    return max(closed_form.tau_triple(params, n, p).value
               for p in primes for n in range(1, n_max + 1))


# Python's default int-to-str limit: the CLI prints U_n and V_n only up to it
INT_STR_DIGITS = 4300


def _printable_index_max(params):
    """Largest n whose U_n and V_n stay 20 digits inside INT_STR_DIGITS (delta > 0)."""
    alpha = (abs(params.a) + math.sqrt(params.delta)) / 2  # the dominant root
    return int((INT_STR_DIGITS - 20) / math.log10(alpha))


def _uniform_strata(rng, lo, hi, count):
    """`count` integers spread over [lo, hi]: one uniform draw per equal-width stratum."""
    width = (hi - lo + 1) / count
    return [lo + int((i + rng.random()) * width) for i in range(count)]


def _rank_mod_prime(params, p):
    """Least k with p | U_k, by stepping mod p (p not dividing b, so k <= p + 1)."""
    a, b = params.a % p, params.b % p
    u0, u1, k = 0, 1, 0
    while True:
        k += 1
        u0, u1 = u1, (a * u1 + b * u0) % p
        if u0 == 0:
            return k


class _Workload:
    """Defaults: one operation per call, timed from outside, traced in this process."""

    in_subprocesses = False

    def keep(self, op, result):
        """What the checks need of a result, kept in place of it so memory stays flat."""
        return result

    def size(self, op):
        return 1

    def samples_ms(self, op, result, elapsed_s):
        return [elapsed_s * 1000.0]

    def big_m(self, op):
        return False

    def defects(self, seed):
        """Operations that hit a known defect of the program, run apart from the timed rounds."""
        return []

    def traced(self, ops):
        """Replay `ops` under the tracer: (raw trace, wall seconds of the replay)."""
        tracer = spans.Tracer()
        start = time.perf_counter()
        with tracer:
            for op in ops:
                try:
                    self.run(op)
                except Exception:  # counted by the untraced rounds
                    pass
        wall = time.perf_counter() - start
        return tracer.raw(), wall


# --------------------------------------------------------------- verify-sweep


class VerifySweep(_Workload):
    name = "verify-sweep"
    # Seconds one (a, b) block of four default sweeps took on a shared 2-vCPU
    # Linux machine (Python 3.11.7).  A run adds PARAMS_GRID pairs, in order, while the
    # blocks fit in half the run length, so a run completes at least two rounds.
    BLOCK_S = (6.6, 20.9, 20.0, 17.9, 16.4, 41.4, 49.1)
    EXPECTED = Path(__file__).parent / "expected.json"  # from sweep_digests()

    def corpus(self, seed, round_index, seconds):
        rng = random.Random(f"{self.name}:{seed}:{round_index}")
        pairs, spent = [], 0.0
        for pair, cost in zip(PARAMS_GRID, self.BLOCK_S):
            if pairs and spent + cost > seconds / 2:
                break
            pairs.append(pair)
            spent += cost
        # the seed reaches the program only as the randomized factoring seed
        return [(a, b, theorem, rng.randrange(2 ** 32))
                for a, b in pairs for theorem in verifier.THEOREMS]

    def run(self, op):
        a, b, theorem, rho_seed = op
        return verifier.sweep(lucas_core.make_params(a, b), theorem, seed=rho_seed)

    def size(self, op):
        return 180 if op[2] == "triple" else 324  # default grids: 3 x 60, 18 x 18

    def keep(self, op, report):
        digest = hashlib.sha256(verifier.report_to_json(report).encode()).hexdigest()
        return digest, [c.agree for c in report.cells], [c.elapsed_ms for c in report.cells]

    def samples_ms(self, op, kept, elapsed_s):
        return kept[2]

    def check(self, op, kept):
        a, b, theorem, _ = op
        digest, agree, _ = kept
        pinned = json.loads(self.EXPECTED.read_text())
        if len(agree) != self.size(op) or digest != pinned.get(f"{a},{b},{theorem}"):
            return [WRONG] * self.size(op)
        return [None if ok else WRONG for ok in agree]


def sweep_digests(pairs=PARAMS_GRID):
    """Digest of every default sweep's report, for pinning expected.json."""
    return {
        f"{a},{b},{theorem}": hashlib.sha256(
            verifier.report_to_json(
                verifier.sweep(lucas_core.make_params(a, b), theorem)
            ).encode()
        ).hexdigest()
        for a, b in pairs
        for theorem in verifier.THEOREMS
    }


# --------------------------------------------------------------- rank-queries


class RankQueries(_Workload):
    name = "rank-queries"
    BITS = range(8, 97)  # 96 bits is rank.FACTOR_BOUND
    NU_PRIMES = arith.primes_below(2000)
    NU_N_MAX = 2000  # keeps the direct valuation of U_n cheap to check
    # As many valuation queries as tau queries: the median operation then
    # sits where valuations meet small-m tau queries, and it varied least
    # across seeds (quartile spread 0.06, against 0.12 with a third of the
    # operations and 0.21 with a sixth).
    NU_PAIRS = 45

    def corpus(self, seed, round_index, seconds):
        rng = random.Random(f"{self.name}:{seed}:{round_index}")
        ops = []
        for bits in self.BITS:  # every bit length once per round
            params = _params(rng)
            ops.append(("tau", params, _coprime_with_bits(rng, bits, params.b)))
        for kind in ("nu_u", "nu_v") * self.NU_PAIRS:
            params = _params(rng)
            p = self._prime(rng, params)
            ops.append((kind, params, p, self._index(rng, params, p, kind)))
        rng.shuffle(ops)
        return ops

    def _prime(self, rng, params):
        small_delta = [p for p in self.NU_PRIMES[:100] if params.delta % p == 0]
        while True:
            roll = rng.random()
            if roll < 0.2:
                p = 2
            elif roll < 0.4 and small_delta:
                p = rng.choice(small_delta)
            else:
                p = rng.choice(self.NU_PRIMES)
            if params.b % p:
                return p

    def _index(self, rng, params, p, kind):
        if rng.random() < 0.5:
            return rng.randint(1, self.NU_N_MAX)
        t = _rank_mod_prime(params, p)
        if kind == "nu_v" and t % 2 == 0:
            t //= 2  # odd multiples of tau/2 reach the branch with a nonzero valuation
            return t * rng.randrange(1, max(2, self.NU_N_MAX // t), 2)
        return t * rng.randint(1, max(1, self.NU_N_MAX // t))

    def run(self, op):
        if op[0] == "tau":
            return rank.tau(op[1], op[2]).value
        fn = valuation.nu_u if op[0] == "nu_u" else valuation.nu_v
        return fn(op[1], op[2], op[3]).value

    def check(self, op, value):
        params = op[1]
        if op[0] == "tau":
            ok = arith.is_rank(params.a, params.b, op[2], value)
        else:
            exact = (lucas_core.u_exact if op[0] == "nu_u" else lucas_core.v_exact)(params, op[3])
            ok = value == arith.valuation(op[2], exact)
        return [None if ok else WRONG]

    def big_m(self, op):
        return op[0] == "tau" and op[2] > 2 ** 63

    def defects(self, seed):
        rng = random.Random(f"{self.name}:{seed}:defects")
        ops = []
        for _ in range(3):
            params = _params(rng)
            ops.append(("tau", params, _tau_defect(rng, params)))
        return ops


# ------------------------------------------------------------------- stepping


class Stepping(_Workload):
    name = "stepping"
    SCANS = 40  # of each kind per round
    STEP_LIMIT = 50_000  # every scan target's rank is at most this
    EXACT = 4
    EXACT_MAX = 100_000
    SMOOTH_PRIMES = arith.primes_below(1000)
    CHECK_MODULI = (2 ** 61 - 1, 10 ** 9 + 7, 2 ** 64)

    def corpus(self, seed, round_index, seconds):
        rng = random.Random(f"{self.name}:{seed}:{round_index}")
        ops = []
        for lo in _uniform_strata(rng, arith.SMALL_PRIME_LIMIT, self.STEP_LIMIT - 1, self.SCANS):
            params = _params(rng)
            p = arith.next_prime(lo)
            while params.b % p == 0:
                p = arith.next_prime(p + 1)
            ops.append(("scan", params, p))
        for k in _uniform_strata(rng, 1000, self.STEP_LIMIT, self.SCANS):
            params = _params(rng)
            k -= k % 60  # U_60 | U_k brings many small primes along
            ops.append(("scan", params, self._smooth_divisor(rng, params, k)))
        # caps are the fast path's answers, worked out before the timed phase
        ops = [(kind, params, m, rank.tau(params, m).value) for kind, params, m in ops]
        for i, n in enumerate(_uniform_strata(rng, 1, self.EXACT_MAX, self.EXACT)):
            params = lucas_core.make_params(*rng.choice(PARAMS_GRID))
            ops.append(("u" if i % 2 == 0 else "v", params, n))
        rng.shuffle(ops)
        return ops

    def _smooth_divisor(self, rng, params, k):
        """A divisor of U_k below 2^62 made of primes below 1000, so its rank divides k."""
        powers = []
        for p in self.SMOOTH_PRIMES:
            e = 62 // p.bit_length()  # p^e < 2^62
            r = arith.lucas_uv_mod(params.a, params.b, k, p ** e)[0]
            v = e if r == 0 else arith.valuation(p, r)
            if v:
                powers.append(p ** v)
        rng.shuffle(powers)
        m = 1
        for q in powers:
            if (m * q).bit_length() <= 62:
                m *= q
        return m

    def run(self, op):
        if op[0] == "scan":
            return rank.tau_scan(op[1], op[2], op[3]).value
        return (lucas_core.u_exact if op[0] == "u" else lucas_core.v_exact)(op[1], op[2])

    def keep(self, op, value):
        if op[0] == "scan":
            return value
        return [value % m for m in self.CHECK_MODULI]

    def check(self, op, kept):
        params = op[1]
        if op[0] == "scan":
            ok = arith.is_rank(params.a, params.b, op[2], kept)
        else:
            want = 0 if op[0] == "u" else 1
            ok = kept == [arith.lucas_uv_mod(params.a, params.b, op[2], m)[want]
                          for m in self.CHECK_MODULI]
        return [None if ok else WRONG]


# ------------------------------------------------------------------ cli-calls


def _cli_env():
    env = dict(os.environ)
    env.pop("LUCAS_RANK_JOBS", None)  # jobs=1
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


CLI_ENV = _cli_env()
CLI_TIMEOUT_S = 150
OUT_DIR = Path(__file__).parent / "out"  # scratch files of a run; ignored by git


class CliCalls(_Workload):
    name = "cli-calls"
    in_subprocesses = True
    COMMANDS = (
        "seq u", "seq v", "seq mod", "val u", "val v", "val int", "gcd uu", "gcd vv",
        "gcd uv", "divides uu", "divides vu", "tau", "tau-scan", "formula um-vn",
        "formula um-un", "formula vm-vn", "formula triple", "verify sweep",
        "verify remark", "verify fixtures",
    )
    PRIMES = arith.primes_below(2000)

    def corpus(self, seed, round_index, seconds):
        rng = random.Random(f"{self.name}:{seed}:{round_index}")
        ops = [self._argv(rng, cmd, fmt) for cmd in self.COMMANDS for fmt in ("text", "json")]
        rng.shuffle(ops)
        return ops

    def _argv(self, rng, cmd, fmt):
        args = {}
        if cmd in ("seq u", "seq v"):
            params = lucas_core.make_params(*rng.choice(PARAMS_GRID))
            # longer values crash the CLI (a known defect, run apart by `defects`)
            args["n"] = rng.randint(0, min(10 ** 5, _printable_index_max(params)))
        elif cmd == "seq mod":
            params = _params(rng)
            args.update(n=rng.randint(0, 10 ** 18), modulus=rng.randint(1, 10 ** 18))
        elif cmd in ("val u", "val v"):
            params = _params(rng)
            args.update(p=self._prime_not_dividing(rng, params.b), n=rng.randint(1, 10 ** 4))
        elif cmd == "val int":
            params = _params(rng)
            args.update(p=rng.choice(self.PRIMES),
                        x=rng.choice((-1, 1)) * rng.randint(1, 10 ** 30))
        elif cmd == "formula triple":
            params = _eligible_params(rng)
            args.update(n=rng.randint(1, 300), p=rng.choice(self.PRIMES[1:17]))
        elif cmd.startswith(("gcd", "divides", "formula")):
            params = _eligible_params(rng)
            args.update(m=rng.randint(3, 300), n=rng.randint(3, 300))
        elif cmd == "tau":
            params = _params(rng)
            args["m"] = _coprime_with_bits(rng, rng.randint(1, 96), params.b)
        elif cmd == "tau-scan":
            params = _params(rng)
            args["m"] = _coprime_with_bits(rng, rng.randint(1, 12), params.b)
            if rng.random() < 0.5:
                args["cap"] = 10 ** 7
        elif cmd == "verify sweep":
            params = _eligible_params(rng)
            theorem = rng.choice(verifier.THEOREMS)
            args["theorem"] = theorem
            if theorem == "triple":
                n_max, primes = rng.randint(1, 20), sorted(rng.sample((3, 5, 7, 11), 2))
                # larger closed forms crash the sweep (a known defect, run apart by `defects`)
                while _triple_peak(params, n_max, primes) > lucas_core.MOD_INDEX_CAP:
                    params = _eligible_params(rng)
                args.update(n_max=n_max, primes=",".join(map(str, primes)))
            else:
                args.update(m_max=rng.randint(3, 10), n_max=rng.randint(3, 10))
        else:  # verify remark, verify fixtures
            params = lucas_core.make_params(1, 1)
        return _cli_argv(cmd, params, fmt, rng.randrange(1000), args)

    def defects(self, seed):
        rng = random.Random(f"{self.name}:{seed}:defects")
        ops = []
        for cmd, fmt in (("seq u", "text"), ("seq v", "json")):
            params = lucas_core.make_params(*rng.choice(PARAMS_GRID))
            n = rng.randint(_printable_index_max(params) + 100, 10 ** 5)
            ops.append(_cli_argv(cmd, params, fmt, rng.randrange(1000), {"n": n}))
        params = _params(rng)
        ops.append(_cli_argv("tau", params, "text", rng.randrange(1000),
                             {"m": _tau_defect(rng, params)}))
        params = _eligible_params(rng)
        while _triple_peak(params, 20, (7, 11)) <= lucas_core.MOD_INDEX_CAP:
            params = _eligible_params(rng)
        ops.append(_cli_argv("verify sweep", params, "json", rng.randrange(1000),
                             {"theorem": "triple", "n_max": 20, "primes": "7,11"}))
        return ops

    def _prime_not_dividing(self, rng, b):
        while True:
            p = rng.choice(self.PRIMES)
            if b % p:
                return p

    def run(self, argv):
        return subprocess.run([sys.executable, "-m", "lucas_rank.cli", *argv], env=CLI_ENV,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)

    def traced(self, ops):
        OUT_DIR.mkdir(exist_ok=True)
        raws = []
        start = time.perf_counter()
        for i, argv in enumerate(ops):
            out = OUT_DIR / f"cli-trace-{i}.json"
            out.unlink(missing_ok=True)
            cmd = [sys.executable, str(Path(spans.__file__)), str(out), "--", *argv]
            subprocess.run(cmd, env=CLI_ENV, capture_output=True, timeout=CLI_TIMEOUT_S)
            raws.append(json.loads(out.read_text()))
            out.unlink()
        return spans.merge(raws), time.perf_counter() - start

    def check(self, argv, proc):
        if proc.returncode == 2 and argv[0] == "verify":
            return [WRONG]  # the sweep recorded a disagreement
        if proc.returncode != 0:
            return [_cli_failure(proc)]
        try:
            text, payload = expected_cli_output(argv)
        except LucasRankError:
            return [WRONG]  # the library refuses what the CLI answered
        out = proc.stdout
        if argv[argv.index("--format") + 1] == "json":
            ok = json.loads(out) == json.loads(json.dumps(payload))
        elif argv[0] == "verify":
            ok = out.splitlines()[:1] == [text]
        else:
            ok = out == text + "\n"
        return [None if ok else WRONG]

    def big_m(self, argv):
        return argv[0] == "tau" and int(argv[argv.index("--m") + 1]) > 2 ** 63


def _cli_argv(cmd, params, fmt, seed, args):
    argv = cmd.split() + ["--a", str(params.a), "--b", str(params.b), "--format", fmt,
                          "--seed", str(seed)]
    for key, value in args.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return tuple(argv)


def _cli_failure(proc):
    """The failure's name: the exception of a traceback, or the CLI's error type."""
    lines = proc.stderr.strip().splitlines()
    last = lines[-1] if lines else ""
    if last.startswith("error: ") and ":" in last[7:]:
        return last[7:].split(":", 1)[0]
    if "Traceback" in proc.stderr and ":" in last:
        return last.split(":", 1)[0]
    return f"exit{proc.returncode}"


def _opts(argv):
    opts = {}
    for i, token in enumerate(argv):
        if token.startswith("--"):
            opts[token[2:].replace("-", "_")] = argv[i + 1]
    return opts


def expected_cli_output(argv):
    """(text, JSON payload) the library gives for this argv, in the CLI's documented format."""
    o = _opts(argv)
    cmd = " ".join(t for t in argv[:2] if not t.startswith("--"))
    params = lucas_core.make_params(int(o["a"]), int(o["b"]))
    num = {k: int(v) for k, v in o.items() if k in ("n", "m", "p", "x", "modulus", "cap")}
    seed = int(o["seed"])
    if cmd in ("seq u", "seq v"):
        value = (lucas_core.u_exact if cmd == "seq u" else lucas_core.v_exact)(params, num["n"])
        return str(value), {"kind": cmd[-1].upper(), "index": num["n"], "value": value}
    if cmd == "seq mod":
        u, v = lucas_core.uv_mod(params, num["n"], num["modulus"])
        return f"{u} {v}", {"index": num["n"], "modulus": num["modulus"], "u": u, "v": v}
    if cmd.startswith("val"):
        if cmd == "val int":
            r = valuation.nu_int(num["p"], num["x"])
        else:
            r = (valuation.nu_u if cmd == "val u" else valuation.nu_v)(params, num["p"], num["n"])
        return str(r.value), {"value": r.value, "prime": r.prime, "case": r.case}
    if cmd.startswith("gcd"):
        w = getattr(gcd_identities, "gcd_" + cmd[4:])(params, num["m"], num["n"])
        return str(w.value), {"value": w.value, "branch": w.branch, "d": w.d}
    if cmd.startswith("divides"):
        flag = getattr(gcd_identities, "divides_" + cmd[8:])(params, num["n"], num["m"])
        return ("true" if flag else "false"), {"divides": flag}
    if cmd in ("tau", "tau-scan"):
        if cmd == "tau":
            r = rank.tau(params, num["m"], seed=seed)
        else:
            r = rank.tau_scan(params, num["m"], num.get("cap", 10 * num["m"] ** 2 + 10))
        witness = list(r.witness) if r.witness is not None else None
        return str(r.value), {"value": r.value, "method": r.method, "witness": witness}
    if cmd.startswith("formula"):
        if cmd == "formula triple":
            r = closed_form.tau_triple(params, num["n"], num["p"])
        else:
            fn = getattr(closed_form, "tau_" + cmd[8:].replace("-", "_"))
            r = fn(params, num["m"], num["n"])
        return str(r.value), {"value": r.value, "case_label": r.case_label,
                              "ingredients": r.ingredients}
    if cmd == "verify sweep":
        if o["theorem"] == "triple":
            ranges = {"n": (1, int(o["n_max"])), "p": tuple(map(int, o["primes"].split(",")))}
        else:
            ranges = {"m": (3, int(o["m_max"])), "n": (3, int(o["n_max"]))}
        report = verifier.sweep(params, o["theorem"], ranges, seed=seed)
    elif cmd == "verify remark":
        report = verifier.reproduce_remark(seed=seed)
    else:
        report = verifier.check_delta_negative_fixtures()
    s = report.summary
    text = (f"theorem={report.theorem} a={report.params.a} b={report.params.b} "
            f"cells={s.total} agreed={s.agreed} disagreed={s.disagreed}")
    return text, verifier.report_to_dict(report)


WORKLOADS = {w.name: w for w in (VerifySweep(), RankQueries(), Stepping(), CliCalls())}
