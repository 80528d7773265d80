"""lucas-rank benchmark: end-to-end and per-layer metrics for four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seconds 12          # every workload, one after another

Run from the repository root; the package is imported from ./src.  A run
measures the interpreter start-up (`setup_s`, scaled to a nominal speed
of the reference loop), runs fresh seeded rounds
of the workload untraced until `--seconds` of operations have run,
checks every answer, then replays round 0 under the span tracer for the
per-layer metrics.  It prints every metric with its unit and, as the last
line, one JSON object whose metrics are BENCHMARK.json's `end_to_end`
list (`--trace 0`) or its `per_layer` list (`--trace 1`).  See NOTES.md.
"""

import argparse
import bisect
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STARTUP_REPS = 9
# setup_s is the import time at the speed where the reference loop takes
# this long; a shared 2-vCPU machine ran it in 0.9-1.5 ms within minutes
NOMINAL_REFERENCE_S = 0.001
REFERENCE_EVERY_S = 0.25
REFERENCE_WINDOW_S = 1.0
WARMUP_S = 2.0  # untimed work first, so the CPU clock and caches settle


def _die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (SRC / "lucas_rank" / "__init__.py").is_file():
        _die(f"no package at {SRC / 'lucas_rank'}; run from a lucas-rank checkout")
    sys.path.insert(0, str(SRC))
    import lucas_rank

    if Path(lucas_rank.__file__).resolve().parent != SRC / "lucas_rank":
        _die(f"imported lucas_rank from {lucas_rank.__file__}, not from {SRC}")


def _startup_s(reps):
    """Median wall of a bare interpreter, of importing the CLI, of `--help`, and of the reference.

    The four are interleaved so that drift in machine load hits each alike.
    """
    from workloads import CLI_ENV

    variants = (["-c", "pass"], ["-c", "import lucas_rank.cli"], ["-m", "lucas_rank.cli", "--help"])
    times = [[] for _ in range(len(variants) + 1)]
    for _ in range(reps):
        times[-1].append(_reference_s())
        for args, sink in zip(variants, times):
            start = time.perf_counter()
            subprocess.run([sys.executable, *args], env=CLI_ENV, check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            sink.append(time.perf_counter() - start)
    return [statistics.median(t) for t in times]


def _warm_up(w, seed, seconds):
    start = time.perf_counter()
    for op in w.corpus(seed, -1, seconds):
        try:
            w.run(op)
        except Exception:  # only the timed rounds count failures
            pass
        if time.perf_counter() - start > WARMUP_S:
            break


def _reference_s():
    """Time of a fixed loop that lucas_rank never runs.

    Its values stay below 256, inside CPython's small-int cache, so it
    allocates nothing and the program's heap state cannot change its speed.
    """
    start = time.perf_counter()
    u0, u1 = 0, 1
    for _ in range(20_000):
        u0, u1 = u1, (u0 + u1) % 251
    return time.perf_counter() - start


def _timed_phase(w, seed, seconds):
    """Fresh rounds until `seconds` of operations have run.

    Returns ([(ops, outcomes, wall)], references): one (result, exception,
    seconds, start) per operation, and (time, seconds) samples of the
    reference loop, taken between operations at most every
    REFERENCE_EVERY_S, outside the timed region.
    """
    rounds, spent, refs = [], 0.0, []
    while not rounds or spent < seconds:
        ops = w.corpus(seed, len(rounds), seconds)
        outcomes = []
        for op in ops:
            if not refs or time.perf_counter() - refs[-1][0] >= REFERENCE_EVERY_S:
                refs.append((time.perf_counter(), _reference_s()))
            start = time.perf_counter()
            try:
                result, exc = w.run(op), None
            except Exception as e:  # a failed operation is counted, never dropped
                result, exc = None, e
            elapsed = time.perf_counter() - start
            if exc is None:
                result = w.keep(op, result)
            outcomes.append((result, exc, elapsed, start))
        wall = sum(o[2] for o in outcomes)
        rounds.append((ops, outcomes, wall))
        spent += wall
    refs.append((time.perf_counter(), _reference_s()))
    return rounds, refs


def _local_reference(refs, times, start, elapsed):
    """Median reference time sampled within REFERENCE_WINDOW_S of an operation."""
    lo = bisect.bisect_left(times, start - REFERENCE_WINDOW_S)
    hi = bisect.bisect_right(times, start + elapsed + REFERENCE_WINDOW_S)
    return statistics.median(s for _, s in refs[lo:hi])


def _check(w, rounds, refs):
    """(attempted, failures by name, operation times in ms, operation times / reference)."""
    import workloads

    sys.set_int_max_str_digits(0)  # checks compare U_n of any size
    attempted, failures, samples, relative = 0, Counter(), [], []
    times = [t for t, _ in refs]
    for ops, outcomes, _ in rounds:
        for op, (result, exc, elapsed, start) in zip(ops, outcomes):
            ref = _local_reference(refs, times, start, elapsed)
            attempted += w.size(op)
            if exc is not None:
                failures[type(exc).__name__] += w.size(op)
                samples.append(elapsed * 1000.0)
                relative.append(elapsed / ref)
                continue
            ms = w.samples_ms(op, result, elapsed)
            samples += ms
            relative += [x / 1000.0 / ref for x in ms]
            try:
                verdicts = w.check(op, result)
            except ValueError:  # output that does not even parse
                verdicts = [workloads.WRONG] * w.size(op)
            failures.update(v for v in verdicts if v)
    return attempted, failures, samples, relative


def _probe_defects(w, seed):
    """Run the workload's known-defect operations once, untimed.

    Returns (operations, failures by name, wrong answers).  They stay out
    of `attempted` and `failed`, which count only the workload's own
    operations, but a wrong answer here still makes the run incorrect.
    """
    import workloads

    ops, failures, wrong = w.defects(seed), Counter(), 0
    for op in ops:
        try:
            result = w.keep(op, w.run(op))
        except Exception as e:
            verdicts = [type(e).__name__] * w.size(op)
        else:
            try:
                verdicts = w.check(op, result)
            except ValueError:  # output that does not even parse
                verdicts = [workloads.WRONG] * w.size(op)
        wrong += sum(v == workloads.WRONG for v in verdicts)
        failures.update(v for v in verdicts if v and v != workloads.WRONG)
    return ops, failures, wrong


def _tail(samples):
    """Highest percentile with at least ten samples beyond it: (ms, percentile, beyond)."""
    ordered = sorted(samples)
    i = max(0, len(ordered) - 11)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def _stamp(seed):
    try:
        top, sha = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, check=True).stdout.split()
        if Path(top).resolve() != ROOT:
            sha = "unavailable"  # the checkout sits inside another repository
    except (OSError, ValueError, subprocess.CalledProcessError):
        sha = "unavailable"
    digest = hashlib.sha256()
    for path in sorted((SRC / "lucas_rank").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "numpy": importlib.util.find_spec("numpy") is not None,
        "sympy": importlib.util.find_spec("sympy") is not None,
        "seed": seed,
    }


def _repeat_check(w, seed, seconds, inputs_sha, counts):
    """Compare with the first run of this seed; returns a note and whether it matched."""
    from workloads import OUT_DIR

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"counts-{w.name}-seed{seed}-s{seconds}.json"
    record = {"inputs_sha256": inputs_sha, "counts": counts}
    if not path.exists():
        path.write_text(json.dumps(record, indent=1, sort_keys=True))
        return "recorded as the first run of this seed", True
    first = json.loads(path.read_text())
    diff = sorted(k for k in set(first["counts"]) | set(counts)
                  if first["counts"].get(k) != counts.get(k))
    if first["inputs_sha256"] != inputs_sha:
        diff.insert(0, "inputs_sha256")
    if diff:
        return "FLAG: differs from the first run of this seed in " + ", ".join(diff), False
    return "identical to the first run of this seed", True


def run_workload(name, seed, seconds, trace):
    import spans
    import workloads

    w = workloads.WORKLOADS[name]
    stamp = _stamp(seed)
    _warm_up(w, seed, seconds)
    interp_s, import_s, help_s, startup_ref_s = _startup_s(STARTUP_REPS)
    setup_s = import_s * NOMINAL_REFERENCE_S / startup_ref_s

    rounds, refs = _timed_phase(w, seed, seconds)
    who = resource.RUSAGE_CHILDREN if w.in_subprocesses else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    attempted, failures, samples, relative = _check(w, rounds, refs)
    defect_ops, defects, defect_wrong = _probe_defects(w, seed)

    ops0, _, untraced_wall = rounds[0]
    raw, traced_wall = w.traced(ops0)

    failed = sum(failures.values())
    timed = sum(wall for _, _, wall in rounds)
    tail_ms, tail_pct, beyond = _tail(samples)
    end_to_end = {
        "wall_s": (statistics.median(wall for _, _, wall in rounds), "s"),
        "ops_per_s": ((attempted - failed) / timed, "1/s"),
        "op_ms_p50": (statistics.median(samples), "ms"),
        "op_ref_p50": (statistics.median(relative), "ref"),
        "op_ms_tail": (tail_ms, "ms"),
        "fail_ratio": (failed / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "setup_raw_s": (import_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    per_layer = spans.summary(raw)
    per_layer["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1.0, "ratio")
    per_layer["cli.interp_ms"] = (interp_s * 1000.0, "ms")
    per_layer["cli.import_ms"] = ((import_s - interp_s) * 1000.0, "ms")
    per_layer["cli.parse_ms"] = ((help_s - import_s) * 1000.0, "ms")

    all_ops = [op for ops, _, _ in rounds for op in ops]
    counts = {k: per_layer[k][0] for k in spans.COUNT_METRICS}
    inputs_sha = hashlib.sha256(repr(ops0).encode()).hexdigest()
    repeat_note, repeat_ok = _repeat_check(w, seed, seconds, inputs_sha, counts)
    correct = repeat_ok and not failures.get(workloads.WRONG) and not defect_wrong

    print(f"== {name}  seed={seed}  seconds={seconds}  rounds={len(rounds)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("why: " + next(x["why"] for x in spec["workloads"] if x["name"] == name))
    print("stamp: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"inputs_sha256 (round 0): {inputs_sha}")
    print("end-to-end (untraced rounds):")
    for key, (value, unit) in end_to_end.items():
        extra = f"  (p{tail_pct:.2f} of {len(samples)} samples, {beyond} beyond)" \
            if key == "op_ms_tail" else ""
        print(f"  {key:<14} {value:.6g} {unit}{extra}")
    ref_ms = 1000.0 * statistics.median(s for _, s in refs)
    print(f"  reference loop {ref_ms:.4g} ms (median of {len(refs)} samples)")
    print(f"attempted={attempted} failed={failed} by type: "
          + (", ".join(f"{k}={v}" for k, v in sorted(failures.items())) or "none"))
    if defect_ops:
        print(f"known defects (untimed probe, outside attempted/failed): "
              f"{sum(defects.values())} of {len(defect_ops)} fail, {defect_wrong} wrong; by type: "
              + (", ".join(f"{k}={v}" for k, v in sorted(defects.items())) or "none"))
    big = sum(1 for op in all_ops if w.big_m(op))
    print(f"share: scan targets with a prime-power factor < 2^31 (round 0) = "
          f"{per_layer['rank.tau_scan.small_factor_share'][0]:.4f}; "
          f"operations with m > 2^63 = {big}/{len(all_ops)}")
    print("per-layer (traced replay of round 0):")
    for key, (value, unit) in per_layer.items():
        print(f"  {key:<36} {value:.6g} {unit}")
    print(f"work counts: {repeat_note}")

    chosen = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {**end_to_end, **per_layer}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
                    for m in chosen},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _import_program()
    import workloads

    if args.workload == "all":
        # one process per workload, so peak memory is the workload's own
        status = 0
        for name in workloads.WORKLOADS:
            status |= subprocess.run([sys.executable, __file__, "--workload", name,
                                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                                      "--trace", str(args.trace)]).returncode
        sys.exit(status)
    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
