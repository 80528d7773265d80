"""In-memory span tracer that wraps lucas_rank's public functions.

Spans are installed by rebinding module attributes, so the package
itself is unchanged.  Several modules import `uv_mod`, `u_exact` and
`v_exact` (and some gcd/valuation functions) by name; every such
binding is rebound to the same wrapper.  Each span records name,
start, end and parent; self time is the duration minus the time the
direct child spans cover.  Work counts are collected at the same
boundaries and turned into the per-layer metrics by `summary()`.

Run as a script, it executes one `lucas_rank.cli` command under the
tracer and writes the raw trace (`Tracer.raw()`) to a JSON file:

    PYTHONPATH=src python3 perfbench/spans.py OUT.json -- tau --m 77
"""

import json
import sys
import time

from arith import factor, has_small_prime_power
from lucas_rank.errors import NotFound

# span name -> [(module, attribute), ...] bound to the same function
_FUNCTIONS = {
    "rank.tau_scan": [("rank", "tau_scan")],
    "rank.factorize": [("rank", "factorize")],
    "rank.is_prime": [("rank", "is_prime")],
    "rank.tau": [("rank", "tau")],
    "rank.tau_prime": [("rank", "tau_prime")],
    "rank.tau_prime_power": [("rank", "tau_prime_power")],
    "rank.nu_in_u": [("rank", "nu_in_u")],
    "rank.tau_min_divisor_oracle": [("rank", "tau_min_divisor_oracle")],
    "lucas_core.uv_mod": [("lucas_core", "uv_mod"), ("rank", "uv_mod"), ("cli", "uv_mod")],
    "lucas_core.exact.u": [
        ("lucas_core", "u_exact"), ("verifier", "u_exact"), ("closed_form", "u_exact"),
        ("gcd_identities", "u_exact"), ("valuation", "u_exact"), ("cli", "u_exact"),
    ],
    "lucas_core.exact.v": [
        ("lucas_core", "v_exact"), ("verifier", "v_exact"), ("closed_form", "v_exact"),
        ("gcd_identities", "v_exact"), ("cli", "v_exact"),
    ],
    "verifier.sweep": [("verifier", "sweep")],
}
for _fn in ("tau_um_vn", "tau_um_un", "tau_vm_vn", "tau_triple"):
    _FUNCTIONS[f"closed_form.{_fn}"] = [("closed_form", _fn)]
for _fn in ("gcd_uu", "gcd_vv", "gcd_uv", "divides_uu", "divides_vu"):
    _FUNCTIONS[f"gcd_identities.{_fn}"] = [("gcd_identities", _fn), ("cli", _fn)]
_FUNCTIONS["gcd_identities.gcd_vv"].append(("closed_form", "gcd_vv"))
_FUNCTIONS["gcd_identities.divides_uu"].append(("verifier", "divides_uu"))
_FUNCTIONS["gcd_identities.divides_vu"].append(("verifier", "divides_vu"))
for _fn in ("nu_int", "nu_u", "nu_v"):
    _FUNCTIONS[f"valuation.{_fn}"] = [("valuation", _fn), ("cli", _fn)]

def _bit_class(x: int) -> str:
    bits = x.bit_length()
    return "b32" if bits <= 32 else "b64" if bits <= 64 else "b96"


class Tracer:
    """Spans and work counts for one traced pass; see the module docstring."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self.scan_targets = []  # (m, steps)
        self.strips = []  # (multiple, value, candidates)
        self.ladder_steps = 0
        self.exact_steps = 0
        self.cells_scan_checked = 0
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            label = name
            if name == "rank.factorize":
                label = f"{name}.{_bit_class(args[0])}"
            idx = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:  # recorded for the count, then re-raised
                exc = e
                raise
            finally:
                spans[idx][2] = clock()
                stack.pop()
                self._count(name, args, kwargs, result, exc)

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, args, kwargs, result, exc):
        if name == "rank.tau_scan":
            cap = args[2] if len(args) > 2 else kwargs["cap"]
            if result is not None:
                self.scan_targets.append((args[1], result.value))
            elif isinstance(exc, NotFound):
                self.scan_targets.append((args[1], cap))
        elif name == "lucas_core.uv_mod":
            self.ladder_steps += args[1].bit_length()
        elif name.startswith("lucas_core.exact"):
            self.exact_steps += args[1]
        elif name in ("rank.tau_prime", "rank.tau_min_divisor_oracle"):
            if result is not None and result.witness is not None:
                w = result.witness
                self.strips.append((w[0], result.value, len(w) - 1))
        elif name == "verifier.sweep" and result is not None:
            self.cells_scan_checked += sum(
                1 for c in result.cells if c.inputs.get("scan_checked")
            )

    def __enter__(self):
        """Rebind every traced function; leaving the block restores them."""
        from lucas_rank import (
            cli, closed_form, gcd_identities, lucas_core, rank, valuation, verifier,
        )

        modules = {
            "cli": cli, "closed_form": closed_form, "gcd_identities": gcd_identities,
            "lucas_core": lucas_core, "rank": rank, "valuation": valuation,
            "verifier": verifier,
        }
        for name, sites in _FUNCTIONS.items():
            mod, attr = sites[0]
            wrapper = self._wrap(name, getattr(modules[mod], attr))
            for mod, attr in sites:
                self._saved.append((modules[mod], attr, getattr(modules[mod], attr)))
                setattr(modules[mod], attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def raw(self) -> dict:
        """Self time and calls per span name, plus the raw work counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s, wall = {}, {}, {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
            wall[name] = wall.get(name, 0.0) + (end - start)
        return {
            "calls": calls,
            "self_s": self_s,
            "wall_s": wall,
            "scan_steps": sum(steps for _, steps in self.scan_targets),
            "scan_targets": len(self.scan_targets),
            "scan_small_factor": sum(
                1 for m, _ in self.scan_targets if has_small_prime_power(m)
            ),
            "strips": [[mult // value, cand] for mult, value, cand in self.strips],
            "ladder_steps": self.ladder_steps,
            "exact_steps": self.exact_steps,
            "cells_scan_checked": self.cells_scan_checked,
        }


def merge(raws: list) -> dict:
    """Sum several `Tracer.raw()` results (one per traced process)."""
    out = {}
    for raw in raws:
        for key, value in raw.items():
            if isinstance(value, list):
                out.setdefault(key, []).extend(value)
            elif isinstance(value, dict):
                slot = out.setdefault(key, {})
                for k, v in value.items():
                    slot[k] = slot.get(k, 0) + v
            else:
                out[key] = out.get(key, 0) + value
    return out


def _group(raw: dict, prefix: str) -> tuple:
    names = [n for n in raw["calls"] if n.startswith(prefix)]
    return (
        sum(raw["calls"][n] for n in names),
        sum(raw["self_s"][n] for n in names),
    )


# Work counts: deterministic for a fixed seed, compared across runs.
COUNT_METRICS = (
    "rank.tau_scan.calls", "rank.tau_scan.steps",
    "rank.factorize.calls.b32", "rank.factorize.calls.b64", "rank.factorize.calls.b96",
    "rank.is_prime.calls", "rank.tau.calls", "rank.tau_prime.calls",
    "rank.tau_prime_power.calls", "rank.nu_in_u.calls",
    "rank.tau_min_divisor_oracle.calls", "rank.strip.candidates",
    "lucas_core.uv_mod.calls", "lucas_core.uv_mod.ladder_steps",
    "lucas_core.exact.calls", "lucas_core.exact.steps",
    "closed_form.calls", "gcd_identities.calls", "valuation.calls",
    "verifier.cells_scan_checked",
)


def summary(raw: dict) -> dict:
    """Per-layer metric name -> (value, unit)."""
    calls, self_s = raw.get("calls", {}), raw.get("self_s", {})
    m = {}

    def put(name, prefix):
        n, s = _group(raw, prefix) if calls else (0, 0.0)
        m[f"{name}.calls"] = (n, "count")
        m[f"{name}.self_s"] = (s, "s")

    put("rank.tau_scan", "rank.tau_scan")  # the only span name with this prefix
    scan_self = m["rank.tau_scan.self_s"][0]
    steps = raw.get("scan_steps", 0)
    targets = raw.get("scan_targets", 0)
    m["rank.tau_scan.steps"] = (steps, "count")
    m["rank.tau_scan.steps_per_s"] = (steps / scan_self if scan_self else 0.0, "1/s")
    m["rank.tau_scan.small_factor_share"] = (
        raw.get("scan_small_factor", 0) / targets if targets else 0.0, "ratio")
    for cls in ("b32", "b64", "b96"):
        name = f"rank.factorize.{cls}"
        m[f"rank.factorize.calls.{cls}"] = (calls.get(name, 0), "count")
        m[f"rank.factorize.self_s.{cls}"] = (self_s.get(name, 0.0), "s")
    for name in ("rank.is_prime", "rank.tau", "rank.tau_prime", "rank.tau_prime_power",
                 "rank.nu_in_u", "rank.tau_min_divisor_oracle"):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    strips = raw.get("strips", [])
    cand = sum(c for _, c in strips)
    accepted = sum(sum(factor(ratio).values()) for ratio, _ in strips)
    m["rank.strip.candidates"] = (cand, "count")
    m["rank.strip.accept_ratio"] = (accepted / cand if cand else 0.0, "ratio")
    put("lucas_core.uv_mod", "lucas_core.uv_mod")
    m["lucas_core.uv_mod.ladder_steps"] = (raw.get("ladder_steps", 0), "count")
    put("lucas_core.exact", "lucas_core.exact")
    m["lucas_core.exact.steps"] = (raw.get("exact_steps", 0), "count")
    put("closed_form", "closed_form.")
    put("gcd_identities", "gcd_identities.")
    put("valuation", "valuation.")
    sweep_self = self_s.get("verifier.sweep", 0.0)
    sweep_wall = raw.get("wall_s", {}).get("verifier.sweep", 0.0)
    m["verifier.sweep.self_s"] = (sweep_self, "s")
    m["verifier.cells_scan_checked"] = (raw.get("cells_scan_checked", 0), "count")
    m["verifier.scan_share"] = (scan_self / sweep_wall if sweep_wall else 0.0, "ratio")
    return m


def _main(argv: list) -> int:
    out, sep, cli_argv = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: spans.py OUT.json -- <lucas-rank arguments>")
    from lucas_rank import cli

    tracer = Tracer()
    try:
        with tracer:
            return cli.run(cli_argv)
    finally:
        sys.set_int_max_str_digits(0)
        with open(out, "w") as fh:
            json.dump(tracer.raw(), fh)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
