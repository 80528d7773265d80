"""The benchmark's span tracer still finds every layer a CLI call runs through.

`perfbench/spans.py` rebinds functions by module attribute, so a layer
that is imported under another name or captured before the rebinding
would silently drop out of the per-layer metrics.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lucas_rank import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


def test_tracer_counts_every_layer_of_a_cli_call(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    with spans.Tracer() as tracer:
        assert cli.run(["verify", "sweep", "--theorem", "um-un", "--m-max", "4",
                        "--n-max", "4"]) == 0
        assert cli.run(["gcd", "uu", "--m", "9", "--n", "15"]) == 0
    assert capsys.readouterr().out.endswith("\n2\n")  # gcd(U_9, U_15) = U_3
    calls = tracer.raw()["calls"]
    for name in ("verifier.sweep", "closed_form.tau_um_un", "lucas_core.exact.u",
                 "rank.tau_min_divisor_oracle", "rank.tau_scan", "gcd_identities.gcd_uu"):
        assert calls.get(name, 0) > 0, name


@pytest.mark.parametrize("argv,span", [
    (["seq", "u", "--n", "30"], "lucas_core.exact.u"),
    (["formula", "triple", "--n", "5", "--p", "3"], "closed_form.tau_triple"),
], ids=["seq", "formula"])
def test_tracer_counts_a_call_in_a_fresh_process(tmp_path, argv, span):
    """As `cli-calls` traces: a fresh process per call, loading only its command's modules."""
    out = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, str(PERFBENCH / "spans.py"), str(out), "--", *argv],
                   env=env, capture_output=True, check=True, timeout=60)
    assert json.loads(out.read_text())["calls"].get(span, 0) > 0
