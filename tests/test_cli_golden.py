"""Replay the golden CLI corpus: stdout, stderr, exit code and CSV bytes.

The corpus (tests/golden/cli.json) is regenerated by
tests/golden/capture.py, which also holds the argv list.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_GOLDEN_DIR = Path(__file__).with_name("golden")
_spec = importlib.util.spec_from_file_location("golden_capture", _GOLDEN_DIR / "capture.py")
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)

GOLDEN = json.loads(capture.GOLDEN.read_text())
CASES = GOLDEN["cases"]


def test_corpus_matches_capture_list():
    assert [case["argv"] for case in CASES] == capture.CORPUS


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) or "<none>" for c in CASES])
def test_cli_output_is_byte_identical(case, tmp_path, monkeypatch):
    if "--help" in case["argv"] and GOLDEN["python"] != "%d.%d" % sys.version_info[:2]:
        pytest.skip(f"argparse help layout was captured on Python {GOLDEN['python']}")
    monkeypatch.setenv("COLUMNS", capture.COLUMNS)
    monkeypatch.delenv("LUCAS_RANK_JOBS", raising=False)
    csv_path = str(tmp_path / "cells.csv") if "csv" in case else None
    got = capture.replay(case["argv"], csv_path)
    want = {k: v for k, v in case.items() if k != "argv"}
    assert got == want
