"""What a CLI call imports: the process pool and the CSV writer load only where they run."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DEFERRED = ("concurrent.futures", "multiprocessing", "csv")


def test_cli_import_leaves_pool_and_csv_unloaded():
    code = (
        "import sys, lucas_rank.cli\n"
        "print(lucas_rank.cli.__file__)\n"
        f"print(sorted(set({DEFERRED!r}) & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert Path(out[0]).resolve().parent == SRC / "lucas_rank"
    assert out[1] == "[]"
