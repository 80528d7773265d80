"""Capture the golden CLI corpus replayed by tests/test_cli_golden.py.

Each argv below is run in-process through `lucas_rank.cli.run`; its
stdout, stderr and exit code (and, for `--csv`, the bytes written) are
stored in cli.json next to this file.  Regenerate from whatever
`lucas_rank` is importable, for example:

    PYTHONPATH=src python3 tests/golden/capture.py

Only regenerate when a change to the CLI's output is intended.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).with_name("cli.json")

# argparse wraps help text to the terminal width; pin it.
COLUMNS = "80"

# "{csv}" in an argv is replaced by a temporary file path whose bytes
# are recorded after the run.
CORPUS = [
    # every --help
    ["--help"],
    ["seq", "--help"], ["seq", "u", "--help"], ["seq", "v", "--help"],
    ["seq", "mod", "--help"],
    ["val", "--help"], ["val", "u", "--help"], ["val", "v", "--help"],
    ["val", "int", "--help"],
    ["gcd", "--help"], ["gcd", "uu", "--help"], ["gcd", "vv", "--help"],
    ["gcd", "uv", "--help"],
    ["divides", "--help"], ["divides", "uu", "--help"], ["divides", "vu", "--help"],
    ["tau", "--help"], ["tau-scan", "--help"],
    ["formula", "--help"], ["formula", "um-vn", "--help"],
    ["formula", "um-un", "--help"], ["formula", "vm-vn", "--help"],
    ["formula", "triple", "--help"],
    ["verify", "--help"], ["verify", "sweep", "--help"],
    ["verify", "remark", "--help"], ["verify", "fixtures", "--help"],
    # every subcommand in text and JSON
    ["seq", "u", "--n", "10"],
    ["seq", "u", "--n", "10", "--format", "json"],
    ["seq", "u", "--a", "-3", "--b", "-5", "--n", "6"],
    ["seq", "v", "--a", "2", "--b", "1", "--n", "5"],
    ["seq", "v", "--a", "2", "--b", "1", "--n", "5", "--format", "json"],
    ["seq", "mod", "--n", "10", "--modulus", "100"],
    ["seq", "mod", "--n", str(2 ** 62), "--modulus", "1000003", "--format", "json"],
    ["val", "u", "--p", "2", "--n", "12"],
    ["val", "u", "--p", "2", "--n", "12", "--format", "json"],
    ["val", "u", "--a", "4", "--b", "-3", "--p", "7", "--n", "21", "--format", "json"],
    ["val", "v", "--p", "3", "--n", "6"],
    ["val", "v", "--p", "2", "--n", "9", "--format", "json"],
    ["val", "int", "--p", "3", "--x", "-54"],
    ["val", "int", "--p", "3", "--x", "54", "--format", "json"],
    ["gcd", "uu", "--m", "9", "--n", "15"],
    ["gcd", "uu", "--m", "9", "--n", "15", "--format", "json"],
    ["gcd", "vv", "--m", "9", "--n", "15"],
    ["gcd", "vv", "--m", "6", "--n", "9", "--format", "json"],
    ["gcd", "uv", "--m", "12", "--n", "6"],
    ["gcd", "uv", "--a", "2", "--m", "6", "--n", "9", "--format", "json"],
    ["divides", "uu", "--n", "3", "--m", "6"],
    ["divides", "uu", "--n", "4", "--m", "6", "--format", "json"],
    ["divides", "vu", "--n", "3", "--m", "6"],
    ["divides", "vu", "--n", "3", "--m", "9", "--format", "json"],
    ["tau", "--m", "39168"],
    ["tau", "--a", "4", "--b", "-3", "--m", "77", "--format", "json"],
    ["tau", "--m", "1"],
    ["tau-scan", "--m", "39168"],
    ["tau-scan", "--a", "3", "--b", "2", "--m", "91", "--format", "json"],
    ["formula", "um-vn", "--m", "6", "--n", "9"],
    ["formula", "um-vn", "--m", "12", "--n", "6", "--format", "json"],
    ["formula", "um-un", "--m", "6", "--n", "9"],
    ["formula", "um-un", "--m", "6", "--n", "9", "--format", "json"],
    ["formula", "vm-vn", "--m", "6", "--n", "9"],
    ["formula", "vm-vn", "--a", "2", "--m", "4", "--n", "6", "--format", "json"],
    ["formula", "triple", "--n", "50", "--p", "5"],
    ["formula", "triple", "--n", "4", "--p", "3", "--format", "json"],
    ["verify", "sweep", "--theorem", "um-vn", "--m-max", "6", "--n-max", "6"],
    ["verify", "sweep", "--theorem", "um-un", "--m-max", "5", "--n-max", "5",
     "--format", "json"],
    ["verify", "sweep", "--theorem", "vm-vn", "--m-max", "12", "--n-max", "12"],
    ["verify", "sweep", "--theorem", "vm-vn", "--a", "3", "--b", "2",
     "--m-max", "4", "--n-max", "5", "--format", "json", "--seed", "3"],
    ["verify", "sweep", "--theorem", "triple", "--n-max", "8", "--primes", "3,5"],
    ["verify", "sweep", "--theorem", "triple", "--n-max", "4", "--primes", "3",
     "--format", "json"],
    ["verify", "sweep", "--theorem", "um-un", "--m-max", "4", "--n-max", "4",
     "--csv", "{csv}"],
    ["verify", "remark"],
    ["verify", "remark", "--format", "json"],
    ["verify", "fixtures"],
    ["verify", "fixtures", "--format", "json"],
    # partial sweep bounds: unset bounds keep the theorem's defaults
    ["verify", "sweep", "--theorem", "um-vn", "--m-min", "19"],
    ["verify", "sweep", "--theorem", "vm-vn", "--m-max", "4", "--n-max", "4",
     "--primes", "3"],
    ["verify", "sweep", "--theorem", "triple", "--m-max", "4", "--n-min", "56",
     "--primes", "3"],
    ["verify", "sweep", "--theorem", "triple", "--m-min", "7", "--n-max", "3",
     "--format", "json"],
    # usage errors (exit 64)
    [],
    ["frobnicate"],
    ["seq"],
    ["seq", "u"],
    ["seq", "u", "--n", "x"],
    ["seq", "u", "--n", "-1"],
    ["seq", "mod", "--n", "3", "--modulus", "0"],
    ["tau", "--m", "0"],
    ["val", "int", "--p", "3"],
    ["formula", "triple", "--n", "5"],
    ["verify", "sweep", "--theorem", "nope"],
    ["verify", "sweep", "--theorem", "triple", "--primes", "3,x"],
    ["verify", "sweep", "--theorem", "um-un", "--oracle", "guess"],
    ["verify", "sweep", "--theorem", "um-un", "--scan-below", "0"],
    ["seq", "u", "--n", "3", "--format", "xml"],
    # domain errors (exit 1)
    ["formula", "triple", "--n", "50", "--p", "9"],
    ["formula", "triple", "--n", "5", "--p", "2"],
    ["formula", "um-un", "--m", "2", "--n", "5"],
    ["formula", "vm-vn", "--a", "1", "--b", "-2", "--m", "3", "--n", "4"],
    ["tau", "--b", "2", "--m", "6"],
    ["tau", "--m", str(2 ** 97)],
    ["tau-scan", "--m", "100", "--cap", "5"],
    ["seq", "u", "--a", "2", "--b", "4", "--n", "3"],
    ["seq", "u", "--a", "2", "--b", "-1", "--n", "3"],
    ["seq", "v", "--n", "1000001"],
    ["val", "u", "--p", "4", "--n", "3"],
    ["val", "v", "--b", "3", "--p", "3", "--n", "3"],
    ["val", "int", "--p", "3", "--x", "0"],
    ["gcd", "uu", "--m", "2", "--n", "5"],
    ["gcd", "vv", "--a", "1", "--b", "-2", "--m", "3", "--n", "4"],
    ["divides", "vu", "--a", "-3", "--b", "-5", "--n", "4", "--m", "8"],
    ["verify", "sweep", "--theorem", "um-un", "--a", "1", "--b", "-2"],
    ["verify", "sweep", "--theorem", "triple", "--n-max", "2", "--primes", "9"],
]


def replay(argv: list, csv_path: str | None = None) -> dict:
    """Run one argv in-process; return its exit code, output and CSV bytes."""
    from lucas_rank import cli

    argv = [csv_path if part == "{csv}" else part for part in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    result = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if csv_path is not None:
        result["csv"] = Path(csv_path).read_bytes().decode()
    return result


def capture() -> dict:
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(CORPUS):
            csv_path = os.path.join(tmp, f"{i}.csv") if "{csv}" in argv else None
            cases.append({"argv": argv, **replay(argv, csv_path)})
    return {"python": "%d.%d" % sys.version_info[:2], "cases": cases}


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    GOLDEN.write_text(json.dumps(capture(), indent=1) + "\n")
    print(f"wrote {len(CORPUS)} cases to {GOLDEN}")
