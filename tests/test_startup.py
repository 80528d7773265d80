"""What a CLI call imports: each command loads only the modules it runs.

No command loads a process pool, the CSV writer loads only where it
runs, no record needs `dataclasses` (and with it `inspect`), and
`verifier` and `closed_form` load only for the `formula` and `verify`
commands.  The scan's product of the primes from 1000 to 10^4 is built
on first use, not at import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
DEFERRED = ("concurrent.futures", "multiprocessing", "csv")
NOT_FOR_THE_CLI = ("dataclasses", "inspect", "lucas_rank.verifier", "lucas_rank.closed_form")


def _fresh(code):
    """The stdout lines of `code`, run in a new interpreter that imports the package from src/."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()


def test_cli_import_leaves_pool_and_csv_unloaded():
    out = _fresh(
        "import sys, lucas_rank.cli\n"
        "print(lucas_rank.cli.__file__)\n"
        f"print(sorted(set({DEFERRED!r}) & set(sys.modules)))\n"
    )
    assert Path(out[0]).resolve().parent == SRC / "lucas_rank"
    assert out[1] == "[]"


def test_cli_import_leaves_dataclasses_and_the_verifier_unloaded():
    out = _fresh(
        "import sys, lucas_rank.cli\n"
        f"print(sorted(set({NOT_FOR_THE_CLI!r}) & set(sys.modules)))\n"
    )
    assert out == ["[]"]


def test_scan_split_product_is_built_on_first_use():
    # the CLI import loads rank.py, so its 12,898-bit product of the primes from 1000 to
    # 10^4 waits for the first scan with a cap above 512 whose cofactor after the primes
    # below 1000 is at least 10^6: here 1009 * 1000033, from m = 2 * 1009 * 1000033
    out = _fresh(
        "from lucas_rank import cli, rank\n"
        "print(rank._split_product.cache_info().currsize)\n"
        "assert cli.run(['tau-scan', '--m', '2018066594', '--cap', '147546']) == 0\n"
        "print(rank._split_product.cache_info().currsize)\n"
    )
    assert out == ["0", "147546", "1"]


@pytest.mark.parametrize("argv,loads_verifier", [
    (["seq", "u", "--n", "5"], False),
    (["tau", "--m", "77"], False),
    (["formula", "triple", "--n", "5", "--p", "3"], True),
], ids=["seq", "tau", "formula"])
def test_only_formula_and_verify_load_the_verifier(argv, loads_verifier):
    out = _fresh(
        "import sys\n"
        "from lucas_rank import cli\n"
        f"assert cli.run({argv!r}) == 0\n"
        "print('lucas_rank.verifier' in sys.modules)\n"
    )
    assert out[-1] == str(loads_verifier)


def test_lazy_package_binds_every_public_name():
    out = _fresh(
        "import lucas_rank\n"
        "print(lucas_rank.rank.__name__)\n"
        "names = {}\n"
        "exec('from lucas_rank import *', names)\n"
        "print(sorted(set(lucas_rank.__all__) - set(names)))\n"
    )
    assert out == ["lucas_rank.rank", "[]"]
