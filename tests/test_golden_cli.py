"""Golden CLI bytes: every command's exit code, stdout and stderr, in process.

The expected values live in ``golden_cli.json`` next to this file, keyed by
the command line.  After a deliberate output change, rewrite the file with
``PYTHONPATH=src python tests/test_golden_cli.py`` and review its diff.
"""

import io
import json
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import arctangr.cli as cli

GOLDEN = Path(__file__).with_name("golden_cli.json")

INS = "--data embedded:insurance"
_BY_FORMAT = [
    f"describe {INS}",
    *(f"fit {INS} --model {m}" for m in ("agr", "gaussian", "rayleigh", "laplace")),
    f"compare {INS}",
    "risk --omega 0.02 --psi 0.005 --alphas 0.609,0.75,0.9,0.99",
    f"risk {INS}",
    f"risk {INS} --empirical --alphas 0.75,0.9,0.95",
    "risk --omega 0.02 --psi 0.005 --alphas 0.9,0.99 --mc-samples 200000 --seed 3",
]
COMMANDS = (
    [f"{c} --format {f}" for c in _BY_FORMAT for f in ("table", "csv", "json")]
    + [f"plotdata {INS}{b} --format {f}" for b in ("", " --bins 12") for f in ("table", "json")]
    + [
        "risk --omega 0.02 --alphas 0.8",  # unpaired --omega: exit 3
        "fit --data /no/such/file.csv",  # missing file: exit 3
        "risk --omega 1e308 --psi 1e308 --alphas 0.99",  # VaR overflows: exit 3
        "risk --omega 0.02 --psi 0.005 --alphas nan",  # NaN level: exit 3
        "risk --omega 0.02 --psi 0.005 --alphas 0.9 --mc-samples -5",  # exit 3
        f"plotdata {INS} --bins 0",  # no bins: exit 3
        "risk --omega 0 --psi 1 --alphas 0.99 --seed -1 --mc-samples 10",  # exit 3
        f"describe {INS} --out /no/such/dir/x.txt",  # unwritable --out: exit 3
    ]
)


def run(command):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(shlex.split(command))
    return [code, out.getvalue(), err.getvalue()]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_bytes_match_golden(golden, command):
    assert run(command) == golden[command]


if __name__ == "__main__":
    entries = {c: run(c) for c in COMMANDS}
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} commands to {GOLDEN}")
