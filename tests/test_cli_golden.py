"""Every CLI command replayed against ``fixtures/cli_golden.json``: stdout,
stderr (the working directory read as ``<dir>``), the exit code and any
``--output`` file, compared byte for byte.

The cases are the README's CLI lines in table and JSON format on three small
inputs, plus a ``--spec`` JSON, an ``--output`` file, an ``--output`` into a
missing directory, a usage error, a missing parameter, an unreadable input,
commands given no quadrangle, a value column read by its header, ``check``
given a divergence, a non-finite cell in each of the three CSV forms and a
portfolio whose cutting planes run out of rounds.
Re-record the fixture, only where an output is meant to change, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import shlex
import sys

import pytest

from riskquad.cli import COMMANDS, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "cli_golden.json"

FILES = {
    "rv.csv": "value,prob\n-1,0.2\n0.5,0.3\n2,0.4\n3,0.1\n",
    "data.csv": "x1,x2,y\n0,1,1.1\n1,0,1.9\n2,1,4.2\n3,2,6.1\n1,3,3.8\n4,1,8.3\n2,2,5.0\n0,4,2.9\n",
    "scenarios.csv": "0.02,0.01,-0.01\n-0.03,0.02,0.01\n0.05,-0.01,0.00\n0.01,0.03,0.02\n-0.02,-0.02,0.04\n",
    "ids.csv": "id,value\n10,1\n20,2\n",
    "nan_rv.csv": "value,prob\n-1,0.5\nnan,0.5\n",
    "inf_data.csv": "x1,weight,y\n0,0.5,1.1\n1,inf,1.9\n",
    "inf_scenarios.csv": "0.02,0.01\n-inf,0.02\n",
}
OUTPUT = "report.json"


def readme_lines() -> list[list[str]]:
    """The argv of each ``riskquad`` line of the README's CLI block, without
    its ``--format``."""
    block = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        if line.startswith("riskquad "):
            argv = shlex.split(line.split("#", 1)[0])[1:]
            if "--format" in argv:
                i = argv.index("--format")
                del argv[i : i + 2]
            lines.append(argv)
    return lines


def cases() -> list[list[str]]:
    out = [argv + ["--format", fmt] for argv in readme_lines() for fmt in ("table", "json")]
    return out + [
        ["eval", "--spec", '{"family": "qsau", "params": {"eps": 0.4}}', "--input", "rv.csv"],
        ["eval", "--spec", '{"phi": "kl", "params": {"beta": 0.5}}', "--input", "rv.csv", "--format", "json"],
        ["eval", "--family", "quantile", "--alpha", "0.6", "--input", "rv.csv", "--format", "json", "--output", OUTPUT],
        ["eval", "--family", "quantile", "--alpha", "0.6", "--input", "rv.csv", "--output", "missing/report.txt"],
        ["eval", "--family", "nosuch", "--input", "rv.csv"],
        ["regress", "--model", "quantile", "--input", "data.csv"],
        ["eval", "--family", "mean_pl", "--input", "missing.csv"],
        ["eval", "--input", "rv.csv"],
        ["statistic", "--input", "rv.csv"],
        ["eval", "--family", "mean_pl", "--input", "ids.csv"],
        ["check", "--phi", "kl", "--beta", "0.5"],
        ["eval", "--family", "mean_pl", "--input", "nan_rv.csv"],
        ["regress", "--model", "quantile", "--alpha", "0.5", "--input", "inf_data.csv"],
        ["portfolio", "--input", "inf_scenarios.csv"],
        ["portfolio", "--family", "cvar2", "--alpha", "0.5", "--max-iter", "2", "--input", "scenarios.csv"],
    ]


def run(argv: list[str], workdir: pathlib.Path) -> dict:
    """``cli.main(argv)`` run in ``workdir`` on the inputs of ``FILES``."""
    for name, text in FILES.items():
        (workdir / name).write_text(text)
    (workdir / OUTPUT).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(cwd)
    record = {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue().replace(str(workdir), "<dir>")}
    if (workdir / OUTPUT).exists():
        record["output"] = (workdir / OUTPUT).read_text()
    return record


GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []


def test_golden_covers_the_readme_lines_and_every_command():
    assert [case["argv"] for case in GOLDEN] == cases()
    assert {case["argv"][0] for case in GOLDEN} == set(COMMANDS)


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"][:3]) + f" #{i}" for i, c in enumerate(GOLDEN)])
def test_cli_output_is_byte_identical_to_the_golden_record(case, tmp_path, monkeypatch):
    # the usage line wraps to the terminal width; the fixture was recorded at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    assert run(case["argv"], tmp_path) == case


if __name__ == "__main__":
    import tempfile

    os.environ["COLUMNS"] = "80"
    records = []
    for argv in cases():
        with tempfile.TemporaryDirectory() as tmp:
            records.append(run(argv, pathlib.Path(tmp)))
    FIXTURE.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} cases to {FIXTURE}", file=sys.stderr)
