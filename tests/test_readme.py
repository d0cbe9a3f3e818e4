"""The README's "Command line" section runs and names the forms the parsers
read, and its "Output formats" section names the files `run` and `sweep`
write: every command line exits 0, every problem and method form appears, and
the documented `summary.json` fields and `trace.csv` and `sweep.csv` headers
are the written ones."""

import json
import re
import shlex
from pathlib import Path

import pytest

from fastgrad.bench import METHOD_FORMS, PROBLEM_FORMS, TRACE_HEADER
from fastgrad.cli import main
from fastgrad.grid import SWEEP_HEADER

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title):
    return README.read_text().split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def readme_commands():
    block = re.search(r"```\n(.*?)```", section("Command line"), re.DOTALL).group(1)
    joined = block.replace("\\\n", " ")
    return [shlex.split(line) for line in joined.splitlines() if line.strip()]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[1])
def test_readme_command_exits_zero(argv, tmp_path):
    assert argv[0] == "fastgrad"
    args = argv[1:]
    out = args.index("--out") + 1
    args[out] = str(tmp_path / args[out])
    assert main(args) == 0


@pytest.mark.parametrize("form", [*PROBLEM_FORMS.split(" | "), *METHOD_FORMS.split(" | ")])
def test_documented_forms_are_the_parsed_ones(form):
    # the CLI help and the unknown-label errors print these same forms
    assert f"`{form}`" in section("Command line")


def test_documented_summary_fields_are_the_written_ones(tmp_path, capsys):
    assert main([
        "run", "--problem", "quadratic:1000,0.1", "--method", "acgm", "--l0", "1000",
        "--eps-rel", "1e-6", "--out", str(tmp_path),
    ]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "summary.json").read_text())
    bullet = re.search(r"^- `summary\.json` with (.*?)\n\n", section("Output formats"), re.DOTALL | re.MULTILINE).group(1)
    assert f"`schema` (`{summary['schema']}`)" in bullet
    fields = [name for name in re.findall(r"`([^`]+)`", bullet) if name != summary["schema"]]
    assert sorted(fields) == sorted(summary)


def test_documented_trace_header_is_the_written_one():
    header = re.search(r"^- `trace\.csv` with header\s+`([^`]+)`", section("Output formats"), re.MULTILINE).group(1)
    assert tuple(header.split(",")) == TRACE_HEADER


def test_documented_sweep_header_is_the_written_one():
    header = re.search(r"^`sweep` writes `sweep\.csv` with header\s+`([^`]+)`", section("Output formats"), re.MULTILINE).group(1)
    assert tuple(header.split(",")) == SWEEP_HEADER
