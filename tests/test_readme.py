"""Every command line in the README's "Command line" section runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from fastgrad.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    joined = block.replace("\\\n", " ")
    return [shlex.split(line) for line in joined.splitlines() if line.strip()]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[1])
def test_readme_command_exits_zero(argv, tmp_path):
    assert argv[0] == "fastgrad"
    args = argv[1:]
    out = args.index("--out") + 1
    args[out] = str(tmp_path / args[out])
    assert main(args) == 0
