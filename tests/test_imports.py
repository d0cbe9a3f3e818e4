"""No module of the package imports a name it never uses, and serial commands
never import the process pool that parallel sweeps use.

The unused-import check parses each source file with ast, so it needs no linter.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fastgrad"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in source that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c as d, e\nprint(np.pi, d)\n"
    assert unused_imports(source) == ["e", "os"]


# __init__.py imports names to re-export them
@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


POOL_MODULES = ("multiprocessing", "concurrent.futures")

# run and a serial sweep must not pay for the process pool's imports; the
# L-axis sweep at the end, on two CPUs, shows that the check can see them
SERIAL_THEN_PARALLEL = """
import sys
from fastgrad import bench
from fastgrad.cli import main

out = sys.argv[1]
common = ["--problem", "quadratic:100,1", "--method", "acgm", "--l0", "100", "--eps-rel", "1e-5"]
assert main(["run", *common, "--out", out + "/run"]) == 0
assert main(["sweep", *common, "--axis", "mu0", "--values", "1,10", "--out", out + "/mu0"]) == 0
print(*(name in sys.modules for name in {modules!r}))
bench._usable_cpus = lambda: 2
assert main(["sweep", *common, "--axis", "L", "--values", "100,400", "--out", out + "/L"]) == 0
print(*(name in sys.modules for name in {modules!r}))
"""


def test_serial_commands_import_no_process_pool(tmp_path):
    script = SERIAL_THEN_PARALLEL.format(modules=POOL_MODULES)
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    serial, parallel = (line for line in done.stdout.splitlines() if not line.startswith("converged"))
    assert serial == "False False"
    assert parallel == "True True"
