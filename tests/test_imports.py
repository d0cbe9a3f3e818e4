"""No module of the package imports a name it never uses, every name the
scripts and tests import from the package is in its __all__, serial commands
never import the modules that parallel sweeps use, run never imports
logging, the commands run clean under python -X dev -W error, and every
exception the package defines survives the pickling that carries it out of
a worker.

The unused-import check parses each source file with ast, so it needs no linter;
it covers the scripts and the tests too.
"""

import ast
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fastgrad"


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
    "path",
    [
        *sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
        *sorted(ROOT.glob("scripts/*.py")),
        *sorted(ROOT.glob("tests/*.py")),
    ],
    ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}",
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_all_holds_every_name_scripts_and_tests_import_from_the_package():
    # __init__.py derives __all__ from its imports, so a name it stops binding drops out
    fastgrad = importlib.import_module("fastgrad")
    imported = {
        alias.name
        for path in [*ROOT.glob("scripts/*.py"), *ROOT.glob("tests/*.py")]
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "fastgrad"
        for alias in node.names
        if not (PACKAGE / f"{alias.name}.py").exists()  # a submodule, not a re-export
    }
    assert imported <= set(fastgrad.__all__)
    assert fastgrad.__all__ == sorted(fastgrad.__all__)


POOL_MODULES = ("multiprocessing", "concurrent.futures", "fcntl", "fastgrad.parallel")

# run and a serial sweep must not pay for the parallel sweep's imports; the
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


def run_serial_then_parallel(tmp_path, *python_flags):
    script = SERIAL_THEN_PARALLEL.format(modules=POOL_MODULES)
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    return subprocess.run(
        [sys.executable, *python_flags, "-c", script, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_serial_commands_import_no_process_pool(tmp_path):
    done = run_serial_then_parallel(tmp_path)
    assert done.returncode == 0, done.stderr
    serial, parallel = (line for line in done.stdout.splitlines() if not line.startswith("converged"))
    assert serial == "False False False False"
    assert parallel == "False False True True"


def test_commands_run_clean_in_dev_mode(tmp_path):
    # -X dev warns on unclosed files and pipes, and on a fork from a multi-threaded
    # process (Python >= 3.12); -W error makes each one an error, which a finalizer
    # only prints to stderr, so an empty stderr is part of the check
    done = run_serial_then_parallel(tmp_path, "-X", "dev", "-W", "error")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


# run must not pay for logging, which only a forced accept uses; the forced
# accept at the end shows that the check can see it load, and under which logger
RUN_THEN_FORCED_ACCEPT = """
import sys
import numpy as np
from fastgrad import CountingOracle, Objective, SolverConfig, acgm, drivers
from fastgrad.cli import main

argv = ["run", "--problem", "quadratic:100,1", "--method", "acgm", "--l0", "100", "--eps-rel", "1e-5"]
assert main([*argv, "--out", sys.argv[1]]) == 0
print("logging" in sys.modules)
drivers._MAX_RETRIES_PER_STEP = 1
c = np.array([3.0, 4.0])  # a constant gradient never halves, so every step is forced
oracle = CountingOracle(Objective(dim=2, value=lambda x: float(c @ x), gradient=lambda x: c))
oracle.max_grad_calls = 20
acgm(oracle, np.zeros(2), 1.0, SolverConfig(epsilon=1e-3, L0=1.0))
logging = sys.modules["logging"]
print(*(name for name, made in logging.Logger.manager.loggerDict.items() if isinstance(made, logging.Logger)))
"""


def test_run_never_loads_logging(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", RUN_THEN_FORCED_ACCEPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    after_run, loggers = (line for line in done.stdout.splitlines() if not line.startswith("converged"))
    assert after_run == "False"
    assert loggers == "fastgrad.drivers"
    assert "accepting the best point of this step" in done.stderr


# one sample per exception class defined in the package; a new class needs one here
EXCEPTION_SAMPLES = {
    "core.NonFiniteError": ("gradient is not finite",),
    "core.BudgetExhausted": ("no room for 3 gradients",),
    "drivers.DivergenceError": ("gradient norm grew 1e+12-fold",),
    "ogmg.RunawayLipschitzError": ("L doubled past 1e+300",),
    "ogmg.StalledIterate": ("a pass returned its start point", np.array([1.0, -2.5]), 2.69, 1e20, ": cause"),
}


def package_exceptions():
    # __init__ re-exports, and importing __main__ would run the command line
    modules = [importlib.import_module(f"fastgrad.{p.stem}") for p in sorted(PACKAGE.glob("[!_]*.py"))]
    return sorted(
        f"{module.__name__.removeprefix('fastgrad.')}.{name}"
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__
    )


@pytest.mark.parametrize("name", package_exceptions())
def test_exception_pickles_intact(name):
    # a sweep worker's failure reaches the caller pickled; one that cannot be
    # rebuilt breaks the pool instead of reporting the error
    assert name in EXCEPTION_SAMPLES, f"{name} has no sample in EXCEPTION_SAMPLES"
    module, _, cls = name.partition(".")
    exc = getattr(importlib.import_module(f"fastgrad.{module}"), cls)(*EXCEPTION_SAMPLES[name])
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is type(exc)
    assert str(copy) == str(exc)
    assert vars(copy).keys() == vars(exc).keys()
    for attr, value in vars(exc).items():
        assert np.array_equal(getattr(copy, attr), value)
