"""Accelerated first-order convex optimization with adaptive restart drivers."""

from types import ModuleType as _ModuleType

from .core import (
    BudgetExhausted,
    CountingOracle,
    EventKind,
    NonFiniteError,
    Objective,
    RunTrace,
    TraceEvent,
    Vector,
    check_gradient,
    norm2,
)
from .drivers import (
    DivergenceError,
    DriverResult,
    SolverConfig,
    acgm,
    algm,
    ogmg_repeated,
    ugm,
)
from .ogmg import (
    OgmglOutcome,
    RunawayLipschitzError,
    Schedule,
    halving_budget,
    make_schedule,
    ogmg_run,
    ogmgl_run,
)
from .problems import (
    LogRegProblem,
    QuadraticProblem,
    gen_logreg,
    lipschitz_upper_bound,
    load_logreg_csv,
)
from .bench import (
    ExperimentSpec,
    LogRegCsvSpec,
    LogRegSpec,
    MethodSpec,
    QuadraticSpec,
    StartSpec,
    run_experiment,
)
from .grid import SweepSpec, compare, run_sweep
from .rng import SplitMix64

__version__ = "0.1.0"

# every public name bound above is API
__all__ = sorted(name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _ModuleType)))
