"""Command-line interface: run / sweep / compare.

Exit codes: 0 success, 1 invalid specification or an instance too large to
allocate, 2 budget exhausted before reaching the target, 3 oracle abort
(non-finite values, runaway smoothness estimate (ogmg._doubled), an accepted
step that leaves the iterate unchanged (ogmg._decrease_step), a pass that
returns its start point, divergence, a sweep worker that dies or sends no
outcome, sweep rows that do not carry each point once).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .bench import (
    METHOD_FORMS,
    METHODS,
    PROBLEM_FORMS,
    START_KINDS,
    ExperimentSpec,
    StartSpec,
    parse_method,
    parse_problem,
    run_experiment,
)
from .core import DEFAULT_MAX_GRAD_CALLS
from .drivers import SolverConfig
from .grid import SWEEP_AXES, SweepSpec, compare, run_sweep


class _Parser(argparse.ArgumentParser):
    # invalid flags are an invalid spec: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _config(args, method: str) -> SolverConfig:
    # a method that trusts L0 gets no default for it; the others adapt an estimate that starts at 1.0
    row = METHODS[method]
    if args.mu0 is not None and not row.reads_mu0:
        readers = ", ".join(name for name, other in METHODS.items() if other.reads_mu0)
        raise ValueError(f"method {method} never reads mu0; give --mu0 or mu0= only to {readers}")
    if args.l0 is None and row.trusts_L0:
        raise ValueError(f"method {method} requires an explicit --l0")
    l0 = 1.0 if args.l0 is None else args.l0
    eps = 1.0 if args.eps is None else args.eps  # replaced when eps_rel is set
    return SolverConfig(epsilon=eps, L0=l0, mu0=args.mu0)


def _experiment(args) -> ExperimentSpec:
    method = parse_method(args.method)
    return ExperimentSpec(
        problem=parse_problem(args.problem),
        method=method,
        config=_config(args, method.name),
        x0=StartSpec(kind=args.x0, seed=args.seed),
        output_dir=Path(args.out),
        eps_rel=args.eps_rel,
        max_grad_calls=args.max_grad_calls,
    )


def _add_common(sub: argparse.ArgumentParser, with_method: bool = True) -> None:
    sub.add_argument("--problem", required=True, help=PROBLEM_FORMS)
    if with_method:
        sub.add_argument("--method", required=True, help=METHOD_FORMS)
    target = sub.add_mutually_exclusive_group(required=True)
    target.add_argument("--eps", type=float, default=None, help="absolute gradient-norm target")
    target.add_argument("--eps-rel", type=float, default=None, dest="eps_rel", help="target as a fraction of the start gradient norm")
    sub.add_argument("--mu0", type=float, default=None, help="initial strong-convexity estimate (default: L0)")
    sub.add_argument("--l0", type=float, default=None, help="smoothness constant / initial estimate")
    sub.add_argument("--x0", choices=START_KINDS, default="gaussian")
    sub.add_argument("--seed", type=int, default=0, help="seed for the gaussian start point")
    sub.add_argument("--max-grad-calls", type=int, default=DEFAULT_MAX_GRAD_CALLS, dest="max_grad_calls", help="hard gradient cap per solve")
    sub.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fastgrad", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="execute one configured experiment")
    _add_common(run_p)

    sweep_p = subs.add_parser("sweep", help="run a one-axis grid of experiments")
    _add_common(sweep_p)
    sweep_p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep_p.add_argument("--values", required=True, help="comma-separated ascending positive values")
    sweep_p.add_argument("--reps", type=int, default=1)

    cmp_p = subs.add_parser("compare", help="overlay several methods on one problem")
    _add_common(cmp_p, with_method=False)
    cmp_p.add_argument(
        "--spec",
        action="append",
        required=True,
        metavar="METHOD[;l0=..][;mu0=..]",
        help="one method per flag, e.g. 'acgm;l0=1000' (repeatable)",
    )
    return parser


def _compare_spec(text: str, args) -> ExperimentSpec:
    parts = text.split(";")
    overrides = {}
    for part in parts[1:]:
        key, _, value = part.partition("=")
        if key not in ("l0", "mu0") or not value or key in overrides:
            raise ValueError(f"bad compare spec field {part!r} (expected l0= or mu0=, each at most once)")
        overrides[key] = float(value)
    ns = argparse.Namespace(**vars(args))
    ns.method = parts[0]
    ns.l0 = overrides.get("l0", args.l0)
    ns.mu0 = overrides.get("mu0", args.mu0)
    return _experiment(ns)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1

    try:
        if args.command == "run":
            result, path = run_experiment(_experiment(args))
            ok = result.converged
        elif args.command == "sweep":
            values = tuple(float(v) for v in args.values.split(","))
            rows, path = run_sweep(SweepSpec(_experiment(args), args.axis, values, args.reps))
            ok = all(row["converged"] for row in rows)
        else:  # compare, the last command
            results, path = compare([_compare_spec(text, args) for text in args.spec])
            ok = all(res.converged for res in results.values())
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3
    print(f"{'converged' if ok else 'budget exhausted'}; results in {path}")
    return 0 if ok else 2


def entry() -> None:
    raise SystemExit(main())
