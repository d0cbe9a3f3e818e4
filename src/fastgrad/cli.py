"""Command-line interface: run / sweep / compare.

Exit codes: 0 success, 1 invalid specification, 2 budget exhausted before
reaching the target, 3 oracle abort (non-finite values, runaway smoothness
estimate, divergence).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .bench import (
    START_KINDS,
    SWEEP_AXES,
    ExperimentSpec,
    LogRegCsvSpec,
    LogRegSpec,
    MethodSpec,
    QuadraticSpec,
    StartSpec,
    SweepSpec,
    compare,
    run_experiment,
    run_sweep,
)
from .core import DEFAULT_MAX_GRAD_CALLS
from .drivers import SolverConfig


class _Parser(argparse.ArgumentParser):
    # invalid flags are an invalid spec: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def parse_problem(text: str):
    name, _, payload = text.partition(":")
    try:
        if name == "quadratic":
            diag = tuple(float(part) for part in payload.split(","))
            return QuadraticSpec(diag=diag)
        if name == "logreg":
            n, m, reg, seed = payload.split(",")
            return LogRegSpec(int(n), int(m), float(reg), int(seed))
        if name == "logreg_csv":
            path, reg = payload.rsplit(",", 1)
            return LogRegCsvSpec(path, float(reg))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"cannot parse problem {text!r}: {exc}") from None
    raise ValueError(
        f"unknown problem {name!r}; expected quadratic:<diag,...>, "
        "logreg:<n,m,reg,seed> or logreg_csv:<path,reg>"
    )


def parse_method(text: str) -> MethodSpec:
    name, _, payload = text.partition(":")
    try:
        if name == "ogmg":
            return MethodSpec(name="ogmg", n=int(payload))
        if name == "ogmg_repeated":
            L, mu = payload.split(",")
            return MethodSpec(name="ogmg_repeated", L=float(L), mu=float(mu))
        if name in ("acgm", "algm", "ugm"):
            if payload:
                raise ValueError(f"method {name} takes no payload")
            return MethodSpec(name=name)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"cannot parse method {text!r}: {exc}") from None
    raise ValueError(
        f"unknown method {name!r}; expected ogmg:<n>, ogmg_repeated:<L,mu>, "
        "acgm, algm or ugm"
    )


def _config(args, method: MethodSpec) -> tuple[SolverConfig, Optional[float]]:
    if args.eps is None and args.eps_rel is None:
        raise ValueError("one of --eps or --eps-rel is required")
    if args.eps is not None and args.eps_rel is not None:
        raise ValueError("--eps and --eps-rel are mutually exclusive")
    l0 = args.l0
    if l0 is None:
        # ogmg and acgm trust L0 as the true smoothness constant; the others adapt it
        if method.name in ("ogmg", "acgm"):
            raise ValueError(f"method {method.name} requires an explicit --l0")
        l0 = 1.0
    cfg = SolverConfig(
        epsilon=args.eps if args.eps is not None else 1.0,  # replaced when eps_rel is set
        L0=l0,
        mu0=args.mu0,
    )
    return cfg, args.eps_rel


def _experiment(args) -> ExperimentSpec:
    method = parse_method(args.method)
    cfg, eps_rel = _config(args, method)
    return ExperimentSpec(
        problem=parse_problem(args.problem),
        method=method,
        config=cfg,
        x0=StartSpec(kind=args.x0, seed=args.seed),
        output_dir=Path(args.out),
        eps_rel=eps_rel,
        trace_values=getattr(args, "trace_values", False),
        max_grad_calls=args.max_grad_calls,
    )


def _add_common(sub: argparse.ArgumentParser, with_method: bool = True) -> None:
    sub.add_argument("--problem", required=True, help="quadratic:<diag,...> | logreg:<n,m,reg,seed> | logreg_csv:<path,reg>")
    if with_method:
        sub.add_argument("--method", required=True, help="ogmg:<n> | ogmg_repeated:<L,mu> | acgm | algm | ugm")
    sub.add_argument("--eps", type=float, default=None, help="absolute gradient-norm target")
    sub.add_argument("--eps-rel", type=float, default=None, dest="eps_rel", help="target as a fraction of the start gradient norm")
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
    run_p.add_argument(
        "--trace-values",
        action="store_true",
        dest="trace_values",
        help="record f at every iterate (ogmg only; adds value evaluations)",
    )

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
        if key not in ("l0", "mu0") or not value:
            raise ValueError(f"bad compare spec field {part!r} (expected l0= or mu0=)")
        overrides[key] = float(value)
    ns = argparse.Namespace(**vars(args))
    ns.method = parts[0]
    ns.l0 = overrides.get("l0", args.l0)
    ns.mu0 = overrides.get("mu0", args.mu0)
    return _experiment(ns)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1

    try:
        if args.command == "run":
            result, trace_path = run_experiment(_experiment(args))
            summary_line(result.converged, trace_path)
            return 0 if result.converged else 2
        if args.command == "sweep":
            if args.mu0 is not None:
                raise ValueError("sweep sets mu0 per grid point; sweep it with --axis mu0")
            values = tuple(float(v) for v in args.values.split(","))
            sweep = SweepSpec(
                base=_experiment(args), axis=args.axis, values=values, repetitions=args.reps
            )
            rows, path = run_sweep(sweep)
            ok = all(row["converged"] for row in rows)
            summary_line(ok, path)
            return 0 if ok else 2
        if args.command == "compare":
            specs = [_compare_spec(text, args) for text in args.spec]
            results, path = compare(specs)
            ok = all(res.converged for res in results.values())
            summary_line(ok, path)
            return 0 if ok else 2
        raise ValueError(f"unknown command {args.command!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3


def summary_line(ok: bool, path) -> None:
    status = "converged" if ok else "budget exhausted"
    print(f"{status}; results in {path}")


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
