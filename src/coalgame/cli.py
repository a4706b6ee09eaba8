"""Command-line interface.

Subcommands: ``partitions`` (enumerate and count), ``validate`` (mechanism
axioms and nesting), ``solve`` (equilibria of one game), ``family``
(cross-K report), ``examples`` (emit the bundled spec files).

Exit codes: 0 success, 1 failed checks or unexpected error, 2 bad
input/spec, 3 budget exceeded, 4 internal inconsistency.
"""

from __future__ import annotations

import argparse
import json  # noqa: F401 -- bench/trace_child.py replaces cli.json to time dumps
import sys
from pathlib import Path

from .builtin_games import BUNDLED_SPECS, bundled_spec_text
from .errors import (
    BudgetExceededError,
    CoalgameError,
    GameSpecError,
    InternalInconsistencyError,
    InvalidParameterError,
)
from .families import build_family
from .gamespec import build_game, parse_spec
from .partitions import count_partitions, enumerate_partitions
from .reports import (
    SolveOptions,
    build_solve_report,
    build_validate_report,
    equilibria_across_k,
)
from .solver import DEFAULT_TOL

EXIT_OK = 0
EXIT_FAILED_CHECKS = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_INCONSISTENT = 4


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=("weak", "strict"), default="weak")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--max-support", type=int, default=None)
    parser.add_argument("--budget", type=int, default=None)
    parser.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="override the spec's bonus magnitude (requires an epsilon stanza)",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coalgame",
        description="Engine and equilibrium solver for coalition-structure "
        "formation games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partitions", help="enumerate partitions with block size <= K")
    p.add_argument("n", type=int)
    p.add_argument("K", type=int)

    p = sub.add_parser("validate", help="mechanism axioms and nesting checks")
    p.add_argument("spec", type=Path)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("solve", help="equilibria of one game")
    p.add_argument("spec", type=Path)
    p.add_argument(
        "--K",
        type=int,
        default=None,
        help="max coalition size (default: the spec's largest K)",
    )
    _add_solver_flags(p)

    p = sub.add_parser("family", help="cross-K equilibrium report")
    p.add_argument("spec", type=Path)
    p.add_argument("--k-min", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    _add_solver_flags(p)

    p = sub.add_parser("examples", help="emit bundled spec files")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--out", type=Path, default=None, help="write files here")

    return parser


def _options_from(args: argparse.Namespace) -> SolveOptions:
    return SolveOptions(
        mode=args.mode,
        tol=args.tol,
        max_support=args.max_support,
        budget=args.budget,
    )


def _read_spec(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise GameSpecError(f"cannot read spec file: {exc}", location=str(path))
    return parse_spec(text)


def _emit(args: argparse.Namespace, report, out) -> None:
    """Print ``report`` as text or as its ``to_json``: one line, the bytes
    ``json.dumps`` writes for the report's dict."""
    if args.format == "json":
        print(report.to_json(), file=out)
    else:
        print(report.render_text(), file=out)


def _cmd_partitions(args: argparse.Namespace, out) -> int:
    family = enumerate_partitions(args.n, args.K)
    for partition in family:
        print(partition.key, file=out)
    print(f"count={count_partitions(args.n, args.K)}", file=out)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace, out) -> int:
    spec = _read_spec(args.spec)
    family = build_family(spec)
    report = build_validate_report(family, budget=args.budget)
    _emit(args, report, out)
    return EXIT_OK if report.ok else EXIT_FAILED_CHECKS


def _cmd_solve(args: argparse.Namespace, out) -> int:
    spec = _read_spec(args.spec)
    game = build_game(spec, args.K, epsilon_bonus=args.epsilon)
    report = build_solve_report(game, _options_from(args))
    _emit(args, report, out)
    return EXIT_OK


def _cmd_family(args: argparse.Namespace, out) -> int:
    spec = _read_spec(args.spec)
    k_range = None
    if args.k_min is not None or args.k_max is not None:
        lo = args.k_min if args.k_min is not None else spec.k_min
        hi = args.k_max if args.k_max is not None else spec.k_max
        k_range = (lo, hi)
    family = build_family(spec, k_range, epsilon_bonus=args.epsilon)
    report = equilibria_across_k(family, _options_from(args))
    _emit(args, report, out)
    return EXIT_OK


def _cmd_examples(args: argparse.Namespace, out) -> int:
    names = [args.name] if args.name else list(BUNDLED_SPECS)
    if args.out is not None:
        for name in names:
            text = bundled_spec_text(name)
            target = args.out / f"{name}.spec"
            try:
                args.out.mkdir(parents=True, exist_ok=True)
                target.write_text(text, encoding="utf-8")
            except OSError as exc:
                raise InvalidParameterError(f"cannot write {target}: {exc}") from None
            print(f"wrote {target}", file=out)
        return EXIT_OK
    if args.name:
        print(bundled_spec_text(args.name), end="", file=out)
    else:
        for name in names:
            print(name, file=out)
    return EXIT_OK


_COMMANDS = {
    "partitions": _cmd_partitions,
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "family": _cmd_family,
    "examples": _cmd_examples,
}


def run_cli(argv: list[str] | None = None, out=None, err=None) -> int:
    """Parse arguments, run one subcommand, and map errors to stable exit
    codes. ``out``/``err`` default to the real streams; tests can inject
    buffers."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, out)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_BUDGET
    except InternalInconsistencyError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INCONSISTENT
    except (GameSpecError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_BAD_INPUT
    except CoalgameError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_FAILED_CHECKS


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
