"""Run one ``coalgame`` CLI command with a span around each layer's entry
points, as their callers see them.

    PYTHONPATH=src python3 bench/trace_child.py TRACE_OUT CLI_ARGS...

The CLI output goes to stdout as usual. When the command returns, the spans
(``[name, start, end, parent]``, parent ``-1`` for a root span) and the
counters are written to ``TRACE_OUT`` as JSON. Nothing in ``src`` changes:
the wrappers replace module attributes of the imported program.
"""

from __future__ import annotations

import json
import math
import sys
import time
from functools import cached_property, wraps

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, clock(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.stack.pop()
        self.spans[index][2] = clock()

    def add(self, counter: str, value: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(result, *args, **kwargs)`` updates
        counters once the call returned."""

        @wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced


class _ModuleProxy:
    """Stands in for a module inside one importer, overriding some names."""

    def __init__(self, module, **overrides) -> None:
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def support_combos(strategy_counts, max_support) -> int:
    total = 1
    for m in strategy_counts:
        cap = min(m, max_support) if max_support else m
        total *= sum(math.comb(m, s) for s in range(1, cap + 1))
    return total


def install(tracer: Tracer) -> None:
    """Wrap the program's layer entry points in spans. An entry point that
    is not there is skipped, so its metrics read zero."""
    from coalgame import cli, families, games, gamespec, reports, solver

    t = tracer

    def patch(owner, attr: str, name: str, after=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is not None:
            setattr(owner, attr, t.wrap(name, fn, after))

    def partitions_done(family, *args, **kwargs):
        t.add("partitions.count", len(family))

    def realized_done(index, game):
        t.add("games.profiles", game.profile_count)
        t.add("games.tensor_bytes", index.nbytes)

    def tensor_done(tensor, game):
        t.add("games.tensor_bytes", tensor.nbytes)

    def pure_done(results, *args, **kwargs):
        t.add("solver.pure_results", len(results))

    def support_done(results, game, max_support=None, *args, **kwargs):
        t.add("solver.support_results", len(results))
        t.add("solver.support_combos", support_combos(game.strategy_counts, max_support))

    def validate_done(check, *args, **kwargs):
        t.add("solver.validate_calls", 1)
        t.add("solver.validate_accepted", int(check.ok))

    def strict_done(check, *args, **kwargs):
        t.add("reports.strict_checks", 1)

    def root_done(sol, *args, **kwargs):
        t.add("solver.root_calls", 1)
        t.add("solver.root_failures", int(not sol.success))

    patch(cli, "parse_spec", "gamespec.parse")
    patch(cli, "build_game", "gamespec.build")
    patch(cli, "build_family", "gamespec.build")
    for module in (cli, games, gamespec):
        patch(module, "enumerate_partitions", "partitions.enumerate", partitions_done)
    for attr, after in (("realized_index", realized_done), ("payoff_tensor", tensor_done)):
        prop = games.Game.__dict__.get(attr)
        if isinstance(prop, cached_property):
            prop = cached_property(t.wrap(f"games.{attr}", prop.func, after))
            prop.__set_name__(games.Game, attr)
            setattr(games.Game, attr, prop)
    patch(families, "enumerate_pure_equilibria", "solver.pure", pure_done)
    patch(families, "support_enumeration", "solver.support", support_done)
    patch(solver, "is_equilibrium", "solver.validate", validate_done)
    patch(reports, "is_equilibrium", "reports.strict", strict_done)
    if hasattr(solver, "optimize"):
        solver.optimize = _ModuleProxy(
            solver.optimize, root=t.wrap("solver.root", solver.optimize.root, root_done)
        )
    patch(cli, "equilibria_across_k", "families.solve")
    patch(cli, "build_solve_report", "families.solve")
    for cls in (reports.FamilyReport, reports.SolveReport):
        patch(cls, "to_dict", "reports.to_dict")
    cli.json = _ModuleProxy(cli.json, dumps=t.wrap("cli.json", cli.json.dumps))


def main(argv: list[str]) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    index = tracer.open("cli.import")
    from coalgame.cli import run_cli

    tracer.close(index)
    install(tracer)
    try:
        return run_cli(cli_args)
    finally:
        sys.stdout.flush()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
