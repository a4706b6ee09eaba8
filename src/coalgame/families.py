"""Nested families of games over a contiguous range of max coalition sizes.

A family is stored as one spec plus per-K restrictions, which makes nesting
true by construction; :func:`check_nesting` re-verifies it exhaustively
(partition families, strategy sets, payoff restriction, and rule agreement on
the embedded profile space) so it doubles as a regression test for the
derivation. :func:`equilibria_across_k` solves each game and diffs the
equilibrium-partition supports between consecutive K.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError, InvalidParameterError
from .games import CheckOutcome, Game
from .gamespec import GameSpec, build_game
from .partitions import Partition
from .solver import (
    DEFAULT_TOL,
    EquilibriumTable,
    _check_solve_args,
    _distinct,
    _pure_table,
    _support_table,
)


@dataclass(frozen=True, eq=False)
class GameFamily:
    """Games for each K in a contiguous range, derived from one spec."""

    base: GameSpec
    games: dict[int, Game]

    def __post_init__(self):
        ks = self.k_values
        if not ks:
            raise InvalidParameterError("family must contain at least one game")
        if list(ks) != list(range(ks[0], ks[-1] + 1)):
            raise InvalidParameterError(f"family range must be contiguous, got {ks}")
        first = self.games[ks[0]]
        for k in ks:
            game = self.games[k]
            if game.K != k:
                raise InvalidParameterError(f"game stored under K={k} has K={game.K}")
            if game.players != first.players or game.rule.kind != first.rule.kind:
                raise InvalidParameterError(
                    "all games in a family must share players and rule"
                )

    @property
    def k_values(self) -> tuple[int, ...]:
        return tuple(sorted(self.games))

    @property
    def n(self) -> int:
        return self.games[self.k_values[0]].n

    def __getitem__(self, K: int) -> Game:
        try:
            return self.games[K]
        except KeyError:
            raise InvalidParameterError(
                f"family has no game for K={K}; range is {self.k_values}"
            ) from None

    def __iter__(self) -> Iterator[tuple[int, Game]]:
        return iter(sorted(self.games.items()))

    def __len__(self) -> int:
        return len(self.games)


def build_family(
    spec: GameSpec,
    k_range: tuple[int, int] | None = None,
    *,
    epsilon_bonus: float | Sequence[float] | None = None,
) -> GameFamily:
    """Construct the game for every K in ``k_range`` (default: the spec's
    own range) by restricting the spec to P(K)."""
    lo, hi = k_range if k_range is not None else (spec.k_min, spec.k_max)
    if not 1 <= lo <= hi <= spec.n:
        raise InvalidParameterError(
            f"need 1 <= K_min <= K_max <= {spec.n}, got {lo}..{hi}"
        )
    games = {
        k: build_game(spec, k, epsilon_bonus=epsilon_bonus) for k in range(lo, hi + 1)
    }
    return GameFamily(base=spec, games=games)


@dataclass(frozen=True)
class PairNestingReport:
    """Consistency of one consecutive pair Γ(K) vs Γ(K+1)."""

    k_small: int
    k_large: int
    partition_nesting: CheckOutcome
    strategy_nesting: CheckOutcome
    payoff_consistency: CheckOutcome
    rule_consistency: CheckOutcome

    @property
    def ok(self) -> bool:
        return (
            self.partition_nesting.ok
            and self.strategy_nesting.ok
            and self.payoff_consistency.ok
            and self.rule_consistency.ok
        )

    @property
    def checks(self) -> dict[str, CheckOutcome]:
        return {
            "partition_nesting": self.partition_nesting,
            "strategy_nesting": self.strategy_nesting,
            "payoff_consistency": self.payoff_consistency,
            "rule_consistency": self.rule_consistency,
        }


@dataclass(frozen=True)
class NestingReport:
    pairs: tuple[PairNestingReport, ...]

    @property
    def ok(self) -> bool:
        return all(pair.ok for pair in self.pairs)


def _strategy_embedding(small: Game, large: Game) -> tuple[list[list[int]], str]:
    """Index of each Γ(K) strategy inside Γ(K+1)'s strategy list, per player."""
    embedding: list[list[int]] = []
    for i in range(small.n):
        row = []
        for strategy in small.strategy_sets[i]:
            try:
                row.append(large.strategy_index(i, strategy))
            except InvalidParameterError:
                return [], (
                    f"player {i} strategy {strategy} of K={small.K} is missing "
                    f"from K={large.K}"
                )
        if row != sorted(row):
            return [], f"player {i}: strategy order changes between K levels"
        embedding.append(row)
    return embedding, ""


def check_nesting(family: GameFamily) -> NestingReport:
    """Exhaustively verify the nesting of consecutive games: P(K) inside
    P(K+1), strategy sets as sub-lists, identical payoffs on the embedded
    profiles, and identical rule outputs on them."""
    pairs = []
    ks = family.k_values
    for k_small, k_large in zip(ks, ks[1:]):
        small, large = family[k_small], family[k_large]

        missing = [p for p in small.family if p not in large.family]
        part_check = CheckOutcome(
            ok=not missing,
            detail="" if not missing else f"partition {missing[0]} missing",
        )

        embedding, err = _strategy_embedding(small, large)
        strat_check = CheckOutcome(ok=not err, detail=err)

        if embedding:
            ix = np.ix_(*embedding)
            sub_payoff = large.payoff_tensor[ix]
            if np.array_equal(sub_payoff, small.payoff_tensor):
                pay_check = CheckOutcome(ok=True)
            else:
                diff = np.argwhere(
                    np.any(sub_payoff != small.payoff_tensor, axis=-1)
                )[0]
                cell = tuple(int(v) for v in diff)
                p = int(small.realized_index[cell])
                key = small.family[p].key if p >= 0 else "<outside family>"
                pay_check = CheckOutcome(
                    ok=False,
                    detail=(
                        f"payoff mismatch at profile {cell} "
                        f"(realized partition {key}): "
                        f"{small.payoff_tensor[cell].tolist()} in K={k_small} vs "
                        f"{sub_payoff[cell].tolist()} in K={k_large}"
                    ),
                )

            # Compare realized partitions through the family index maps.
            to_small = np.array(
                [
                    small.family._index.get(partition, -2)
                    for partition in large.family
                ],
                dtype=np.int32,
            )
            sub_realized = large.realized_index[ix]
            mapped = np.where(
                sub_realized >= 0, to_small[np.clip(sub_realized, 0, None)], -3
            )
            if np.array_equal(mapped, small.realized_index):
                rule_check = CheckOutcome(ok=True)
            else:
                diff = np.argwhere(mapped != small.realized_index)[0]
                cell = tuple(int(v) for v in diff)
                rule_check = CheckOutcome(
                    ok=False,
                    detail=f"rule output differs at embedded profile {cell}",
                )
        else:
            pay_check = CheckOutcome(ok=False, detail="no embedding")
            rule_check = CheckOutcome(ok=False, detail="no embedding")

        pairs.append(
            PairNestingReport(
                k_small=k_small,
                k_large=k_large,
                partition_nesting=part_check,
                strategy_nesting=strat_check,
                payoff_consistency=pay_check,
                rule_consistency=rule_check,
            )
        )
    return NestingReport(pairs=tuple(pairs))


@dataclass(frozen=True)
class SolveOptions:
    """Knobs shared by the solvers and the CLI, checked on construction."""

    mode: str = "weak"
    tol: float = DEFAULT_TOL
    max_support: int | None = None
    budget: int | None = None

    def __post_init__(self):
        _check_solve_args(self.mode, self.tol, self.max_support)


@dataclass(frozen=True, eq=False)
class KReport:
    """Solver output for one K: the table of validated equilibria;
    ``error`` carries a budget failure instead of aborting the rest of the
    family."""

    K: int
    equilibria: EquilibriumTable
    error: str | None = None
    notes: tuple[str, ...] = ()

    @property
    def partitions(self) -> tuple[Partition, ...]:
        """The partitions the equilibria realize, in family order."""
        return tuple(self.equilibria.partition_counts())


@dataclass(frozen=True)
class KDiff:
    k_from: int
    k_to: int
    partitions_gained: tuple[Partition, ...]
    partitions_lost: tuple[Partition, ...]


@dataclass(frozen=True, eq=False)
class FamilyEquilibriumReport:
    per_k: tuple[KReport, ...]
    diffs: tuple[KDiff, ...]

    def report_for(self, K: int) -> KReport:
        for entry in self.per_k:
            if entry.K == K:
                return entry
        raise InvalidParameterError(f"no report for K={K}")


def _solve_game(game: Game, options: SolveOptions) -> tuple[EquilibriumTable, list[str]]:
    """The one solve path: pure enumeration, then (budget permitting) the
    mixed support search, merged and deduplicated, as one table; in strict
    mode only the strict rows are kept. A pure enumeration over budget
    raises."""
    notes: list[str] = []
    table = _pure_table(game, options.mode, options.tol, options.budget)
    try:
        mixed = _support_table(game, options.max_support, options.tol, options.budget)
    except BudgetExceededError as exc:
        mixed = ()
        notes.append(
            f"mixed search skipped: {exc.required} support combinations exceed "
            f"the budget of {exc.budget}"
        )
    # Pure rows are distinct cells; only a mixed candidate, clipped to an
    # exactly pure profile, can duplicate one.
    if mixed:
        table = table.concat(mixed)
        table = table.take(_distinct(np.hstack(table.profiles)))
    if options.mode == "strict":
        table = replace(table.take(np.flatnonzero(table.strict)), mode="strict")
    return table, notes


def _solve_one(game: Game, options: SolveOptions) -> KReport:
    try:
        equilibria, notes = _solve_game(game, options)
    except BudgetExceededError as exc:
        return KReport(
            K=game.K,
            equilibria=EquilibriumTable.empty(game, options.mode),
            error=str(exc),
        )
    return KReport(K=game.K, equilibria=equilibria, notes=tuple(notes))


def equilibria_across_k(
    family: GameFamily, options: SolveOptions | None = None
) -> FamilyEquilibriumReport:
    """Solve every game in the family and diff the equilibrium-partition
    supports between consecutive K. Budget failures are recorded per K and do
    not abort the other games."""
    options = options or SolveOptions()
    per_k = tuple(_solve_one(game, options) for _, game in family)
    diffs = []
    for a, b in zip(per_k, per_k[1:]):
        if a.error or b.error:
            continue
        set_a, set_b = set(a.partitions), set(b.partitions)
        diffs.append(
            KDiff(
                k_from=a.K,
                k_to=b.K,
                partitions_gained=tuple(p for p in b.partitions if p not in set_a),
                partitions_lost=tuple(p for p in a.partitions if p not in set_b),
            )
        )
    return FamilyEquilibriumReport(per_k=per_k, diffs=tuple(diffs))
