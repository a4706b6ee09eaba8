"""Nested families of games over a contiguous range of max coalition sizes.

A family is stored as one spec plus per-K restrictions, which makes nesting
true by construction; :func:`check_nesting` re-verifies it exhaustively
(partition families, strategy sets, payoff restriction, and rule agreement on
the embedded profile space) so it doubles as a regression test for the
derivation. Solving the family is the job of :mod:`coalgame.reports`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidParameterError
from .games import CheckOutcome, Game
from .gamespec import GameSpec, build_game


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
    """Consistency of one consecutive pair Γ(K) vs Γ(K+1): the checks
    ``partition_nesting``, ``strategy_nesting``, ``payoff_consistency`` and
    ``rule_consistency``, in that order."""

    k_small: int
    k_large: int
    checks: dict[str, CheckOutcome]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks.values())


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
                [small.family._index.get(q, -2) for q in large.family], dtype=np.int32
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
            pay_check = rule_check = CheckOutcome(ok=False, detail="no embedding")

        pairs.append(
            PairNestingReport(
                k_small=k_small,
                k_large=k_large,
                checks={
                    "partition_nesting": part_check,
                    "strategy_nesting": strat_check,
                    "payoff_consistency": pay_check,
                    "rule_consistency": rule_check,
                },
            )
        )
    return NestingReport(pairs=tuple(pairs))
