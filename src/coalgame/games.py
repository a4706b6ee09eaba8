"""Game definition: strategies, formation rules, payoff tables, and the
mechanism-axiom checker.

A strategy is a (desired partition, local action) pair. A formation rule is a
total deterministic map from announced partitions to one realized partition;
payoffs are looked up per (realized partition, action profile) with an
explicit default vector for unlisted combinations, plus an optional
per-player bonus paid when a designated partition is realized.

``Game`` is immutable after construction; the derived arrays (realized
partition index per profile, payoff tensor) are computed lazily once, as
``np.ix_`` expansions of a cell grid over each player's distinct (rule key,
action id) pairs, and shared by the solver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Mapping, Sequence

import numpy as np

from .errors import BudgetExceededError, InvalidParameterError
from .partitions import (
    DEFAULT_BUDGET,
    Coalition,
    Partition,
    PartitionFamily,
    count_partitions,
    enumerate_partitions,
    parse_partition,
)


@dataclass(frozen=True)
class Action:
    """One local action, e.g. id=1 label="H"."""

    id: int
    label: str


@dataclass(frozen=True)
class PartitionStrategy:
    """A player's announcement: the partition they want plus the action they
    would play in it."""

    desired: Partition
    action: Action

    def __str__(self) -> str:
        return f"{self.action.label}@{self.desired.key}"


class FormationRule:
    """Total deterministic map from announced partitions to a realized partition.

    ``key(announced, player)`` is the part of one announcement the rule reads
    (the whole partition by default); ``form(keys)`` is the realized partition
    given one key per player. Both must be pure: ``Game`` calls ``form`` once
    per distinct key combination. A custom rule implements ``form`` (and
    ``key`` if it reads less than the whole partition)."""

    kind: str = "abstract"

    def key(self, announced: Partition, player: int) -> Hashable:
        return announced

    def form(self, keys: Sequence[Hashable]) -> Partition:
        raise NotImplementedError

    def realize(self, profile: Sequence[PartitionStrategy]) -> Partition:
        return self.form(tuple(self.key(c.desired, i) for i, c in enumerate(profile)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class CoalitionUnanimity(FormationRule):
    """A coalition of two or more players forms iff every member announced it
    as their own block; non-selected players eat alone (become singletons)."""

    kind = "coalition_unanimity"

    def key(self, announced: Partition, player: int) -> tuple[int, ...]:
        return announced.block_of(player).members

    def form(self, keys: Sequence[tuple[int, ...]]) -> Partition:
        # Each key is a sorted own block, and a block forms only if all its
        # members announced it, so the formed blocks are disjoint. Listing
        # each at its smallest member gives canonical order.
        blocks = []
        for i, own in enumerate(keys):
            if not all(keys[j] == own for j in own):
                blocks.append(Coalition((i,)))
            elif own[0] == i:
                blocks.append(Coalition(own))
        return Partition(tuple(blocks), len(keys))


class PartitionUnanimity(FormationRule):
    """A non-all-singleton partition forms iff every player announced exactly
    that partition; any disagreement collapses to all singletons."""

    kind = "partition_unanimity"

    def form(self, keys: Sequence[Partition]) -> Partition:
        if all(announced == keys[0] for announced in keys):
            return keys[0]
        return Partition.singletons(len(keys))


RULES: dict[str, FormationRule] = {
    rule.kind: rule for rule in (CoalitionUnanimity(), PartitionUnanimity())
}


def _as_finite_vector(values: Sequence[float], n: int, what: str) -> tuple[float, ...]:
    try:
        vec = tuple(float(v) for v in values)
    except OverflowError:
        raise InvalidParameterError(
            f"{what} must be finite, got an integer too large for a float"
        ) from None
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{what} must hold numbers, got {values!r}") from None
    if len(vec) != n:
        raise InvalidParameterError(f"{what} must have length {n}, got {len(vec)}")
    if not all(np.isfinite(vec)):
        raise InvalidParameterError(f"{what} must be finite, got {vec}")
    return vec


def _shape(values, what: str) -> tuple[int, ...]:
    """``np.shape(values)``; a ragged nested list has none and holds no
    numbers."""
    try:
        return np.shape(values)
    except ValueError:
        raise InvalidParameterError(f"{what} must hold numbers, got {values!r}") from None


def _bonus_vector(bonus: float | Sequence[float], n: int) -> tuple[float, ...]:
    """The per-player epsilon bonus: one number paid to every player, or a
    1-D sequence (list, tuple, array) of one number per player."""
    shape = _shape(bonus, "epsilon bonus")
    if len(shape) > 1:
        raise InvalidParameterError(
            f"epsilon bonus must be a number or a vector, got shape {shape}"
        )
    return _as_finite_vector(bonus if shape else (bonus,) * n, n, "epsilon bonus")


@dataclass(frozen=True)
class PayoffTable:
    """Payoff vectors keyed by (realized partition, action profile).

    Lookup order: exact (partition, actions) entry, then a partition-wide
    entry covering all action profiles, then ``default``. All stored values
    are finite.
    """

    n: int
    exact: Mapping[tuple[str, tuple[int, ...]], tuple[float, ...]]
    partition_wide: Mapping[str, tuple[float, ...]]
    default: tuple[float, ...]

    def __post_init__(self):
        _as_finite_vector(self.default, self.n, "default payoff")
        for key, vec in self.exact.items():
            _as_finite_vector(vec, self.n, f"payoff for {key}")
        for key, vec in self.partition_wide.items():
            _as_finite_vector(vec, self.n, f"payoff for partition {key}")

    def lookup(self, partition_key: str, action_ids: tuple[int, ...]) -> tuple[float, ...]:
        hit = self.exact.get((partition_key, action_ids))
        if hit is not None:
            return hit
        hit = self.partition_wide.get(partition_key)
        if hit is not None:
            return hit
        return self.default

    def shifted(self, player: int, offset: float) -> "PayoffTable":
        """A copy with ``offset`` added to every payoff of one player."""

        def bump(vec: tuple[float, ...]) -> tuple[float, ...]:
            return tuple(v + offset if i == player else v for i, v in enumerate(vec))

        return PayoffTable(
            n=self.n,
            exact={k: bump(v) for k, v in self.exact.items()},
            partition_wide={k: bump(v) for k, v in self.partition_wide.items()},
            default=bump(self.default),
        )


@dataclass(frozen=True)
class EpsilonBonus:
    """Additive per-player bonus paid whenever ``partition`` is realized."""

    partition: Partition
    per_player: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class Game:
    """A coalition-structure formation game over P(K).

    ``action_sets[i][p]`` lists player i's actions in partition ``family[p]``;
    strategy sets, the realized-partition index array, and the payoff tensor
    are derived lazily and cached. The object is immutable and shareable.
    """

    players: tuple[str, ...]
    K: int
    family: PartitionFamily
    action_sets: tuple[tuple[tuple[Action, ...], ...], ...]
    rule: FormationRule
    payoffs: PayoffTable
    epsilon: EpsilonBonus | None = None
    name: str = ""

    def __post_init__(self):
        n = len(self.players)
        if n < 2:
            raise InvalidParameterError(f"need at least 2 players, got {n}")
        if not 1 <= self.K <= n:
            raise InvalidParameterError(f"K={self.K} not in 1..{n}")
        if self.family.n != n or self.family.K != self.K:
            raise InvalidParameterError("family does not match the game's n and K")
        if len(self.family) != count_partitions(n, self.K):
            raise InvalidParameterError("family is not the full P(K)")
        if len(self.action_sets) != n:
            raise InvalidParameterError("need one action-set row per player")
        for i, per_partition in enumerate(self.action_sets):
            if len(per_partition) != len(self.family):
                raise InvalidParameterError(
                    f"player {i} needs an action set for each of the "
                    f"{len(self.family)} partitions"
                )
            for p, actions in enumerate(per_partition):
                if not actions:
                    raise InvalidParameterError(
                        f"empty action set for player {i} in partition "
                        f"{self.family[p].key}"
                    )
        if self.payoffs.n != n:
            raise InvalidParameterError("payoff table has the wrong player count")
        if self.epsilon is not None:
            _as_finite_vector(self.epsilon.per_player, n, "epsilon bonus")
            if self.epsilon.partition not in self.family:
                raise InvalidParameterError(
                    f"epsilon partition {self.epsilon.partition} is not in P(K)"
                )

    @property
    def n(self) -> int:
        return len(self.players)

    @cached_property
    def strategy_sets(self) -> tuple[tuple[PartitionStrategy, ...], ...]:
        """Per player: all (partition, action) pairs in (partition order,
        action id) order."""
        return tuple(
            tuple(
                PartitionStrategy(desired=partition, action=action)
                for partition, actions in zip(self.family, per_partition)
                for action in actions
            )
            for per_partition in self.action_sets
        )

    @cached_property
    def strategy_counts(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.strategy_sets)

    @cached_property
    def profile_count(self) -> int:
        return math.prod(self.strategy_counts)

    @cached_property
    def _strategy_index(self) -> tuple[dict[PartitionStrategy, int], ...]:
        return tuple(
            {s: k for k, s in enumerate(strategies)}
            for strategies in self.strategy_sets
        )

    def strategy_index(self, player: int, strategy: PartitionStrategy) -> int:
        try:
            return self._strategy_index[player][strategy]
        except KeyError:
            raise InvalidParameterError(
                f"{strategy} is not a strategy of player {player}"
            ) from None

    def _check_indices(self, indices: Sequence[int]) -> None:
        """Raise unless ``indices`` holds one in-range index per player."""
        counts = self.strategy_counts
        if len(indices) != self.n or not all(0 <= k < m for k, m in zip(indices, counts)):
            raise InvalidParameterError(
                f"strategy indices {tuple(indices)} do not fit the strategy counts {counts}"
            )

    def profile_from_indices(self, indices: Sequence[int]) -> tuple[PartitionStrategy, ...]:
        """The pure profile (one strategy per player) at ``indices``."""
        self._check_indices(indices)
        return tuple(self.strategy_sets[i][k] for i, k in enumerate(indices))

    def indices_of_profile(self, profile: Sequence[PartitionStrategy]) -> tuple[int, ...]:
        if len(profile) != self.n:
            raise InvalidParameterError(
                f"profile has {len(profile)} entries, game has {self.n} players"
            )
        return tuple(self.strategy_index(i, c) for i, c in enumerate(profile))

    def _payoff_at(self, realized: Partition, action_ids: tuple[int, ...]) -> np.ndarray:
        """Table lookup, plus the bonus if the designated partition is realized."""
        vec = np.array(self.payoffs.lookup(realized.key, action_ids), dtype=np.float64)
        if self.epsilon is not None and realized == self.epsilon.partition:
            vec += self.epsilon.per_player
        return vec

    @cached_property
    def _cell_grid(self) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
        """Each player's strategies grouped into cells by (rule key, action id).

        ``rule.form`` runs once per key combination and ``_payoff_at`` once
        per cell combination. Returns the realized index and the payoff per
        cell combination, and the ``np.ix_`` index expanding both to profiles.
        """
        own = [
            [(self.rule.key(s.desired, i), s.action.id) for s in strategies]
            for i, strategies in enumerate(self.strategy_sets)
        ]
        cells = [{cell: k for k, cell in enumerate(dict.fromkeys(o))} for o in own]
        keys = [dict.fromkeys(key for key, _ in c) for c in cells]
        formed = {combo: self.rule.form(combo) for combo in itertools.product(*keys)}
        grid = [tuple(zip(*c)) for c in itertools.product(*cells)]
        lookup = self.family._index
        realized = np.array([lookup.get(formed[ks], -1) for ks, _ in grid], dtype=np.int32)
        payoffs = np.array([self._payoff_at(formed[ks], ids) for ks, ids in grid])
        shape = [len(c) for c in cells]
        expand = np.ix_(*([c[cell] for cell in o] for c, o in zip(cells, own)))
        return realized.reshape(shape), payoffs.reshape(shape + [self.n]), expand

    @cached_property
    def realized_index(self) -> np.ndarray:
        """Index into ``family`` of the realized partition, per pure profile;
        -1 where the rule leaves the family (only possible for broken rules)."""
        _check_addressable(self.strategy_counts, np.int32, "realized_index")
        realized, _, expand = self._cell_grid
        out = realized[expand]
        out.flags.writeable = False
        return out

    @cached_property
    def payoff_tensor(self) -> np.ndarray:
        """Payoff vectors for every pure profile, shape strategy_counts + (n,).

        A payoff depends only on the realized partition and the action ids,
        and the rule reads only each announcement's key, so strategies in one
        (key, action id) cell pay alike; this expands the cell grid's payoffs,
        where a partition outside the family is looked up by its own key."""
        _check_addressable(
            self.strategy_counts + (self.n,), np.float64, "payoff_tensor"
        )
        _, payoffs, expand = self._cell_grid
        out = payoffs[expand]
        out.flags.writeable = False
        return out


def apply_formation_rule(game: Game, profile: Sequence[PartitionStrategy]) -> Partition:
    """Realized partition for one announced profile."""
    game.indices_of_profile(profile)  # validates membership
    return game.rule.realize(profile)


def payoff(game: Game, profile: Sequence[PartitionStrategy]) -> np.ndarray:
    """Payoff vector for one announced profile: table lookup on the realized
    partition and action profile, plus the bonus if the designated partition
    was realized. Builds no tensor, so it serves games too big for one."""
    actions = tuple(choice.action.id for choice in profile)
    return game._payoff_at(apply_formation_rule(game, profile), actions)


def induced_domain(
    game: Game, partition: Partition, *, budget: int | None = None
) -> list[tuple[PartitionStrategy, ...]]:
    """All pure profiles the rule maps to ``partition``, by exhaustive
    enumeration, in lexicographic profile order."""
    target = game.family.index_of(partition)
    _check_budget(game.profile_count, budget, "induced_domain")
    realized = game.realized_index
    return [
        game.profile_from_indices(indices)
        for indices in np.argwhere(realized == target)
    ]


def _check_budget(required: int, budget: int | None, what: str) -> None:
    if budget is not None and budget < 0:
        raise InvalidParameterError(f"budget must be nonnegative, got {budget}")
    limit = DEFAULT_BUDGET if budget is None else budget
    if required > limit:
        raise BudgetExceededError(
            f"{what} needs {required} evaluations, over the budget of "
            f"{limit}; raise the budget to force the exhaustive check",
            required=required,
            budget=limit,
        )


def _check_addressable(shape: tuple[int, ...], dtype, what: str) -> None:
    """Raise before allocating an array of ``shape`` and ``dtype`` that numpy
    cannot hold, whatever the budget allows: ``InvalidParameterError`` for
    more axes than numpy supports (32 before numpy 2, 64 since; one per
    player), ``BudgetExceededError`` for more bytes than it can address."""
    try:
        np.empty((0,) * len(shape))
    except ValueError as exc:
        raise InvalidParameterError(
            f"{what} needs an array of {len(shape)} axes: {exc}"
        ) from None
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    limit = int(np.iinfo(np.intp).max)
    if nbytes > limit:
        raise BudgetExceededError(
            f"{what} needs an array of {nbytes} bytes, more than numpy can "
            f"address ({limit}); the game is too large for exhaustive enumeration",
            required=nbytes,
            budget=limit,
        )


@dataclass(frozen=True)
class CheckOutcome:
    """Outcome of one check (a mechanism axiom, or one nesting check of a
    family): ok flag, a counterexample profile (as strategy indices) when an
    axiom failed, and a description of the failure."""

    ok: bool
    counterexample: tuple[int, ...] | None = None
    detail: str = ""


@dataclass(frozen=True)
class MechanismAxiomReport:
    """Exhaustive verification that the rule partitions the profile space."""

    maps_into_family: CheckOutcome
    domains_disjoint: CheckOutcome
    domains_cover: CheckOutcome
    #: Profiles per nonempty induced domain, in family order.
    domain_sizes: dict[Partition, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            self.maps_into_family.ok
            and self.domains_disjoint.ok
            and self.domains_cover.ok
        )


def check_mechanism_axioms(
    game: Game, *, budget: int | None = None
) -> MechanismAxiomReport:
    """Verify by enumeration that (a) every profile maps to exactly one
    partition of the family, (b) the induced domains are pairwise disjoint,
    and (c) the domains cover the whole profile space.

    Never silently truncates: a profile space over budget raises instead.
    """
    _check_budget(game.profile_count, budget, "check_mechanism_axioms")
    realized = game.realized_index
    outside = realized < 0
    sizes = np.bincount(realized[~outside], minlength=len(game.family))
    # Each profile stores exactly one partition index, so the induced domains
    # are disjoint by construction, and only a profile mapped outside the
    # family is left uncovered.
    if outside.any():
        counter = tuple(np.argwhere(outside)[0].tolist())
        maps_into = CheckOutcome(
            ok=False,
            counterexample=counter,
            detail="rule output is outside the partition family",
        )
        cover = CheckOutcome(
            ok=False,
            counterexample=counter,
            detail=f"domains cover {int(sizes.sum())} of {game.profile_count} profiles",
        )
    else:
        maps_into = cover = CheckOutcome(ok=True)

    return MechanismAxiomReport(
        maps_into_family=maps_into,
        domains_disjoint=CheckOutcome(ok=True),
        domains_cover=cover,
        domain_sizes={
            game.family[p]: int(sizes[p]) for p in range(len(game.family)) if sizes[p]
        },
    )


def coalition_values(
    partition: Partition, payoffs: Sequence[float]
) -> dict[Coalition, float]:
    """Value of each block as the sum of its members' payoffs (the
    cooperative-game reading of a payoff profile)."""
    vec = _as_finite_vector(payoffs, partition.n, "payoffs")
    return {block: float(sum(vec[i] for i in block)) for block in partition}


def _labels_for(
    action_labels: Sequence[str] | Mapping[str, Sequence[str]], key: str
) -> tuple[str, ...]:
    """The action labels of the partition with canonical ``key``: its entry
    of a per-partition mapping (else the ``"default"`` entry), or the one
    shared list."""
    if not isinstance(action_labels, Mapping):
        return tuple(action_labels)
    hit = action_labels.get(key, action_labels.get("default"))
    if hit is None:
        raise InvalidParameterError(f"no action set declared for partition {key}")
    return tuple(hit)


def make_game(
    players: Sequence[str],
    K: int,
    *,
    rule: FormationRule | str = "coalition_unanimity",
    action_labels: Sequence[str] | Mapping[str, Sequence[str]] = ("act",),
    exact_payoffs: Mapping[tuple[str, tuple[str, ...]], Sequence[float]] | None = None,
    partition_payoffs: Mapping[str, Sequence[float]] | None = None,
    default_payoff: Sequence[float] | None = None,
    epsilon_partition: str | None = None,
    epsilon_bonus: float | Sequence[float] = 0.0,
    name: str = "",
) -> Game:
    """Assemble a game from label-level data.

    ``action_labels`` is either one shared list or a mapping from canonical
    partition key (or ``"default"``) to a list; payoff keys use canonical
    partition strings and action labels. This is the programmatic counterpart
    of the spec-file format.
    """
    players = tuple(players)
    n = len(players)
    family = enumerate_partitions(n, K)

    per_partition = tuple(
        tuple(Action(i, a) for i, a in enumerate(_labels_for(action_labels, p.key)))
        for p in family
    )
    action_sets = tuple(per_partition for _ in range(n))

    label_to_id = {
        partition.key: {a.label: a.id for a in per_partition[p]}
        for p, partition in enumerate(family)
    }

    exact: dict[tuple[str, tuple[int, ...]], tuple[float, ...]] = {}
    for (raw_key, labels), vec in (exact_payoffs or {}).items():
        key = parse_partition(raw_key, n).key
        if key not in label_to_id:
            continue  # partition beyond this K; harmless for restricted games
        try:
            ids = tuple(label_to_id[key][label] for label in labels)
        except KeyError as exc:
            raise InvalidParameterError(
                f"action label {exc.args[0]!r} not declared for partition {raw_key}"
            ) from None
        exact[(key, ids)] = _as_finite_vector(vec, n, f"payoff for {raw_key}")
    wide: dict[str, tuple[float, ...]] = {}
    for raw_key, vec in (partition_payoffs or {}).items():
        key = parse_partition(raw_key, n).key
        if key in label_to_id:
            wide[key] = _as_finite_vector(vec, n, f"payoff for {raw_key}")

    if default_payoff is None or 0 in _shape(default_payoff, "default payoff"):
        default_payoff = (0.0,) * n
    table = PayoffTable(
        n=n,
        exact=exact,
        partition_wide=wide,
        default=_as_finite_vector(default_payoff, n, "default payoff"),
    )

    bonus = None
    if epsilon_partition is not None:
        target = parse_partition(epsilon_partition, n)
        if target in family:
            bonus = EpsilonBonus(target, _bonus_vector(epsilon_bonus, n))

    if isinstance(rule, str):
        if rule not in RULES:
            raise InvalidParameterError(
                f"unknown formation rule {rule!r}; known: {sorted(RULES)}"
            )
        rule_obj = RULES[rule]
    else:
        rule_obj = rule
    return Game(
        players=players,
        K=K,
        family=family,
        action_sets=action_sets,
        rule=rule_obj,
        payoffs=table,
        epsilon=bonus,
        name=name,
    )
