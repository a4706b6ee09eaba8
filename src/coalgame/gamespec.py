"""Game spec files: a JSON-compatible format describing players, the max
coalition size (or a range of them), the formation rule, action sets, and
payoff entries keyed by canonical partition strings.

Parsing canonicalizes everything (partition keys, row order, scalar bonus to
a per-player vector) and rejects unknown keys, so ``parse -> serialize ->
parse`` is the identity. Errors carry a JSON-path-like location.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace as dc_replace
from typing import Any, Sequence

from .errors import GameSpecError, InvalidParameterError
from .games import RULES, EpsilonBonus, Game, _bonus_vector, _labels_for, make_game
from .partitions import Partition, enumerate_partitions, parse_partition

_TOP_KEYS = {"name", "players", "K", "K_range", "rule", "actions", "payoffs",
             "default_payoff", "epsilon"}
_ROW_KEYS = {"partition", "actions", "payoff"}
_EPS_KEYS = {"partition", "bonus"}


@dataclass(frozen=True)
class PayoffRow:
    """One payoff entry: a partition, optionally an action-label profile
    (absent = applies to every action profile in that partition), and the
    payoff vector."""

    partition_key: str
    action_labels: tuple[str, ...] | None
    payoff: tuple[float, ...]


@dataclass(frozen=True)
class GameSpec:
    """Validated, canonical description of a game (or a nested family of
    games over ``k_min..k_max``)."""

    players: tuple[str, ...]
    k_min: int
    k_max: int
    rule: str
    actions: Any  # tuple[str, ...] shared, or dict[str, tuple[str, ...]]
    payoff_rows: tuple[PayoffRow, ...]
    default_payoff: tuple[float, ...]
    epsilon: EpsilonBonus | None = None
    name: str = ""

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def has_range(self) -> bool:
        return self.k_min != self.k_max

    def with_epsilon(self, bonus: float | Sequence[float]) -> "GameSpec":
        """Copy with the bonus magnitude replaced (partition kept)."""
        if self.epsilon is None:
            raise InvalidParameterError(
                "spec has no epsilon stanza; cannot override the bonus"
            )
        vec = _bonus_vector(bonus, self.n)
        return dc_replace(self, epsilon=dc_replace(self.epsilon, per_player=vec))


def _fail(message: str, location: str) -> GameSpecError:
    return GameSpecError(message, location=location)


def _expect_number(value: Any, location: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(f"expected a number, got {value!r}", location)
    try:
        value = float(value)
    except OverflowError:
        raise _fail(
            "payoffs must be finite, got an integer too large for a float", location
        ) from None
    if not math.isfinite(value):
        raise _fail(f"payoffs must be finite, got {value}", location)
    return value


def _expect_vector(value: Any, n: int, location: str) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != n:
        raise _fail(f"expected a list of {n} numbers", location)
    return tuple(_expect_number(v, f"{location}[{i}]") for i, v in enumerate(value))


def _expect_labels(value: Any, location: str) -> tuple[str, ...]:
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(v, str) and v for v in value)
    ):
        raise _fail("expected a nonempty list of nonempty strings", location)
    if len(set(value)) != len(value):
        raise _fail(f"duplicate labels in {value}", location)
    return tuple(value)


def _parse_partition(value: Any, n: int, k_max: int, location: str) -> Partition:
    if not isinstance(value, str):
        raise _fail(f"expected a partition string, got {value!r}", location)
    try:
        partition = parse_partition(value, n)
    except InvalidParameterError as exc:
        raise _fail(str(exc), location) from None
    if partition.max_block_size > k_max:
        raise _fail(
            f"partition {value!r} has a block of size "
            f"{partition.max_block_size}, above the max coalition size {k_max}",
            location,
        )
    return partition


def parse_spec(text: str) -> GameSpec:
    """Parse and validate a spec file; everything is canonicalized.

    Raises :class:`GameSpecError` with a location for syntax errors, unknown
    keys, unknown rule names, invalid partition strings, and non-finite
    payoffs.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _fail(f"invalid JSON: {exc.msg}", f"line {exc.lineno} col {exc.colno}")
    except ValueError as exc:  # an integer literal over the int-digits limit
        raise _fail(f"invalid JSON: {exc}", "$") from None
    if not isinstance(raw, dict):
        raise _fail("spec must be a JSON object", "$")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise _fail(f"unknown keys {sorted(unknown)}", "$")

    name = raw.get("name", "")
    if not isinstance(name, str):
        raise _fail("name must be a string", "$.name")

    players = raw.get("players")
    if (
        not isinstance(players, list)
        or len(players) < 2
        or not all(isinstance(p, str) and p for p in players)
    ):
        raise _fail("players must be a list of at least 2 nonempty names", "$.players")
    if len(set(players)) != len(players):
        raise _fail("player names must be unique", "$.players")
    players = tuple(players)
    n = len(players)

    if ("K" in raw) == ("K_range" in raw):
        raise _fail("exactly one of K or K_range is required", "$")
    if "K" in raw:
        kv = raw["K"]
        if isinstance(kv, bool) or not isinstance(kv, int):
            raise _fail("K must be an integer", "$.K")
        if not 1 <= kv <= n:
            raise _fail(f"need 1 <= K <= {n}, got {kv}", "$.K")
        k_min = k_max = kv
    else:
        kr = raw["K_range"]
        if (
            not isinstance(kr, list)
            or len(kr) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in kr)
        ):
            raise _fail("K_range must be [min, max] integers", "$.K_range")
        k_min, k_max = kr
        if not 1 <= k_min <= k_max <= n:
            raise _fail(
                f"need 1 <= K_min <= K_max <= {n}, got {k_min}..{k_max}", "$.K_range"
            )

    rule = raw.get("rule")
    if rule not in RULES:
        raise _fail(f"unknown rule {rule!r}; known: {sorted(RULES)}", "$.rule")

    actions_raw = raw.get("actions")
    actions: Any
    if isinstance(actions_raw, list):
        actions = _expect_labels(actions_raw, "$.actions")
    elif isinstance(actions_raw, dict):
        actions = {}
        for key, value in actions_raw.items():
            loc = f"$.actions[{key!r}]"
            canon = (
                "default"
                if key == "default"
                else _parse_partition(key, n, k_max, loc).key
            )
            if canon in actions:
                raise _fail(f"duplicate action set for {canon!r}", loc)
            actions[canon] = _expect_labels(value, loc)
        if "default" not in actions:
            covered = set(actions)
            missing = [
                p.key
                for p in enumerate_partitions(n, k_max)
                if p.key not in covered
            ]
            if missing:
                raise _fail(
                    f"action sets missing for partitions {missing[:3]}... and no "
                    "'default' entry",
                    "$.actions",
                )
    else:
        raise _fail(
            "actions must be a shared list of labels or a per-partition object",
            "$.actions",
        )

    payoffs_raw = raw.get("payoffs")
    if not isinstance(payoffs_raw, list):
        raise _fail("payoffs must be a list of rows", "$.payoffs")
    rows: list[PayoffRow] = []
    seen_keys: set[tuple[str, tuple[str, ...] | None]] = set()
    for r, row in enumerate(payoffs_raw):
        loc = f"$.payoffs[{r}]"
        if not isinstance(row, dict):
            raise _fail("row must be an object", loc)
        unknown = set(row) - _ROW_KEYS
        if unknown:
            raise _fail(f"unknown keys {sorted(unknown)}", loc)
        key = _parse_partition(row.get("partition"), n, k_max, f"{loc}.partition").key
        labels: tuple[str, ...] | None = None
        if "actions" in row:
            value = row["actions"]
            if (
                not isinstance(value, list)
                or len(value) != n
                or not all(isinstance(v, str) for v in value)
            ):
                raise _fail(
                    f"actions must list one label per player ({n})", f"{loc}.actions"
                )
            available = _labels_for(actions, key)
            for i, label in enumerate(value):
                if label not in available:
                    raise _fail(
                        f"label {label!r} not in the action set {list(available)} "
                        f"for partition {key!r}",
                        f"{loc}.actions[{i}]",
                    )
            labels = tuple(value)
        if (key, labels) in seen_keys:
            raise _fail(f"duplicate payoff entry for ({key!r}, {labels})", loc)
        seen_keys.add((key, labels))
        rows.append(
            PayoffRow(
                partition_key=key,
                action_labels=labels,
                payoff=_expect_vector(row.get("payoff"), n, f"{loc}.payoff"),
            )
        )

    default_payoff = (
        _expect_vector(raw["default_payoff"], n, "$.default_payoff")
        if "default_payoff" in raw
        else (0.0,) * n
    )

    epsilon = None
    if "epsilon" in raw:
        eps = raw["epsilon"]
        if not isinstance(eps, dict):
            raise _fail("epsilon must be an object", "$.epsilon")
        unknown = set(eps) - _EPS_KEYS
        if unknown:
            raise _fail(f"unknown keys {sorted(unknown)}", "$.epsilon")
        partition = _parse_partition(
            eps.get("partition"), n, k_max, "$.epsilon.partition"
        )
        bonus_raw = eps.get("bonus")
        if isinstance(bonus_raw, list):
            bonus = _expect_vector(bonus_raw, n, "$.epsilon.bonus")
        else:
            bonus = (_expect_number(bonus_raw, "$.epsilon.bonus"),) * n
        epsilon = EpsilonBonus(partition, bonus)

    # Canonical row order: family position of the partition, then the action
    # ids, with partition-wide rows ahead of exact ones.
    family = enumerate_partitions(n, k_max)
    order = {p.key: i for i, p in enumerate(family)}

    def row_sort_key(row: PayoffRow):
        ids: tuple[int, ...] = ()
        if row.action_labels is not None:
            available = _labels_for(actions, row.partition_key)
            ids = tuple(available.index(label) for label in row.action_labels)
        return (order[row.partition_key], row.action_labels is not None, ids)

    rows.sort(key=row_sort_key)

    return GameSpec(
        players=players,
        k_min=k_min,
        k_max=k_max,
        rule=rule,
        actions=actions,
        payoff_rows=tuple(rows),
        default_payoff=default_payoff,
        epsilon=epsilon,
        name=name,
    )


def serialize_spec(spec: GameSpec) -> str:
    """Canonical JSON text for a spec; ``parse_spec`` of the result equals
    ``spec``."""
    obj: dict[str, Any] = {}
    if spec.name:
        obj["name"] = spec.name
    obj["players"] = list(spec.players)
    if spec.has_range:
        obj["K_range"] = [spec.k_min, spec.k_max]
    else:
        obj["K"] = spec.k_max
    obj["rule"] = spec.rule
    if isinstance(spec.actions, dict):
        obj["actions"] = {k: list(v) for k, v in sorted(spec.actions.items())}
    else:
        obj["actions"] = list(spec.actions)
    rows = []
    for row in spec.payoff_rows:
        entry: dict[str, Any] = {"partition": row.partition_key}
        if row.action_labels is not None:
            entry["actions"] = list(row.action_labels)
        entry["payoff"] = [_plain(v) for v in row.payoff]
        rows.append(entry)
    obj["payoffs"] = rows
    obj["default_payoff"] = [_plain(v) for v in spec.default_payoff]
    if spec.epsilon is not None:
        obj["epsilon"] = {
            "partition": spec.epsilon.partition.key,
            "bonus": [_plain(v) for v in spec.epsilon.per_player],
        }
    return json.dumps(obj, indent=2) + "\n"


def _plain(value: float):
    return int(value) if float(value).is_integer() else float(value)


def build_game(
    spec: GameSpec,
    K: int | None = None,
    *,
    epsilon_bonus: float | Sequence[float] | None = None,
) -> Game:
    """Instantiate the game for one max coalition size.

    Payoff rows for partitions outside P(K) are dropped (they belong to
    larger games in the family); ``epsilon_bonus`` overrides the spec's bonus
    magnitude.
    """
    n = spec.n
    if K is None:
        K = spec.k_max
    if not 1 <= K <= n:
        raise InvalidParameterError(f"K={K} not in 1..{n}")

    effective = spec if epsilon_bonus is None else spec.with_epsilon(epsilon_bonus)
    exact: dict[tuple[str, tuple[str, ...]], tuple[float, ...]] = {}
    wide: dict[str, tuple[float, ...]] = {}
    for row in effective.payoff_rows:
        if row.action_labels is None:
            wide[row.partition_key] = row.payoff
        else:
            exact[(row.partition_key, row.action_labels)] = row.payoff

    return make_game(
        players=effective.players,
        K=K,
        rule=effective.rule,
        action_labels=effective.actions,
        exact_payoffs=exact,
        partition_payoffs=wide,
        default_payoff=effective.default_payoff,
        epsilon_partition=(
            effective.epsilon.partition.key if effective.epsilon else None
        ),
        epsilon_bonus=(effective.epsilon.per_player if effective.epsilon else 0.0),
        name=(effective.name or "game") + f"[K={K}]",
    )
