"""The solve path and one report per command.

:func:`build_solve_report` (``solve``), :func:`build_validate_report`
(``validate``) and :func:`equilibria_across_k` (``family``) each run the
solvers or checks of one command and return its report. Every game is solved
by :func:`_solve_game`, and every solved game is reported by one
:class:`SolveReport`: a family report is its per-K solve reports, and its
K -> K+1 diffs derive from them. A report renders as text (``render_text``),
as one line of JSON (``to_json``) or as the plain dict that line parses to
(``to_dict``); ``to_json`` writes the bytes ``json.dumps(report.to_dict())``
would. Each report object is written from one %-template (a family report
from one per K entry, between a head and a tail), as each entry of an
equilibria list is; every slot takes ``json.dumps`` text except the
equilibria lists, which :func:`_equilibria_json` writes by encoding each
distinct row of a column once. Every reported profile can be fed back
through ``is_equilibrium``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import BudgetExceededError, InvalidParameterError
from .families import GameFamily, NestingReport, check_nesting
from .games import Game, MechanismAxiomReport, check_mechanism_axioms
from .partitions import Partition
from .solver import (
    _LISTED_MASS,
    DEFAULT_TOL,
    EquilibriumTable,
    MixedProfile,
    _check_solve_args,
    _distinct,
    _pure_table,
    _support,
    _support_table,
)

#: Most equilibria listed by ``SolveReport.render_text``; JSON lists them all.
TEXT_ROWS = 24


@dataclass(frozen=True)
class SolveOptions:
    """Knobs shared by the solvers and the CLI, checked on construction."""

    mode: str = "weak"
    tol: float = DEFAULT_TOL
    max_support: int | None = None
    budget: int | None = None

    def __post_init__(self):
        _check_solve_args(self.mode, self.tol, self.max_support)


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


def pretty_partition(partition: Partition, players: tuple[str, ...]) -> str:
    """Partition rendered with player names, e.g. ``{A,B | C1,C2}``."""
    return (
        "{"
        + " | ".join(
            ",".join(players[i] for i in block) for block in partition.blocks
        )
        + "}"
    )


def game_summary(game: Game) -> dict:
    return {
        "name": game.name,
        "players": list(game.players),
        "K": game.K,
        "rule": game.rule.kind,
        "partition_count": len(game.family),
        "strategy_counts": list(game.strategy_counts),
        "profile_count": game.profile_count,
    }


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a float matrix, bit for bit, and the index of
    each row among them, as ``np.unique(axis=0, return_inverse=True)`` on
    the bits gives, but by one ``lexsort``: ``np.unique`` sorts the rows as
    opaque records, many times slower."""
    bits = rows.view(np.int64)
    order = np.lexsort(bits.T)
    ordered = bits[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first].view(np.float64), inverse


def _equilibria_json(game: Game, table: EquilibriumTable) -> str:
    """The ``"equilibria"`` list of a report as JSON text, one object per
    row of ``table``, exactly as ``json.dumps`` writes the per-row dicts.
    Rows repeat: each distinct profile row (with its support and labels),
    payoff row, distribution and ``max_regret`` is encoded once, by
    ``json.dumps``, and each entry is joined from those fragments."""
    def fragments(unique: list, inverse: np.ndarray) -> list[str]:
        encoded = [json.dumps(value) for value in unique]
        return [encoded[k] for k in inverse.tolist()]

    # Per player, the fragments of each row's profile, support and labels.
    profiles, supports, labels = [], [], []
    for strategies, rows in zip(game.strategy_sets, table.profiles):
        unique, inverse = _unique_rows(rows)
        support = [_support(row) for row in unique]
        profiles.append(fragments(unique.tolist(), inverse))
        supports.append(fragments(support, inverse))
        labels.append(
            fragments([[str(strategies[k]) for k in s] for s in support], inverse)
        )
    keys = [p.key for p in game.family]
    unique, inverse = _unique_rows(table.distributions)
    distributions = fragments(
        [{keys[p]: w for p, w in enumerate(row) if w > _LISTED_MASS}
         for row in unique.tolist()],
        inverse,
    )
    unique, inverse = _unique_rows(table.payoffs)
    payoffs = fragments(unique.tolist(), inverse)
    unique, inverse = _unique_rows(table.max_regret[:, None])
    max_regret = fragments(unique[:, 0].tolist(), inverse)
    flags = [json.dumps(False), json.dumps(True)]
    # One %-template per entry, in the key order of the reports; its slots
    # take one fragment of each column.
    players = ", ".join(["%s"] * len(table.profiles))
    entry = (
        f'{{"profile": [{players}], "support": [{players}], '
        f'"strategy_labels": [{players}], "payoffs": %s, '
        '"partition_distribution": %s, "max_regret": %s, '
        f'"mode": {json.dumps(table.mode)}, "strict": %s, "degenerate": %s}}'
    )
    columns = (
        *profiles, *supports, *labels, payoffs, distributions, max_regret,
        [flags[b] for b in table.strict.tolist()],
        [flags[b] for b in table.degenerate.tolist()],
    )
    return "[" + ", ".join([entry % row for row in zip(*columns)]) + "]"


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Equilibria of one game plus notes; text, JSON and dict renderings.
    ``error`` is set only on a family entry whose solve hit the budget, in
    place of aborting the rest of the family."""

    game: Game
    options: SolveOptions
    equilibria: EquilibriumTable
    notes: tuple[str, ...] = ()
    error: str | None = None

    @property
    def K(self) -> int:
        return self.game.K

    @cached_property
    def partitions(self) -> tuple[Partition, ...]:
        """The partitions the equilibria realize, in family order."""
        return tuple(self.equilibria.partition_counts())

    def to_json(self) -> str:
        return (
            '{"kind": "solve", "game": %s, "mode": %s, "tol": %s, '
            '"equilibrium_count": %s, "equilibria": %s, "notes": %s}'
        ) % (
            json.dumps(game_summary(self.game)),
            json.dumps(self.options.mode),
            json.dumps(self.options.tol),
            json.dumps(len(self.equilibria)),
            _equilibria_json(self.game, self.equilibria),
            json.dumps(list(self.notes)),
        )

    def to_dict(self) -> dict:
        return json.loads(self.to_json())

    def render_text(self) -> str:
        game = self.game
        lines = [
            f"game {game.name or '<unnamed>'}: {len(game.players)} players, "
            f"K={game.K}, rule={game.rule.kind}, "
            f"{len(game.family)} partitions, {game.profile_count} profiles",
            f"mode={self.options.mode} tol={self.options.tol:g}",
            f"{len(self.equilibria)} validated equilibria",
        ]
        by_partition = self.equilibria.partition_counts()
        if by_partition:
            lines.append("equilibrium partitions (count of equilibria touching):")
            for p, cnt in by_partition.items():
                lines.append(f"  {p.key}  {pretty_partition(p, game.players)}  x{cnt}")
        shown = self.equilibria[:TEXT_ROWS]
        for idx, result in enumerate(shown):
            dist = ", ".join(
                f"{p.key}:{w:.6g}" for p, w in result.partition_distribution.items()
            )
            tag = "strict" if result.strict else result.mode
            if result.degenerate:
                tag += ", family sample"
            probs = "; ".join(
                "[" + ", ".join(f"{x:.6g}" for x in v) + "]"
                for v in result.profile.vectors()
            )
            payoff = "(" + ", ".join(f"{x:g}" for x in result.payoffs) + ")"
            lines.append(
                f"#{idx}: {tag}; payoffs {payoff}; partition {dist}; "
                f"max_regret {result.max_regret:.3g}; profile {probs}"
            )
        if len(self.equilibria) > TEXT_ROWS:
            lines.append(
                f"... {len(self.equilibria) - TEXT_ROWS} more; use --format json "
                "for the full list"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def build_solve_report(game: Game, options: SolveOptions | None = None) -> SolveReport:
    """Run the solvers on one game and package the results.

    Pure equilibria come first, then deduplicated mixed ones; each result
    carries its strict status from the solver. When a strict equilibrium coexists with
    weak-but-not-strict ones, a caveat note is emitted: uniqueness then holds
    only under the strict comparison, because switching the announced
    partition alone can leave the realized partition (and the payoff)
    unchanged.
    """
    options = options or SolveOptions()
    equilibria, notes = _solve_game(game, options)
    strict_count = int(equilibria.strict.sum())
    weak_only = len(equilibria) - strict_count
    if strict_count and weak_only:
        notes.append(
            "uniqueness caveat: "
            f"{strict_count} strict equilibrium(s) coexist with {weak_only} "
            "weak-but-not-strict one(s); a unilateral switch of the announced "
            "partition cannot change the realized partition, so those weak "
            "profiles cannot be improved upon and uniqueness holds only under "
            "the strict reading"
        )
    return SolveReport(
        game=game, options=options, equilibria=equilibria, notes=tuple(notes)
    )


def profiles_from_report(report_dict: dict) -> list[MixedProfile]:
    """Rebuild the mixed profiles listed in a solve report dict."""
    return [
        MixedProfile.from_vectors([np.asarray(v) for v in entry["profile"]])
        for entry in report_dict["equilibria"]
    ]


@dataclass(frozen=True, eq=False)
class ValidateReport:
    """Mechanism axioms per K plus the nesting verification."""

    axioms: dict[int, MechanismAxiomReport]
    nesting: NestingReport

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.axioms.values()) and self.nesting.ok

    def to_dict(self) -> dict:
        return {
            "kind": "validate",
            "ok": self.ok,
            "axioms": {
                str(k): {
                    "ok": report.ok,
                    "maps_into_family": report.maps_into_family.ok,
                    "domains_disjoint": report.domains_disjoint.ok,
                    "domains_cover": report.domains_cover.ok,
                    "domain_sizes": {
                        p.key: size for p, size in report.domain_sizes.items()
                    },
                }
                for k, report in self.axioms.items()
            },
            "nesting": {
                "ok": self.nesting.ok,
                "pairs": [
                    {
                        "k_small": pair.k_small,
                        "k_large": pair.k_large,
                        **{
                            name: {"ok": check.ok, "detail": check.detail}
                            for name, check in pair.checks.items()
                        },
                    }
                    for pair in self.nesting.pairs
                ],
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def render_text(self) -> str:
        lines = [f"validate: {'ok' if self.ok else 'FAILED'}"]
        for k, report in sorted(self.axioms.items()):
            lines.append(
                f"K={k}: axioms "
                f"maps_into_family={'ok' if report.maps_into_family.ok else 'FAIL'} "
                f"disjoint={'ok' if report.domains_disjoint.ok else 'FAIL'} "
                f"cover={'ok' if report.domains_cover.ok else 'FAIL'}"
            )
            sizes = ", ".join(
                f"{p.key}:{size}" for p, size in report.domain_sizes.items()
            )
            lines.append(f"  domain sizes: {sizes}")
        for pair in self.nesting.pairs:
            status = "ok" if pair.ok else "FAIL"
            lines.append(f"nesting K={pair.k_small} into K={pair.k_large}: {status}")
            for name, check in pair.checks.items():
                if not check.ok:
                    lines.append(f"  {name}: {check.detail}")
        return "\n".join(lines)


def build_validate_report(
    family: GameFamily, *, budget: int | None = None
) -> ValidateReport:
    axioms = {k: check_mechanism_axioms(game, budget=budget) for k, game in family}
    return ValidateReport(axioms=axioms, nesting=check_nesting(family))


@dataclass(frozen=True)
class KDiff:
    k_from: int
    k_to: int
    partitions_gained: tuple[Partition, ...]
    partitions_lost: tuple[Partition, ...]


@dataclass(frozen=True, eq=False)
class FamilyReport:
    """The solve report of every game in a family, one per K; the diffs of
    their realized partitions between consecutive K derive from them."""

    family: GameFamily
    per_k: tuple[SolveReport, ...]

    @cached_property
    def diffs(self) -> tuple[KDiff, ...]:
        """One diff per consecutive pair of K, unless either side failed."""
        return tuple(
            KDiff(
                a.K,
                b.K,
                tuple(p for p in b.partitions if p not in a.partitions),
                tuple(p for p in a.partitions if p not in b.partitions),
            )
            for a, b in zip(self.per_k, self.per_k[1:])
            if not (a.error or b.error)
        )

    def report_for(self, K: int) -> SolveReport:
        for entry in self.per_k:
            if entry.K == K:
                return entry
        raise InvalidParameterError(f"no report for K={K}")

    def to_json(self) -> str:
        # Each entry's template stops at its equilibria list, so the one
        # join is the only copy of that list.
        entry = (
            '{"K": %s, "error": %s, "notes": %s, "equilibrium_count": %s, '
            '"equilibrium_partitions": %s, "equilibria": '
        )
        pieces = ['{"kind": "family", "game": %s, "per_k": [' % json.dumps(self.family.base.name)]
        for k, r in enumerate(self.per_k):
            values = (r.K, r.error, list(r.notes), len(r.equilibria), [p.key for p in r.partitions])
            pieces += [", " if k else "", entry % tuple(map(json.dumps, values)),
                       _equilibria_json(r.game, r.equilibria), "}"]
        diffs = [
            {
                "from_K": d.k_from,
                "to_K": d.k_to,
                "partitions_gained": [p.key for p in d.partitions_gained],
                "partitions_lost": [p.key for p in d.partitions_lost],
            }
            for d in self.diffs
        ]
        pieces.append('], "diffs": %s}' % json.dumps(diffs))
        return "".join(pieces)

    def to_dict(self) -> dict:
        return json.loads(self.to_json())

    def render_text(self) -> str:
        lines = [f"family report: {self.family.base.name or '<unnamed>'}"]
        for entry in self.per_k:
            if entry.error:
                lines.append(f"K={entry.K}: ERROR {entry.error}")
                continue
            parts = ", ".join(
                f"{p.key} {pretty_partition(p, entry.game.players)}"
                for p in entry.partitions
            )
            lines.append(
                f"K={entry.K}: {len(entry.equilibria)} equilibria; "
                f"partitions: {parts or '<none>'}"
            )
            for note in entry.notes:
                lines.append(f"  note: {note}")
        for d in self.diffs:
            gained = ", ".join(p.key for p in d.partitions_gained) or "-"
            lost = ", ".join(p.key for p in d.partitions_lost) or "-"
            lines.append(
                f"K={d.k_from} -> K={d.k_to}: partitions gained [{gained}], "
                f"lost [{lost}]"
            )
        return "\n".join(lines)


def _solve_one(game: Game, options: SolveOptions) -> SolveReport:
    """A family entry: the game's solve report, or the budget error that
    stopped its solve beside an empty table."""
    try:
        equilibria, notes = _solve_game(game, options)
    except BudgetExceededError as exc:
        empty = EquilibriumTable.empty(game, options.mode)
        return SolveReport(game, options, empty, error=str(exc))
    return SolveReport(game, options, equilibria, tuple(notes))


def equilibria_across_k(
    family: GameFamily, options: SolveOptions | None = None
) -> FamilyReport:
    """Solve every game in the family. Budget failures are recorded per K and
    do not abort the other games."""
    options = options or SolveOptions()
    return FamilyReport(
        family=family, per_k=tuple(_solve_one(game, options) for _, game in family)
    )
