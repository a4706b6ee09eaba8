"""Workload definitions and the seeded spec generators.

Every workload is one ``coalgame`` CLI command on one spec file. The dinner
workload runs the bundled ``dinner.spec``; the other three run a spec this
module writes from the benchmark seed, so the program only ever sees the
spec file.

Generated games are a fixed base draw (a constant per workload) whose
players, and for action games the action order, are relabeled by a
permutation drawn from the seed. A relabeled game is the same game listed
in another order: the profile order, and so the order in which the solver
meets candidates, changes with the seed, while the equilibrium set, and so
``equilibria_found``, stays comparable across seeds.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DINNER_SPEC = SRC / "coalgame" / "specs" / "dinner.spec"

#: The CLI's default ``--tol``; the workloads pass no ``--tol``.
TOL = 1e-9


def _relabel(rng: random.Random, n: int) -> list[int]:
    """``order[j]`` is the base player listed at position ``j``."""
    order = list(range(n))
    rng.shuffle(order)
    return order


def _canonical_key(blocks: list[list[int]]) -> str:
    blocks = sorted(sorted(b) for b in blocks)
    return "|".join(",".join(str(m) for m in b) for b in blocks)


def _dump(obj: dict) -> str:
    # The same layout as coalgame.gamespec.serialize_spec, so a generated
    # spec is already in canonical form.
    return json.dumps(obj, indent=2) + "\n"


def random_action_spec(n: int, m: int, base_seed: int, seed: int) -> str:
    """Generic ``n``-player game with ``m`` actions each at K=1.

    Payoffs are continuous uniform on [0, 1) (drawn from ``base_seed``), so
    the game has no ties; ``seed`` relabels players and actions.
    """
    base = random.Random(base_seed)
    labels = [f"a{k}" for k in range(m)]
    payoff = {
        prof: [base.random() for _ in range(n)]
        for prof in itertools.product(range(m), repeat=n)
    }
    rng = random.Random(seed)
    order = _relabel(rng, n)
    actions = list(range(m))
    rng.shuffle(actions)
    rows = []
    for listed in itertools.product(actions, repeat=n):
        # listed[j] is the action of base player order[j].
        base_prof = [0] * n
        for j, a in enumerate(listed):
            base_prof[order[j]] = a
        vec = payoff[tuple(base_prof)]
        rows.append(
            {
                "partition": "|".join(str(i) for i in range(n)),
                "actions": [labels[a] for a in listed],
                "payoff": [vec[order[j]] for j in range(n)],
            }
        )
    return _dump(
        {
            "name": f"random_{n}p{m}a",
            "players": [f"p{order[j]}" for j in range(n)],
            "K": 1,
            "rule": "coalition_unanimity",
            "actions": [labels[a] for a in actions],
            "payoffs": rows,
            "default_payoff": [0] * n,
        }
    )


def coalition_spec(n: int, K: int, m: int, base_seed: int, seed: int) -> str:
    """Degenerate coalition game: ``n`` players, blocks of at most ``K``,
    ``m`` payoff-irrelevant actions, and small integer payoffs per realized
    partition (drawn from ``base_seed``), like the bundled dinner game.
    ``seed`` relabels the players."""
    from coalgame.partitions import enumerate_partitions

    family = enumerate_partitions(n, K)
    base = random.Random(base_seed)
    payoff = {p.key: [base.randint(0, 5) for _ in range(n)] for p in family}
    order = _relabel(random.Random(seed), n)
    position = {player: j for j, player in enumerate(order)}
    listed = {}
    for p in family:
        key = _canonical_key([[position[i] for i in b.members] for b in p.blocks])
        listed[key] = [payoff[p.key][order[j]] for j in range(n)]
    rows = [{"partition": p.key, "payoff": listed[p.key]} for p in family]
    return _dump(
        {
            "name": f"coalition_{n}p_k{K}",
            "players": [f"p{order[j]}" for j in range(n)],
            "K": K,
            "rule": "coalition_unanimity",
            "actions": [f"a{k}" for k in range(m)],
            "payoffs": rows,
            "default_payoff": [0] * n,
        }
    )


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "solve" or "family"
    #: Exact equilibrium count per K, when the count is known exactly.
    expected: dict[int, int] | None
    flags: tuple[str, ...] = ()
    #: seed -> spec text; None runs the bundled dinner spec.
    generate: Callable[[int], str] | None = None
    #: (k_min, k_max) for ``family``; None uses the spec's own K.
    k_range: tuple[int, int] | None = None

    def spec_path(self, seed: int, work: Path) -> Path:
        if self.generate is None:
            return DINNER_SPEC
        path = work / f"{self.name}_seed{seed}.spec"
        path.write_text(self.generate(seed), encoding="utf-8")
        return path

    def argv(self, spec: Path) -> list[str]:
        k_flags = []
        if self.k_range is not None:
            k_flags = ["--k-min", str(self.k_range[0]), "--k-max", str(self.k_range[1])]
        return [self.command, str(spec), *k_flags, *self.flags, "--format", "json"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dinner_family",
            command="family",
            expected={1: 1, 2: 2736},
            k_range=(1, 2),
        ),
        Workload(
            name="coalition_support1",
            command="solve",
            flags=("--max-support", "1"),
            expected={3: 464},
            generate=lambda seed: coalition_spec(3, 3, 2, 1612, seed),
        ),
        Workload(
            name="random_2p",
            command="solve",
            expected=None,
            generate=lambda seed: random_action_spec(2, 7, 1612, seed),
        ),
        Workload(
            name="random_3p",
            command="solve",
            expected=None,
            generate=lambda seed: random_action_spec(3, 3, 1612, seed),
        ),
    )
}
