"""Equilibrium computation: expected utilities, pure-profile enumeration
and support enumeration for mixed equilibria.

Best responses are checked against pure deviations only, which suffices in
finite games: a mixed deviation is a convex combination of pure ones, so its
expected utility never exceeds the best pure deviation. Pure equilibria are
read off ``_pure_regret_arrays``, which holds every pure profile's gain from
each unilateral pure deviation. The support search (``_mixed_candidates``)
covers only the support combinations in which some player mixes, in stacks
by support-size signature, for any number of players. Each stack drops the
combinations with a conditionally dominated in-support strategy and solves
the others' indifference systems at once: two players' systems are linear,
solved by ``_solve_stack``; more players' get one Newton run on the exact
Jacobian, from the uniform point and 16 fixed interior points per
combination, whose line search evaluates each step in two stacked calls:
the full step, then its four halvings at once on the rows it did not
improve. The candidates come back as columns, all validated by one
batched pass, ``_regret_and_strict``. One SVD kernel, ``_lstsq_stack``,
solves every two-player system and every exactly singular Newton step. The
reported ``max_regret`` is the largest improvement any pure deviation
achieves (floored at zero). Realized-partition probabilities and utility per
partition come from one pushforward through the formation rule,
``_pushforward``. Both searches gather their results in one columnar
:class:`EquilibriumTable`, whose fields are all indexed by row, the
realized-partition distributions too; the public functions return its rows
as :class:`EquilibriumResult` objects.

All operations are pure functions of an immutable :class:`~coalgame.games.Game`.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, replace
from functools import reduce
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InternalInconsistencyError, InvalidParameterError
from .games import Game, PartitionStrategy, _check_addressable, _check_budget
from .partitions import Partition, PartitionFamily

DEFAULT_TOL = 1e-9
#: The two expected-utility formulas (direct sum vs. per-partition sum) must
#: agree this tightly, relative to the player's largest absolute payoff (at
#: least 1); a larger gap signals a broken rule or domain partition.
EU_CONSISTENCY_TOL = 1e-10
#: Candidate equilibria closer than this per coordinate are merged.
DEDUP_TOL = 1e-6
#: Most floats in one stack of a support search: the indifference Jacobians
#: and payoff sub-tensors of a chunk of combinations, or the payoff gains of
#: the dominance check. Larger support-size signatures are taken in chunks,
#: so memory stays bounded whatever the budget.
STACK_FLOATS = 1 << 18
_NORM_TOL = 1e-12
#: A realized partition is listed in an equilibrium's distribution when its
#: probability exceeds this.
_LISTED_MASS = 1e-15
#: Newton runs per support combination of three or more players, one from
#: each of ``_newton_starts``.
_NEWTON_STARTS = 17


def _normalized(probabilities) -> np.ndarray:
    """``probabilities`` as a flat vector scaled to sum to one, after
    clipping entries within ``_NORM_TOL`` below zero; raises
    ``InvalidParameterError`` for an empty, non-finite, negative or massless
    vector."""
    probs = np.asarray(probabilities, dtype=np.float64).reshape(-1)
    if probs.size == 0:
        raise InvalidParameterError("mixed strategy over an empty strategy set")
    if not np.isfinite(probs).all():
        raise InvalidParameterError(f"non-finite probability in mixed strategy {probs}")
    if probs.min() < -_NORM_TOL:
        raise InvalidParameterError(
            f"negative probability {probs.min()} in mixed strategy"
        )
    probs = np.clip(probs, 0.0, None)
    with np.errstate(over="ignore"):
        total = probs.sum()
    if total == math.inf:  # finite entries whose sum overflows
        probs = probs / probs.max()
        total = probs.sum()
    if total <= 0:
        raise InvalidParameterError("mixed strategy has zero total mass")
    return probs / total


def _support(probabilities: np.ndarray) -> tuple[int, ...]:
    """Indices of the strategies played with probability above ``_NORM_TOL``."""
    return tuple(np.flatnonzero(probabilities > _NORM_TOL).tolist())


@dataclass(frozen=True, eq=False)
class MixedProfile:
    """One mixed strategy per player: a probability vector over the player's
    strategy list, normalized on construction (entries finite and
    nonnegative, sum within 1e-12 of one) and read-only."""

    probabilities: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "probabilities", tuple(map(_normalized, self.probabilities)))
        for probs in self.probabilities:
            probs.flags.writeable = False

    @classmethod
    def _of(cls, probabilities: tuple[np.ndarray, ...]) -> "MixedProfile":
        """Wrap read-only vectors ``_normalized`` returned as they are: a
        second normalization may move their last bits."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "probabilities", probabilities)
        return profile

    @property
    def n(self) -> int:
        return len(self.probabilities)

    def vectors(self) -> list[np.ndarray]:
        return list(self.probabilities)

    @staticmethod
    def from_vectors(vectors: Iterable[Sequence[float]]) -> "MixedProfile":
        return MixedProfile(tuple(vectors))

    @staticmethod
    def pure(game: Game, indices: Sequence[int]) -> "MixedProfile":
        game._check_indices(indices)
        return MixedProfile.from_vectors(
            _embed(m, (k,), 1.0) for m, k in zip(game.strategy_counts, indices)
        )

    @staticmethod
    def from_profile(game: Game, profile: Sequence[PartitionStrategy]) -> "MixedProfile":
        return MixedProfile.pure(game, game.indices_of_profile(profile))

    @staticmethod
    def uniform(game: Game) -> "MixedProfile":
        return MixedProfile.from_vectors(
            [np.full(m, 1.0 / m) for m in game.strategy_counts]
        )


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """A validated equilibrium: the profile, the mode it passed, expected
    payoffs, the realized-partition distribution it induces, its regret, and
    whether it is also strict (every pure strategy outside a player's support
    does worse by more than the tolerance).

    ``degenerate`` marks a sample drawn from a continuum of equilibria (the
    indifference system was rank-deficient on this support); the sample is
    validated but the full family is not enumerable as a finite list. Which
    point is sampled depends on the solver's steps, not only on the game.
    """

    profile: MixedProfile
    mode: str
    payoffs: np.ndarray
    #: Probability of each realized partition it puts weight on, in family
    #: order.
    partition_distribution: dict[Partition, float]
    max_regret: float
    support: tuple[tuple[int, ...], ...]
    strict: bool
    degenerate: bool = False


@dataclass(frozen=True, eq=False)
class EquilibriumTable(Sequence[EquilibriumResult]):
    """The equilibria of one game as columns, one row per equilibrium, all
    found in one ``mode``. ``table[e]`` builds row e's
    :class:`EquilibriumResult`; a slice, ``take`` and ``concat`` give tables.

    ``profiles[i]`` holds player i's strategy vectors, one row per
    equilibrium, as :class:`MixedProfile` holds them after normalization.
    ``distributions[e, p]`` is the probability that row e realizes
    ``family[p]``. Every array is read-only and indexed by row.
    """

    family: PartitionFamily
    mode: str
    profiles: tuple[np.ndarray, ...]
    payoffs: np.ndarray
    max_regret: np.ndarray
    strict: np.ndarray
    degenerate: np.ndarray
    distributions: np.ndarray

    def __post_init__(self):
        for column in (*self.profiles, *(getattr(self, name) for name in _COLUMNS)):
            column.flags.writeable = False

    @staticmethod
    def empty(game: Game, mode: str) -> "EquilibriumTable":
        return EquilibriumTable(
            game.family, mode, tuple(np.zeros((0, m)) for m in game.strategy_counts),
            np.zeros((0, game.n)), np.zeros(0), np.zeros(0, dtype=bool),
            np.zeros(0, dtype=bool), np.zeros((0, len(game.family))),
        )

    def __len__(self) -> int:
        return len(self.max_regret)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self.take(np.arange(len(self))[key])
        row = range(len(self))[key]
        weights = self.distributions[row]
        listed = np.flatnonzero(weights > _LISTED_MASS).tolist()
        vectors = tuple(p[row] for p in self.profiles)
        return EquilibriumResult(
            profile=MixedProfile._of(vectors),
            mode=self.mode,
            payoffs=self.payoffs[row].copy(),
            partition_distribution={self.family[p]: float(weights[p]) for p in listed},
            max_regret=float(self.max_regret[row]),
            support=tuple(map(_support, vectors)),
            strict=bool(self.strict[row]),
            degenerate=bool(self.degenerate[row]),
        )

    def take(self, rows) -> "EquilibriumTable":
        """The table of ``rows`` (indices, in the order given)."""
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        return replace(
            self,
            profiles=tuple(p[rows] for p in self.profiles),
            **{name: getattr(self, name)[rows] for name in _COLUMNS},
        )

    def concat(self, other: "EquilibriumTable") -> "EquilibriumTable":
        """This table's rows, then ``other``'s, in this table's mode."""
        return replace(
            self,
            profiles=tuple(map(np.vstack, zip(self.profiles, other.profiles))),
            **{
                name: np.concatenate([getattr(self, name), getattr(other, name)])
                for name in _COLUMNS
            },
        )

    def partition_counts(self) -> dict[Partition, int]:
        """How many rows realize each partition with probability above 1e-9,
        for the partitions some row realizes, in family order."""
        counts = (self.distributions > 1e-9).sum(axis=0).tolist()
        return {p: c for p, c in zip(self.family, counts) if c}


#: The array fields of ``EquilibriumTable`` besides ``profiles``.
_COLUMNS = ("payoffs", "max_regret", "strict", "degenerate", "distributions")


class EquilibriumCheck(NamedTuple):
    ok: bool
    max_regret: float


def _sigmas(game: Game, profile: MixedProfile) -> list[np.ndarray]:
    if profile.n != game.n:
        raise InvalidParameterError(
            f"profile has {profile.n} strategies, game has {game.n} players"
        )
    for i, (probs, m) in enumerate(zip(profile.probabilities, game.strategy_counts)):
        if probs.size != m:
            raise InvalidParameterError(
                f"player {i}: mixed strategy length {probs.size} != {m}"
            )
    return profile.vectors()


def _prob_tensor(sigmas: Sequence[np.ndarray]) -> np.ndarray:
    return reduce(np.multiply.outer, sigmas)


def _embed(m: int, support: Sequence[int], weights) -> np.ndarray:
    """Length-``m`` strategy vector with ``weights`` on ``support``, zero
    elsewhere."""
    v = np.zeros(m)
    v[list(support)] = weights
    return v


def _deviation_payoffs(
    payoffs: np.ndarray, sigmas: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Per player, one row per profile: expected payoff of each pure strategy
    against the others' mixtures (rows of ``sigmas``), from a payoff tensor
    (a game's, or a sub-tensor of it) whose axes match their columns."""
    n = len(sigmas)
    out = []
    for i in range(n):
        # Contiguous: on a strided view matmul picks another BLAS kernel,
        # which moves the last bits of the payoffs.
        arr = np.ascontiguousarray(np.moveaxis(payoffs[..., i], i, 0)).reshape(1, -1)
        for j in reversed([j for j in range(n) if j != i]):
            arr = (arr.reshape(len(arr), -1, sigmas[j].shape[1]) @ sigmas[j][:, :, None])[..., 0]
        out.append(arr)
    return out


def expected_utility_components(
    game: Game, profile: MixedProfile, player: int
) -> tuple[float, float]:
    """Expected utility computed two ways: directly over all pure profiles,
    and as a sum of per-realized-partition contributions (``_pushforward``).

    The two must agree whenever the formation rule partitions the profile
    space; their gap is the consistency check behind ``expected_utility``.
    """
    if not 0 <= player < game.n:
        raise InvalidParameterError(f"player {player} not in 0..{game.n - 1}")
    sigmas = _sigmas(game, profile)
    u = game.payoff_tensor[..., player].reshape(-1)
    direct = float(_prob_tensor(sigmas).reshape(-1) @ u)
    return direct, float(_pushforward(game, sigmas, u).sum())


def expected_utility(game: Game, profile: MixedProfile, player: int) -> float:
    """Expected utility of ``player`` under a mixed profile.

    Evaluates both the direct and the partition-decomposed formula and raises
    if they disagree beyond ``EU_CONSISTENCY_TOL`` times the player's largest
    absolute payoff (at least 1), as their rounding grows with the payoffs.
    """
    direct, decomposed = expected_utility_components(game, profile, player)
    scale = max(1.0, float(np.abs(game.payoff_tensor[..., player]).max()))
    if abs(direct - decomposed) > EU_CONSISTENCY_TOL * scale:
        raise InternalInconsistencyError(
            f"expected-utility formulas disagree for player {player}: "
            f"{direct} vs {decomposed}"
        )
    return direct


def _check_solve_args(mode: str, tol: float, max_support: int | None = None) -> None:
    """The one check of the solver options: a known mode, a positive finite
    tolerance, and a support cap (None for none) of at least one. Budgets
    are checked by ``games._check_budget``."""
    if mode not in ("weak", "strict"):
        raise InvalidParameterError(f"mode must be 'weak' or 'strict', got {mode!r}")
    if not 0 < tol < math.inf:
        raise InvalidParameterError(f"tolerance must be positive and finite, got {tol}")
    if max_support is not None and max_support < 1:
        raise InvalidParameterError(f"max_support must be at least 1, got {max_support}")


def is_equilibrium(
    game: Game,
    profile: MixedProfile,
    mode: str = "weak",
    tol: float = DEFAULT_TOL,
) -> EquilibriumCheck:
    """Check the no-profitable-deviation condition.

    Weak mode: no pure deviation improves any player's expected utility by
    more than ``tol`` (sufficient for all mixed deviations in finite games).
    Strict mode additionally requires every pure strategy outside a player's
    support to do strictly worse than the profile by more than ``tol``.
    Returns the flag together with the maximum improvement any deviation
    achieves (floored at zero).
    """
    _check_solve_args(mode, tol)
    sigmas = [s[None] for s in _sigmas(game, profile)]
    _, max_regret, strict = _regret_and_strict(game.payoff_tensor, sigmas, tol)
    ok = max_regret[0] <= tol and (mode == "weak" or strict[0])
    return EquilibriumCheck(ok=bool(ok), max_regret=float(max_regret[0]))


def _regret_and_strict(
    payoffs: np.ndarray, sigmas: Sequence[np.ndarray], tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per profile (one row of each player's ``sigmas``): each player's
    expected utility, the largest gain of any pure deviation (floored at
    zero), and whether every pure strategy outside a player's support does
    worse by more than ``tol``. A ``_deviation_payoffs`` pass holds fewer
    than ``payoffs.size`` floats per profile, so it takes at most
    ``STACK_FLOATS // payoffs.size`` profiles (at least one)."""
    step = max(1, STACK_FLOATS // payoffs.size)
    eu = np.empty((len(sigmas[0]), len(sigmas)))
    max_regret = np.zeros(len(eu))
    strict = np.ones(len(eu), dtype=bool)
    for start in range(0, len(eu), step):
        rows = slice(start, start + step)
        chunk = [s[rows] for s in sigmas]
        for i, (sigma, dev) in enumerate(zip(chunk, _deviation_payoffs(payoffs, chunk))):
            eu[rows, i] = (sigma[:, None, :] @ dev[:, :, None])[:, 0, 0]
            np.fmax(max_regret[rows], dev.max(axis=1) - eu[rows, i], out=max_regret[rows])
            outside = np.where(sigma <= _NORM_TOL, dev, -np.inf).max(axis=1)
            strict[rows] &= ~(outside >= eu[rows, i] - tol)
    return eu, max_regret, strict


def _pushforward(
    game: Game, sigmas: Sequence[np.ndarray], values: np.ndarray | None = None
) -> np.ndarray:
    """Per family partition, the probability of its domain under the product
    measure of ``sigmas``, or the sum of probability times ``values`` (flat,
    one per pure profile) over it. Raises when more than ``_NORM_TOL`` of the
    mass falls on profiles the rule maps outside the family."""
    prob = _prob_tensor(sigmas).reshape(-1)
    realized = game.realized_index.reshape(-1)
    valid = realized >= 0
    escaped = float(prob[~valid].sum())
    if escaped > _NORM_TOL:
        raise InternalInconsistencyError(
            f"probability mass {escaped} falls on profiles the rule maps "
            "outside the partition family; the per-partition decomposition "
            "is undefined"
        )
    weights = prob if values is None else prob * values
    return np.bincount(realized[valid], weights=weights[valid], minlength=len(game.family))


def equilibrium_partitions(
    game: Game, equilibrium: "EquilibriumResult | MixedProfile"
) -> dict[Partition, float]:
    """The probability of each realized partition under a profile, in family
    order (``_pushforward``). Sums to one, or raises
    ``InternalInconsistencyError`` when the rule maps more than ``_NORM_TOL``
    of the mass outside the family."""
    if isinstance(equilibrium, EquilibriumResult):
        equilibrium = equilibrium.profile
    weights = _pushforward(game, _sigmas(game, equilibrium))
    return {game.family[p]: float(w) for p, w in enumerate(weights) if w > _LISTED_MASS}


def _distinct(keys: np.ndarray) -> list[int]:
    """Indices of the rows of ``keys`` (profiles, each player's strategy
    vector concatenated) that differ by more than ``DEDUP_TOL`` in some
    coordinate from every earlier kept row; the first of a cluster wins.

    Two rows that close have projections onto any fixed positive weight
    vector within ``DEDUP_TOL * sum(weights)`` of each other, so a new row is
    compared in full only with the kept ones in that window of the sorted
    projections. The kept set does not depend on the weights. Unequal ones
    (fractional parts of multiples of the golden ratio, plus one) spread the
    projections; equal ones would map every profile to its player count.
    """
    if not len(keys):
        return []
    weights = 1.0 + np.arange(1, keys.shape[1] + 1) * 0.6180339887498949 % 1.0
    proj = (keys @ weights).tolist()
    reach = 2 * DEDUP_TOL * float(weights.sum())
    kept: list[int] = []
    window: list[float] = []  # projections of the kept rows, sorted
    window_ids: list[int] = []
    for index, x in enumerate(proj):
        lo = bisect.bisect_left(window, x - reach)
        near = window_ids[lo : bisect.bisect_right(window, x + reach)]
        if near and (np.abs(keys[near] - keys[index]).max(axis=1) <= DEDUP_TOL).any():
            continue
        pos = bisect.bisect(window, x)
        window.insert(pos, x)
        window_ids.insert(pos, index)
        kept.append(index)
    return kept


def _pure_regret_arrays(game: Game, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per pure profile: worst-player regret, weak mask, strict mask."""
    counts = game.strategy_counts
    _check_addressable(counts, np.float64, "enumerate_pure_equilibria")
    weak = np.ones(counts, dtype=bool)
    strict = np.ones(counts, dtype=bool)
    regret = np.zeros(counts, dtype=np.float64)
    for i in range(game.n):
        u = game.payoff_tensor[..., i]
        best = u.max(axis=i, keepdims=True)
        gap = best - u
        weak &= gap <= tol
        close = (u >= best - tol).sum(axis=i, keepdims=True)
        strict &= (gap <= 0.0) & (close == 1)
        np.maximum(regret, gap, out=regret)
    return regret, weak, strict


def _pure_table(
    game: Game, mode: str, tol: float, budget: int | None
) -> EquilibriumTable:
    """The pure equilibria of ``enumerate_pure_equilibria`` as a table, from
    one regret pass, one ``argwhere`` and one ``realized_index[mask]``."""
    _check_solve_args(mode, tol)
    _check_budget(game.profile_count, budget, "enumerate_pure_equilibria")
    regret, weak, strict = _pure_regret_arrays(game, tol)
    mask = weak if mode == "weak" else strict
    cells = np.argwhere(mask)
    realized = game.realized_index[mask]  # in the order of ``cells``
    escaped = np.flatnonzero(realized < 0)
    if escaped.size:
        raise InternalInconsistencyError(
            f"the rule maps equilibrium cell {tuple(cells[escaped[0]].tolist())} "
            "outside the partition family"
        )
    rows = np.arange(len(cells))
    profiles = []
    for m, column in zip(game.strategy_counts, cells.T):
        point_masses = np.zeros((len(cells), m))
        point_masses[rows, column] = 1.0
        profiles.append(point_masses)
    return EquilibriumTable(
        family=game.family,
        mode=mode,
        profiles=tuple(profiles),
        payoffs=game.payoff_tensor[mask],
        max_regret=regret[mask],
        strict=strict[mask],
        degenerate=np.zeros(len(cells), dtype=bool),
        distributions=np.eye(len(game.family))[realized],
    )


def enumerate_pure_equilibria(
    game: Game,
    mode: str = "weak",
    tol: float = DEFAULT_TOL,
    *,
    budget: int | None = None,
) -> list[EquilibriumResult]:
    """Exhaustively test every pure profile, in lexicographic profile order.
    Each result carries its strict status from the same regret pass, and the
    one partition its profile realizes. Raises ``InternalInconsistencyError``
    naming the first equilibrium cell the rule maps outside the family."""
    return list(_pure_table(game, mode, tol, budget))


def _support_count(m: int, max_size: int) -> int:
    return sum(math.comb(m, size) for size in range(1, max_size + 1))


def _lstsq_stack(matrices: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank and minimum-norm least-squares solution ``V diag(1/s) U^T rhs``
    of each system ``matrices[k] x = rhs[k]`` (or ``rhs``, if 1-D), over the
    singular values above ``matrix_rank``'s cutoff ``s_max * max(rows, cols)
    * eps``. Each row's solution depends only on its own system."""
    rows, cols = matrices.shape[1:]
    u, s, vh = np.linalg.svd(matrices, full_matrices=False)
    kept = s > s[:, :1] * max(rows, cols) * np.finfo(np.float64).eps
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
    x = (((rhs[..., None, :] @ u) * inverse[:, None, :]) @ vh)[:, 0]
    return x, kept.sum(axis=1)


def _solve_stack(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve a stack of indifference systems (right-hand side: last unit
    vector) into ``(mixtures, ok, degenerate)``, each by ``_lstsq_stack``,
    as ``lstsq(rcond=None)`` would. ``degenerate`` marks a rank below the
    column count: a continuum, of which this is a sample. ``ok`` marks a
    solution with residual at most 1e-9 * scale in every entry (scale: the
    largest entry in absolute value, at least 1), entries at least -1e-9 and
    positive mass; ``mixtures`` holds it clipped at zero and normalized.
    """
    n, rows, cols = matrices.shape
    unit = np.eye(rows)[-1]
    scale = np.maximum(1.0, np.abs(matrices).max(axis=(1, 2)))
    live = np.arange(n)
    if rows > cols:
        # Skip the SVD where the least-squares residual exceeds 1e-6 * scale
        # in 2-norm: every solution leaves an entry over 1e-6 * scale /
        # sqrt(rows), above the acceptance bound while rows < 10**6. The part
        # of the right-hand side outside the span of the reduced QR factor's
        # columns is at most that residual, as the span contains the range.
        q = np.linalg.qr(matrices)[0]
        outside = unit - (q @ q[:, -1, :, None])[..., 0]
        live = np.flatnonzero(np.linalg.norm(outside, axis=1) <= 1e-6 * scale)
    m = matrices[live]
    x, rank = _lstsq_stack(m, unit)
    degenerate = np.zeros(n, dtype=bool)
    degenerate[live] = rank < cols
    mass = np.clip(x, 0.0, None)
    total = mass.sum(axis=1)
    accept = (
        (np.abs((m @ x[..., None])[..., 0] - unit).max(axis=1) <= 1e-9 * scale[live])
        & (x.min(axis=1) >= -1e-9)
        & (total > 0)
    )
    ok = np.zeros(n, dtype=bool)
    ok[live] = accept
    mixtures = np.zeros((n, cols))
    mixtures[ok] = mass[accept] / total[accept, None]
    return mixtures, ok, degenerate


def _combination_index(tables: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Fancy index of a stack of support combinations: ``tables[j]`` holds
    player j's strategies one row per combination (or one row for all), and
    the index picks the stack of sub-tensors, combinations first."""
    n = len(tables)
    return tuple(
        t.reshape((len(t),) + (1,) * j + (t.shape[1],) + (1,) * (n - 1 - j))
        for j, t in enumerate(tables)
    )


def _conditionally_dominated(
    game: Game, tables: Sequence[np.ndarray], tol: float
) -> np.ndarray:
    """Per support combination of one size signature, in the order of
    ``itertools.product`` over the rows of ``tables`` (each row of
    ``tables[i]`` one support of player i): whether some player has an
    in-support strategy ``a`` and another strategy ``a'`` that pays more than
    ``a`` by over ``margin = tol + 1e-6 * U * s`` against every profile of
    the others' supports. ``U`` is the largest absolute payoff of that player
    against those profiles, at least 1, and ``s`` the number of strategies in
    all the supports. Which of a player's strategies are so dominated
    depends only on the others' supports, so it is found once per
    combination of theirs, in chunks of at most ``STACK_FLOATS`` gains.

    No candidate of ``_mixed_candidates`` on such a combination passes the
    weak check. It keeps the others inside their supports, so ``a'`` gains
    over ``a`` by more than ``margin`` against their mixture too. Its
    indifference system ties ``a`` to the player's expected utility, a
    mixture of in-support payoffs:
    - n >= 3: residual at most 1e-8 and entries at least -1e-8 before
      clipping and normalization, which move each other player's mixture by
      at most ``(2 |t_j| + 1) * 1e-8`` in 1-norm: ``a`` falls short of the
      expected utility by at most about ``8e-8 * U * s``;
    - two players (``_solve_stack``): residual at most ``1e-9 * scale``,
      ``scale <= 2 U`` for payoff differences, and entries at least -1e-9.
      While ``U`` is below 1e8 the normalization row keeps the other
      player's weights summing to at least 0.8; clipping moves each payoff
      difference by at most ``2 U |t_j| 1e-9`` and normalization scales it
      by at most 1.25: each in-support strategy pays within
      ``2.5e-9 * U * s`` of the first, and ``a`` falls short of the expected
      utility by at most twice that.
    Either way ``a'`` beats the expected utility by more than ``tol``: the
    margin sits over 12 times above the slack. The search skips the solve
    (Porter, Nudelman and Shoham, GEB 2008).
    """
    counts = game.strategy_counts
    size = sum(t.shape[1] for t in tables)
    shape = [len(t) for t in tables]
    dominated = np.zeros(shape, dtype=bool)
    for i, own in enumerate(tables):
        m, others = counts[i], tables[:i] + tables[i + 1 :]
        rest = shape[:i] + shape[i + 1 :]
        total = math.prod(rest)
        step = max(1, STACK_FLOATS // (m * m * math.prod(t.shape[1] for t in others)))
        beaten = []  # per combination of the others' supports and strategy a
        for start in range(0, total, step):
            flat = np.arange(start, min(start + step, total))
            axes = [t[r] for t, r in zip(others, np.unravel_index(flat, rest))]
            axes.insert(i, np.arange(m)[None])
            u = game.payoff_tensor[..., i][_combination_index(axes)]
            # Profiles first, then the combination and player i's strategy.
            u = np.moveaxis(u, i + 1, -1).reshape(len(flat), -1, m).transpose(1, 0, 2)
            margin = tol + 1e-6 * np.maximum(1.0, np.abs(u).max(axis=(0, 2))) * size
            # Row a' and column a: the least a' gains over a on any profile.
            least_gain = (u[..., None] - u[..., None, :]).min(axis=0)
            beaten.append((least_gain > margin[:, None, None]).any(axis=1))
        beaten = np.concatenate(beaten)
        hit = np.zeros((len(beaten), shape[i]), dtype=bool)
        for column in own.T:
            hit |= beaten[:, column]
        dominated |= np.moveaxis(hit.reshape(rest + [shape[i]]), -1, i)
    return dominated.reshape(-1)


def _indifference_system(
    sub: np.ndarray, z: np.ndarray, sizes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals and exact Jacobians of support combinations' indifference
    systems at each row of ``z``: the players' support weights, concatenated
    (``sizes`` are the support sizes), against row k's payoff sub-tensor
    ``sub[k]``. Per player, the residuals are each in-support strategy's
    payoff minus the first one's, then the weights' sum minus one. Payoffs
    are multilinear: the block of player i's rows and j's columns is
    ``sub[k, ..., i]`` contracted with the weights of every player but i and
    j, and i's payoff rows are that block times j's weights. Player i's
    normalization row is ones on their own weights.
    """
    n = len(sizes)
    ends = list(itertools.accumulate(sizes))
    spans = [slice(end - size, end) for size, end in zip(sizes, ends)]
    probs = [z[:, span] for span in spans]
    axes = list(range(n))
    fun = np.empty(z.shape)
    jac = np.zeros(z.shape + z.shape[1:])
    for i in range(n):
        rows = slice(spans[i].start, ends[i] - 1)
        for j in range(n):
            if j == i:
                continue
            others = [x for k in axes if k not in (i, j) for x in (probs[k], [n, k])]
            pair = np.einsum(sub[..., i], [n] + axes, *others, [n, i, j])
            jac[:, rows, spans[j]] = pair[:, 1:] - pair[:, :1]
        j = (i + 1) % n  # any other player's block serves
        fun[:, rows] = (jac[:, rows, spans[j]] @ probs[j][..., None])[..., 0]
        fun[:, ends[i] - 1] = probs[i].sum(axis=1) - 1.0
        jac[:, ends[i] - 1, spans[i]] = 1.0
    return fun, jac


def _newton_steps(jac: np.ndarray, fun: np.ndarray) -> np.ndarray:
    """Newton steps ``-jac^-1 fun`` of a stack of rows, by LU. A row whose
    Jacobian is exactly singular (a zero LU pivot: ``slogdet``'s sign is 0)
    takes the least-squares step of ``_lstsq_stack`` instead, so each row's
    step depends only on its own Jacobian and residual."""
    try:
        return np.linalg.solve(jac, -fun[:, :, None])[..., 0]
    except np.linalg.LinAlgError:
        with np.errstate(divide="ignore"):
            singular = np.linalg.slogdet(jac)[0] == 0
        step = np.empty_like(fun)
        step[~singular] = np.linalg.solve(jac[~singular], -fun[~singular, :, None])[..., 0]
        step[singular] = _lstsq_stack(jac[singular], -fun[singular])[0]
        return step


def _newton(
    sub: np.ndarray, z: np.ndarray, sizes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton's method on ``_indifference_system`` from each row of ``z`` at
    once, each row's steps by ``_newton_steps`` on its own Jacobian. A row
    takes the first of its step and the step halved one to four times at
    which its largest residual falls, and stops when none does, all after 50
    steps. Each step costs two evaluations: the full step on every live row,
    then its four halvings stacked on the rows where it did not fall.
    Returns the final points, largest residuals and Jacobians. An
    overflowing step has a non-finite residual, which does not fall."""
    with np.errstate(over="ignore", invalid="ignore"):
        fun, jac = _indifference_system(sub, z, sizes)
        worst = np.abs(fun).max(axis=1)
        live = np.arange(len(z))
        for _ in range(50):
            steps = [_newton_steps(jac[live], fun[live])]
            for _ in range(4):
                steps.append(steps[-1] / 2)
            moved = np.zeros(live.size, dtype=bool)
            for tries in (steps[:1], steps[1:]):
                wait = np.flatnonzero(~moved)
                if not wait.size:
                    break
                # One stack of trials, trial-major: row k of try t is t * wait.size + k.
                rows = np.tile(live[wait], len(tries))
                trial = z[rows] + np.concatenate([step[wait] for step in tries])
                trial_fun, trial_jac = _indifference_system(sub[rows], trial, sizes)
                trial_worst = np.abs(trial_fun).max(axis=1)
                fell = (trial_worst < worst[rows]).reshape(len(tries), -1)
                hit = np.flatnonzero(fell.any(axis=0))
                pick = fell.argmax(axis=0)[hit] * wait.size + hit
                done = live[wait[hit]]
                z[done], fun[done], jac[done] = trial[pick], trial_fun[pick], trial_jac[pick]
                worst[done] = trial_worst[pick]
                moved[wait[hit]] = True
            live = live[moved]
            if not live.size:
                break
    return z, worst, jac


def _two_player_blocks(
    sub: np.ndarray, sizes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The two linear systems of a stack of two-player support pairs, as
    blocks of the Jacobian of ``_indifference_system``, which on two players
    does not depend on the point. Player 0's payoff-difference rows and
    player 1's normalization row, on player 1's columns, pin down player 1's
    mixture (``m_y``, |t0| x |t1|); the mirror image pins down player 0's
    (``m_x``, |t1| x |t0|). Each right-hand side is the last unit vector."""
    s0, width = sizes[0], sum(sizes)
    jac = _indifference_system(sub, np.zeros((len(sub), width)), sizes)[1]
    m_y = jac[:, np.r_[: s0 - 1, width - 1], s0:]
    m_x = jac[:, np.r_[s0 : width - 1, s0 - 1], :s0]
    return m_y, m_x


def _linear_roots(sub: np.ndarray, sizes: Sequence[int]) -> tuple[np.ndarray, ...]:
    """The solutions of a stack of two-player support pairs, as ``(rows of
    sub, both mixtures concatenated, degenerate)``. ``_solve_stack`` solves
    the taller of the two ``_two_player_blocks`` first, and its partner only
    on the pairs the first accepts. A pair whose two systems are both
    accepted has a solution, ``degenerate`` if either system is."""
    m_y, m_x = _two_player_blocks(sub, sizes)
    order = 1 if sizes[0] >= sizes[1] else -1  # m_y has s0 rows, m_x has s1
    first, second = (m_y, m_x)[::order]
    mix1, ok1, degen1 = _solve_stack(first)
    hit = np.flatnonzero(ok1)
    mix2, ok2, degen2 = _solve_stack(second[hit])
    hit = hit[ok2]
    y, x = (mix1[hit], mix2[ok2])[::order]
    return hit, np.hstack([x, y]), degen1[hit] | degen2[ok2]


def _newton_starts(sizes: Sequence[int]) -> np.ndarray:
    """``_NEWTON_STARTS`` points: the uniform point, then interior points
    from a fixed seed."""
    rng = np.random.default_rng(0)
    return np.vstack([
        np.concatenate([np.full(s, 1.0 / s) for s in sizes]),
        np.concatenate(
            [rng.dirichlet(np.ones(s), _NEWTON_STARTS - 1) for s in sizes], axis=1
        ),
    ])


def _newton_roots(sub: np.ndarray, sizes: Sequence[int]) -> tuple[np.ndarray, ...]:
    """The roots of a stack of multilinear indifference systems, as ``(rows
    of sub, support weights concatenated, degenerate)``, by one ``_newton``
    run from every ``_newton_starts`` point per system. A root has residual
    at most 1e-8 and entries at least -1e-8; it is clipped at zero and each
    player's weights normalized. A rank-deficient Jacobian at a root marks a
    continuum of roots on its support, and the root is reported as a family
    sample. After a system's first root only other regular roots are added,
    in start order, so a continuum gives at most one sample."""
    starts = _newton_starts(sizes)
    block, width = starts.shape
    z, worst, jac = _newton(
        np.repeat(sub, block, axis=0), np.tile(starts, (len(sub), 1)), sizes
    )
    roots = np.flatnonzero((worst <= 1e-8) & (z.min(axis=1) >= -1e-8))
    z, owners = z[roots], roots // block
    degenerate = np.linalg.matrix_rank(jac[roots]) < width
    kept = []
    for _, group in itertools.groupby(range(len(z)), owners.__getitem__):
        mine = [next(group)]
        for k in group:
            if not degenerate[k] and (np.abs(z[mine] - z[k]).max(axis=1) > DEDUP_TOL).all():
                mine.append(k)
        kept += mine
    weights = [
        np.concatenate([p / p.sum() for p in np.split(x, np.cumsum(sizes)[:-1])])
        for x in np.clip(z[kept], 0.0, None)
    ]
    return owners[kept], np.array(weights).reshape(-1, width), degenerate[kept]


def _mixed_candidates(
    game: Game, caps: Sequence[int], tol: float
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Candidates on every support combination in which some support has two
    or more strategies (player i's of at most ``caps[i]``), as columns: each
    player's support position (by size, then lexicographic), per player a
    matrix of strategy vectors, and ``degenerate`` flags. A combination's
    candidates are adjacent rows in start order; they are validated downstream.

    Combinations are taken one stack per support-size signature, for any
    number of players. A stack first drops each combination with a
    conditionally dominated in-support strategy. The others' sub-tensors
    are taken by one fancy index per chunk whose solve holds at most
    ``STACK_FLOATS`` floats of Jacobians and sub-tensors in one evaluation
    of ``_indifference_system``, and the chunk is solved at once:
    two players' linear systems by ``_linear_roots`` (at most one candidate
    per pair), more players' by ``_newton_roots`` (several per combination
    where its starts reach several roots).
    """
    counts = game.strategy_counts
    # Per player and support size k: the supports of size k, one per row.
    supports = [
        [np.array(list(itertools.combinations(range(m), k))) for k in range(1, cap + 1)]
        for m, cap in zip(counts, caps)
    ]
    positions, flags = [np.zeros((0, game.n), dtype=np.intp)], [np.zeros(0, dtype=bool)]
    vectors = [[np.zeros((0, m))] for m in counts]
    for sizes in itertools.product(*(range(1, cap + 1) for cap in caps)):
        if max(sizes) == 1:
            continue
        tables = [s[k - 1] for s, k in zip(supports, sizes)]
        shape = [len(t) for t in tables]
        alive = np.flatnonzero(~_conditionally_dominated(game, tables, tol))
        # Two players' systems are linear: one Jacobian per combination.
        # A Newton run evaluates up to four halved steps per start at once.
        if game.n == 2:
            solve, points = _linear_roots, 1
        else:
            solve, points = _newton_roots, 4 * _NEWTON_STARTS
        floats = points * (sum(sizes) ** 2 + game.n * math.prod(sizes))
        step = max(1, STACK_FLOATS // floats)
        for start in range(0, alive.size, step):
            rows = np.unravel_index(alive[start : start + step], shape)
            chunk = [t[r] for t, r in zip(tables, rows)]
            sub = game.payoff_tensor[_combination_index(chunk)]
            owners, weights, degenerate = solve(sub, sizes)
            parts = np.split(weights, np.cumsum(sizes)[:-1], axis=1)
            for v, m, t, part in zip(vectors, counts, chunk, parts):
                v.append(np.zeros((owners.size, m)))
                np.put_along_axis(v[-1], t[owners], part, axis=1)
            positions.append(np.column_stack(
                [_support_count(m, k - 1) + r[owners] for m, k, r in zip(counts, sizes, rows)]
            ))
            flags.append(degenerate)
    vectors = [np.concatenate(v) for v in vectors]
    return np.concatenate(positions), vectors, np.concatenate(flags)


def _support_table(
    game: Game, max_support: int | None, tol: float, budget: int | None
) -> EquilibriumTable:
    """The equilibria of ``support_enumeration`` as a table: the candidates
    of ``_mixed_candidates`` in combination order, validated by one batched
    ``_regret_and_strict`` call, the accepted ones deduplicated, with their
    distributions from ``_pushforward``."""
    _check_solve_args("weak", tol, max_support)
    counts = game.strategy_counts
    caps = [m if max_support is None else min(m, max_support) for m in counts]
    _check_budget(math.prod(map(_support_count, counts, caps)), budget, "support_enumeration")
    positions, vectors, degenerate = _mixed_candidates(game, caps, tol)
    # Combinations in ``itertools.product`` order, each one's candidates in
    # start order (the sort is stable); a flat index could overflow intp.
    order = np.lexsort(positions.T[::-1])
    # Normalized again, as ``MixedProfile`` is: row sums need not be one.
    sigmas = [(v / v.sum(axis=1, keepdims=True))[order] for v in vectors]
    payoffs, max_regret, strict = _regret_and_strict(game.payoff_tensor, sigmas, tol)
    accepted = np.flatnonzero(max_regret <= tol)
    rows = accepted[_distinct(np.hstack([s[accepted] for s in sigmas]))]
    profiles = tuple(s[rows] for s in sigmas)
    distributions = [_pushforward(game, [p[r] for p in profiles]) for r in range(len(rows))]
    return EquilibriumTable(
        family=game.family,
        mode="weak",
        profiles=profiles,
        payoffs=payoffs[rows],
        max_regret=max_regret[rows],
        strict=strict[rows],
        degenerate=degenerate[order][rows],
        distributions=np.array(distributions).reshape(len(rows), len(game.family)),
    )


def support_enumeration(
    game: Game,
    max_support: int | None = None,
    tol: float = DEFAULT_TOL,
    *,
    budget: int | None = None,
) -> list[EquilibriumResult]:
    """Search the support combinations up to ``max_support`` per player in
    which some support has two or more strategies; pure profiles are left to
    ``enumerate_pure_equilibria``. The budget counts every combination.

    ``_mixed_candidates`` solves the indifference system of each
    combination (equal expected utility across in-support strategies,
    probabilities nonnegative and summing to one) in stacks by support-size
    signature, for any number of players. It skips a combination in which
    some in-support strategy is conditionally dominated by more than a
    margin over ``tol``, as none of its candidates could pass validation.
    One batched ``_regret_and_strict`` pass over the candidates, in
    combination order, gives the weak check and their payoffs, regret and
    strictness. Accepted ones are deduplicated within per-coordinate
    distance 1e-6, so the first of a cluster of near-duplicates is the one
    kept. A solution may still be pure once clipped. Singular systems are
    sampled rather than skipped: the sample is reported with
    ``degenerate=True`` to mark a continuum of equilibria on that support.
    Two players' systems are linear, each solved by the SVD's minimum-norm
    least squares (``_solve_stack``). On three or more players each gets one
    Newton run on the exact Jacobian from 17 fixed starts (LU steps, and
    least-squares steps where a Jacobian is exactly singular), so equilibria
    that these starts miss are not found.
    """
    return list(_support_table(game, max_support, tol, budget))
