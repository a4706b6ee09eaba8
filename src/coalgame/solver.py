"""Equilibrium computation: expected utilities, pure-profile enumeration,
support enumeration for mixed equilibria, and a replicator refiner.

Best responses are checked against pure deviations only, which suffices in
finite games: a mixed deviation is a convex combination of pure ones, so its
expected utility never exceeds the best pure deviation. Every candidate an
algorithm produces is validated with ``is_equilibrium`` before it is
reported; the reported ``max_regret`` is the largest improvement any pure
deviation achieves (floored at zero).

All operations are pure functions of an immutable :class:`~coalgame.games.Game`.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy import optimize

from .errors import InternalInconsistencyError, InvalidParameterError
from .games import Game, StrategyProfile, _check_budget
from .partitions import Partition

DEFAULT_TOL = 1e-9
#: The two expected-utility formulas (direct sum vs. per-partition sum) must
#: agree this tightly; a larger gap signals a broken rule or domain partition.
EU_CONSISTENCY_TOL = 1e-10
#: Candidate equilibria closer than this per coordinate are merged.
DEDUP_TOL = 1e-6
#: Most floats in one stack of two-player indifference matrices; larger
#: support-size buckets are solved in chunks, so memory stays bounded
#: whatever the budget.
STACK_FLOATS = 1 << 18
_NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class MixedStrategy:
    """A probability vector over one player's strategy list (normalized on
    construction; entries nonnegative, sum within 1e-12 of one)."""

    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=np.float64).reshape(-1)
        if probs.size == 0:
            raise InvalidParameterError("mixed strategy over an empty strategy set")
        if probs.min() < -_NORM_TOL:
            raise InvalidParameterError(
                f"negative probability {probs.min()} in mixed strategy"
            )
        probs = np.clip(probs, 0.0, None)
        total = probs.sum()
        if total <= 0:
            raise InvalidParameterError("mixed strategy has zero total mass")
        probs = probs / total
        probs.flags.writeable = False
        object.__setattr__(self, "probabilities", probs)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(int(k) for k in np.nonzero(self.probabilities > _NORM_TOL)[0])

    def is_pure(self) -> bool:
        return np.count_nonzero(self.probabilities > _NORM_TOL) == 1


@dataclass(frozen=True, eq=False)
class MixedProfile:
    """One mixed strategy per player."""

    strategies: tuple[MixedStrategy, ...]

    @property
    def n(self) -> int:
        return len(self.strategies)

    def is_pure(self) -> bool:
        return all(s.is_pure() for s in self.strategies)

    def vectors(self) -> list[np.ndarray]:
        return [s.probabilities for s in self.strategies]

    @staticmethod
    def from_vectors(vectors: Iterable[Sequence[float]]) -> "MixedProfile":
        return MixedProfile(tuple(MixedStrategy(np.asarray(v)) for v in vectors))

    @staticmethod
    def pure(game: Game, indices: Sequence[int]) -> "MixedProfile":
        vectors = []
        for i, k in enumerate(indices):
            v = np.zeros(game.strategy_counts[i])
            v[k] = 1.0
            vectors.append(v)
        return MixedProfile.from_vectors(vectors)

    @staticmethod
    def from_profile(game: Game, profile: StrategyProfile) -> "MixedProfile":
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
    validated but the full family is not enumerable as a finite list.
    """

    profile: MixedProfile
    mode: str
    payoffs: np.ndarray
    partition_distribution: dict[Partition, float]
    max_regret: float
    support: tuple[tuple[int, ...], ...]
    strict: bool
    degenerate: bool = False


class EquilibriumCheck(NamedTuple):
    ok: bool
    max_regret: float


def _sigmas(game: Game, profile: MixedProfile) -> list[np.ndarray]:
    if profile.n != game.n:
        raise InvalidParameterError(
            f"profile has {profile.n} strategies, game has {game.n} players"
        )
    out = []
    for i, strategy in enumerate(profile.strategies):
        if strategy.probabilities.size != game.strategy_counts[i]:
            raise InvalidParameterError(
                f"player {i}: mixed strategy length "
                f"{strategy.probabilities.size} != {game.strategy_counts[i]}"
            )
        out.append(strategy.probabilities)
    return out


def _prob_tensor(sigmas: Sequence[np.ndarray]) -> np.ndarray:
    return reduce(np.multiply.outer, sigmas)


def _deviation_payoffs(game: Game, sigmas: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per player: expected payoff of each pure strategy against the others'
    mixtures."""
    out = []
    for i in range(game.n):
        arr = np.moveaxis(game.payoff_tensor[..., i], i, 0)
        for j in reversed([j for j in range(game.n) if j != i]):
            arr = np.tensordot(arr, sigmas[j], axes=([-1], [0]))
        out.append(arr)
    return out


def expected_utility_components(
    game: Game, profile: MixedProfile, player: int
) -> tuple[float, float]:
    """Expected utility computed two ways: directly over all pure profiles,
    and as a sum of per-realized-partition contributions.

    The two must agree whenever the formation rule partitions the profile
    space; their gap is the consistency check behind ``expected_utility``.
    """
    if not 0 <= player < game.n:
        raise InvalidParameterError(f"player {player} not in 0..{game.n - 1}")
    sigmas = _sigmas(game, profile)
    prob = _prob_tensor(sigmas).reshape(-1)
    u = game.payoff_tensor[..., player].reshape(-1)
    direct = float(prob @ u)

    realized = game.realized_index.reshape(-1)
    valid = realized >= 0
    escaped = float(prob[~valid].sum())
    if escaped > _NORM_TOL:
        raise InternalInconsistencyError(
            f"probability mass {escaped} falls on profiles the rule maps "
            "outside the partition family; the per-partition decomposition "
            "is undefined"
        )
    per_partition = np.bincount(
        realized[valid], weights=(prob * u)[valid], minlength=len(game.family)
    )
    return direct, float(per_partition.sum())


def expected_utility(game: Game, profile: MixedProfile, player: int) -> float:
    """Expected utility of ``player`` under a mixed profile.

    Evaluates both the direct and the partition-decomposed formula and raises
    if they disagree beyond ``EU_CONSISTENCY_TOL``.
    """
    direct, decomposed = expected_utility_components(game, profile, player)
    if abs(direct - decomposed) > EU_CONSISTENCY_TOL:
        raise InternalInconsistencyError(
            f"expected-utility formulas disagree for player {player}: "
            f"{direct} vs {decomposed}"
        )
    return direct


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
    if tol <= 0:
        raise InvalidParameterError(f"tolerance must be positive, got {tol}")
    if mode not in ("weak", "strict"):
        raise InvalidParameterError(f"mode must be 'weak' or 'strict', got {mode!r}")
    sigmas = _sigmas(game, profile)
    _, max_regret, strict = _regret_and_strict(
        sigmas, _deviation_payoffs(game, sigmas), tol
    )
    ok = max_regret <= tol and (mode == "weak" or strict)
    return EquilibriumCheck(ok=ok, max_regret=max_regret)


def _regret_and_strict(
    sigmas: Sequence[np.ndarray], dev: Sequence[np.ndarray], tol: float
) -> tuple[np.ndarray, float, bool]:
    """From one deviation-payoff pass: each player's expected utility, the
    largest gain of any pure deviation (floored at zero), and whether every
    pure strategy outside a player's support does worse by more than ``tol``.
    """
    eu = np.array([float(sigmas[i] @ dev[i]) for i in range(len(sigmas))])
    max_regret = 0.0
    strict = True
    for i, sigma in enumerate(sigmas):
        max_regret = max(max_regret, float(dev[i].max() - eu[i]))
        outside = sigma <= _NORM_TOL
        if np.any(outside) and float(dev[i][outside].max()) >= eu[i] - tol:
            strict = False
    return eu, max_regret, strict


def equilibrium_partitions(
    game: Game, equilibrium: "EquilibriumResult | MixedProfile"
) -> dict[Partition, float]:
    """Pushforward of a profile's product measure through the formation rule:
    the probability of each realized partition. Sums to one."""
    profile = (
        equilibrium.profile
        if isinstance(equilibrium, EquilibriumResult)
        else equilibrium
    )
    sigmas = _sigmas(game, profile)
    pure_cell = _pure_cell(sigmas)
    if pure_cell is not None:
        p = int(game.realized_index[pure_cell])
        if p >= 0:
            return {game.family[p]: 1.0}
    prob = _prob_tensor(sigmas).reshape(-1)
    realized = game.realized_index.reshape(-1)
    valid = realized >= 0
    weights = np.bincount(
        realized[valid], weights=prob[valid], minlength=len(game.family)
    )
    return {
        game.family[p]: float(w) for p, w in enumerate(weights) if w > 1e-15
    }


def _pure_cell(sigmas: Sequence[np.ndarray]) -> tuple[int, ...] | None:
    cell = []
    for sigma in sigmas:
        hot = np.nonzero(sigma > _NORM_TOL)[0]
        if hot.size != 1:
            return None
        cell.append(int(hot[0]))
    return tuple(cell)


def _make_result(
    game: Game, profile: MixedProfile, tol: float, degenerate: bool
) -> EquilibriumResult:
    """Package a profile that passed the weak check."""
    sigmas = _sigmas(game, profile)
    eu, max_regret, strict = _regret_and_strict(
        sigmas, _deviation_payoffs(game, sigmas), tol
    )
    return EquilibriumResult(
        profile=profile,
        mode="weak",
        payoffs=eu,
        partition_distribution=equilibrium_partitions(game, profile),
        max_regret=max_regret,
        support=tuple(s.support for s in profile.strategies),
        strict=strict,
        degenerate=degenerate,
    )


def _distinct(profiles: Sequence[MixedProfile]) -> list[int]:
    """Indices of the profiles that differ by more than ``DEDUP_TOL`` in some
    coordinate from every earlier kept one; the first of a cluster wins.

    Two profiles that close have projections onto any fixed weight vector
    within ``DEDUP_TOL * sum(weights)`` of each other, so a new profile is
    compared in full only with the kept ones in that window of the sorted
    projections.
    """
    if not profiles:
        return []
    keys = np.array([np.concatenate(p.vectors()) for p in profiles])
    weights = np.random.default_rng(0).random(keys.shape[1])
    proj = (keys @ weights).tolist()
    reach = 2 * DEDUP_TOL * float(weights.sum())
    kept: list[int] = []
    window: list[float] = []  # projections of the kept profiles, sorted
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


def enumerate_pure_equilibria(
    game: Game,
    mode: str = "weak",
    tol: float = DEFAULT_TOL,
    *,
    budget: int | None = None,
) -> list[EquilibriumResult]:
    """Exhaustively test every pure profile, in lexicographic profile order.
    Each result carries its strict status from the same regret pass."""
    if mode not in ("weak", "strict"):
        raise InvalidParameterError(f"mode must be 'weak' or 'strict', got {mode!r}")
    _check_budget(game.profile_count, budget, "enumerate_pure_equilibria")
    regret, weak, strict = _pure_regret_arrays(game, tol)
    mask = weak if mode == "weak" else strict
    # One immutable point mass per (player, strategy), shared by the results.
    point_mass: dict[tuple[int, int], MixedStrategy] = {}

    def pure_strategy(i: int, k: int) -> MixedStrategy:
        if (i, k) not in point_mass:
            v = np.zeros(game.strategy_counts[i])
            v[k] = 1.0
            point_mass[(i, k)] = MixedStrategy(v)
        return point_mass[(i, k)]

    results = []
    for cell in np.argwhere(mask):
        cell = tuple(int(v) for v in cell)
        profile = MixedProfile(tuple(pure_strategy(i, k) for i, k in enumerate(cell)))
        p = int(game.realized_index[cell])
        dist = {game.family[p]: 1.0} if p >= 0 else {}
        results.append(
            EquilibriumResult(
                profile=profile,
                mode=mode,
                payoffs=game.payoff_tensor[cell].copy(),
                partition_distribution=dist,
                max_regret=float(regret[cell]),
                support=tuple((k,) for k in cell),
                strict=bool(strict[cell]),
            )
        )
    return results


def _support_iter(m: int, max_size: int):
    for size in range(1, max_size + 1):
        yield from itertools.combinations(range(m), size)


def _support_count(m: int, max_size: int) -> int:
    return sum(math.comb(m, size) for size in range(1, max_size + 1))


def _residual_ok(matrix: np.ndarray, solution: np.ndarray, rhs: np.ndarray) -> bool:
    scale = max(1.0, float(np.abs(matrix).max()))
    return float(np.abs(matrix @ solution - rhs).max()) <= 1e-9 * scale


def _accept(
    matrix: np.ndarray, solution: np.ndarray, rhs: np.ndarray
) -> np.ndarray | None:
    """The acceptance checks on a solved indifference system: residual at
    most 1e-9 * scale, entries at least -1e-9 and positive mass. Returns the
    normalized mixture, or None."""
    if not _residual_ok(matrix, solution, rhs):
        return None
    if solution.min() < -1e-9:
        return None
    solution = np.clip(solution, 0.0, None)
    total = solution.sum()
    if total <= 0:
        return None
    return solution / total


def _solve_indifference(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray | None, bool]:
    """Solve an indifference system; returns (solution or None, degenerate).

    Square nonsingular systems are solved exactly; singular or rectangular
    ones fall back to least squares, and rank deficiency marks the support as
    carrying a continuum of solutions (the returned point is one sample).
    """
    rows, cols = matrix.shape
    solution = None
    if rows == cols:
        try:
            solution = np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError:
            solution = None
    if solution is None or not np.all(np.isfinite(solution)):
        solution, _, rank, _ = np.linalg.lstsq(matrix, rhs, rcond=None)
        degenerate = rank < cols
    else:
        degenerate = np.linalg.matrix_rank(matrix) < cols
    return _accept(matrix, solution, rhs), bool(degenerate)


def _indifference_systems(
    a: np.ndarray, b: np.ndarray, t0: np.ndarray, t1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both players' indifference systems for a stack of support pairs.

    Row k of ``t0`` (N x s0) and of ``t1`` (N x s1) is one pair. Player 0
    indifferent across t0 pins down player 1's mixture (``m_y``, N x s0 x
    s1), and vice versa (``m_x``, N x s1 x s0); each system carries the
    simplex normalization as its last row, so its right-hand side is the
    last unit vector.
    """
    sub_a = a[t0[:, :, None], t1[:, None, :]]
    sub_b = b[t0[:, :, None], t1[:, None, :]]
    n, s0, s1 = sub_a.shape
    m_y = np.concatenate(
        [sub_a[:, 1:, :] - sub_a[:, :1, :], np.ones((n, 1, s1))], axis=1
    )
    m_x = np.concatenate(
        [(sub_b[:, :, 1:] - sub_b[:, :, :1]).transpose(0, 2, 1), np.ones((n, 1, s0))],
        axis=1,
    )
    return m_y, m_x


def _screen_stack(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Screen a stack of indifference systems (right-hand side: last unit
    vector) with stacked linear algebra.

    Returns ``(solutions, rejected)``. Row k of ``solutions`` holds the
    stacked solve of a full-rank square system, bit-for-bit the solution
    ``_solve_indifference`` computes for it, and is NaN where only its scalar
    steps can decide: a rank-deficient or rectangular system, or one whose
    stacked solve failed. ``rejected`` marks the systems
    ``_solve_indifference`` is sure to reject: a stacked solution with an
    entry below -1e-9, or an overdetermined system whose least-squares
    residual exceeds 1e-6 * scale in 2-norm. The residual of any solution is
    at least that large, and its largest entry at least its 2-norm over
    sqrt(rows), so the screen sits over 1000 times above the 1e-9 * scale
    acceptance bound. An underdetermined system is never rejected here: with
    its rows independent it is always consistent.
    """
    n, rows, cols = matrices.shape
    solutions = np.full((n, cols), np.nan)
    if rows == cols:
        full = np.linalg.matrix_rank(matrices) == cols
        if full.any():
            rhs = np.zeros((int(full.sum()), rows, 1))
            rhs[:, -1] = 1.0
            try:
                solutions[full] = np.linalg.solve(matrices[full], rhs)[..., 0]
            except np.linalg.LinAlgError:
                pass
            solutions[~np.isfinite(solutions).all(axis=1)] = np.nan
        return solutions, solutions.min(axis=1) < -1e-9
    if rows < cols:
        return solutions, np.zeros(n, dtype=bool)
    # The part of the right-hand side outside the span of the reduced QR
    # factor's columns; that span contains the range, so this is at most the
    # least-squares residual.
    q = np.linalg.qr(matrices)[0]
    residual = -(q @ q[:, -1, :, None])[..., 0]
    residual[:, -1] += 1.0
    scale = np.maximum(1.0, np.abs(matrices).max(axis=(1, 2)))
    return solutions, np.linalg.norm(residual, axis=1) > 1e-6 * scale


def _finish(matrix: np.ndarray, solution: np.ndarray) -> tuple[np.ndarray | None, bool]:
    """``_solve_indifference`` for one system of a screened stack: the
    acceptance checks on a stacked solution, the scalar steps otherwise."""
    rhs = np.zeros(len(matrix))
    rhs[-1] = 1.0
    if np.isnan(solution[0]):
        return _solve_indifference(matrix, rhs)
    return _accept(matrix, solution, rhs), False


def _two_player_mixed_candidates(
    game: Game,
    supports0: Sequence[tuple[int, ...]],
    supports1: Sequence[tuple[int, ...]],
) -> dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[list[np.ndarray], bool]]:
    """Candidates of a two-player game on every support pair with a support
    of two or more strategies, keyed by the pair.

    Pairs are solved one stack per (|t0|, |t1|) bucket, in chunks of at most
    ``STACK_FLOATS`` floats per matrix stack. A pair yields the candidate
    ``_solve_indifference`` gives for both its systems, with the same
    ``degenerate`` flag; only systems the screen cannot settle take its
    scalar steps.
    """
    a = game.payoff_tensor[..., 0]
    b = game.payoff_tensor[..., 1]
    # Supports come in increasing size, so each group holds one size.
    groups0 = [list(g) for _, g in itertools.groupby(supports0, len)]
    groups1 = [list(g) for _, g in itertools.groupby(supports1, len)]
    found = {}
    for group0 in groups0:
        for group1 in groups1:
            s0, s1 = len(group0[0]), len(group1[0])
            if s0 == s1 == 1:
                continue
            rows0, rows1 = np.array(group0), np.array(group1)
            pairs = len(group0) * len(group1)
            step = max(1, STACK_FLOATS // (s0 * s1))
            for start in range(0, pairs, step):
                i0, i1 = np.divmod(np.arange(start, min(start + step, pairs)), len(group1))
                m_y, m_x = _indifference_systems(a, b, rows0[i0], rows1[i1])
                sol_y, rejected_y = _screen_stack(m_y)
                sol_x, rejected_x = _screen_stack(m_x)
                for k in np.flatnonzero(~(rejected_y | rejected_x)):
                    y, degen_y = _finish(m_y[k], sol_y[k])
                    if y is None:
                        continue
                    x, degen_x = _finish(m_x[k], sol_x[k])
                    if x is None:
                        continue
                    t0, t1 = group0[i0[k]], group1[i1[k]]
                    full_x = np.zeros(game.strategy_counts[0])
                    full_x[list(t0)] = x
                    full_y = np.zeros(game.strategy_counts[1])
                    full_y[list(t1)] = y
                    found[(t0, t1)] = ([full_x, full_y], degen_y or degen_x)
    return found


def _n_player_candidates(
    game: Game, supports: tuple[tuple[int, ...], ...]
) -> list[tuple[list[np.ndarray], bool]]:
    """Candidates on a support combination for three or more players.

    The indifference system is multilinear, so it is solved numerically
    (starting from the uniform point); the uniform point itself is also kept
    as a candidate, which catches payoff-flat continua that leave the system
    rank-deficient. Every candidate is validated downstream.
    """
    sizes = [len(t) for t in supports]
    sub = game.payoff_tensor[np.ix_(*supports)]

    def unpack(z: np.ndarray) -> list[np.ndarray]:
        probs, offset = [], 0
        for size in sizes:
            probs.append(z[offset : offset + size])
            offset += size
        return probs

    def restricted_dev(probs: list[np.ndarray], i: int) -> np.ndarray:
        arr = np.moveaxis(sub[..., i], i, 0)
        for j in reversed([j for j in range(game.n) if j != i]):
            arr = np.tensordot(arr, probs[j], axes=([-1], [0]))
        return arr

    def system(z: np.ndarray) -> np.ndarray:
        probs = unpack(z)
        eqs = []
        for i in range(game.n):
            dev = restricted_dev(probs, i)
            eqs.extend(dev[1:] - dev[0])
            eqs.append(probs[i].sum() - 1.0)
        return np.array(eqs)

    def full_vectors(probs: list[np.ndarray]) -> list[np.ndarray]:
        full = []
        for i, t in enumerate(supports):
            v = np.zeros(game.strategy_counts[i])
            v[list(t)] = probs[i]
            full.append(v)
        return full

    uniform = np.concatenate([np.full(size, 1.0 / size) for size in sizes])
    if all(size == 1 for size in sizes):
        return [(full_vectors(unpack(uniform)), False)]

    sol = optimize.root(system, uniform, method="hybr")
    z = None
    if sol.success and float(np.abs(system(sol.x)).max()) <= 1e-8:
        z = sol.x
    elif float(np.abs(system(uniform)).max()) <= 1e-9:
        z = uniform
    if z is None or z.min() < -1e-8:
        return []
    probs = [np.clip(p, 0.0, None) for p in unpack(z)]
    if not all(p.sum() > 0 for p in probs):
        return []
    probs = [p / p.sum() for p in probs]

    # Rank-deficient Jacobian at the solution marks a continuum of solutions
    # on this support; the point is then reported as a family sample.
    h = 1e-6
    jac = np.empty((z.size, z.size))
    for j in range(z.size):
        bump = np.zeros_like(z)
        bump[j] = h
        jac[:, j] = (system(z + bump) - system(z - bump)) / (2 * h)
    degenerate = bool(np.linalg.matrix_rank(jac) < z.size)
    return [(full_vectors(probs), degenerate)]


def support_enumeration(
    game: Game,
    max_support: int | None = None,
    tol: float = DEFAULT_TOL,
    *,
    budget: int | None = None,
) -> list[EquilibriumResult]:
    """Search all support combinations up to ``max_support`` per player.

    On each combination the indifference system (equal expected utility
    across in-support strategies, probabilities nonnegative and summing to
    one) is solved; solutions are validated with ``is_equilibrium`` and then
    deduplicated within per-coordinate distance 1e-6. Singular systems are
    sampled rather than skipped: the sample is reported with
    ``degenerate=True`` to mark a continuum of equilibria on that support.
    Pure-support combinations reuse the exhaustive pure-profile check. Two
    players' systems are solved in stacks by support size; every candidate
    is still validated in combination order, so the first of a cluster of
    near-duplicates is the one kept.
    """
    counts = game.strategy_counts
    caps = [min(m, max_support if max_support else m) for m in counts]
    if any(c < 1 for c in caps):
        raise InvalidParameterError("max_support must be at least 1")
    total = 1
    for m, cap in zip(counts, caps):
        total *= _support_count(m, cap)
    _check_budget(total, budget, "support_enumeration")

    _, weak_mask, _ = _pure_regret_arrays(game, tol)
    supports = [list(_support_iter(m, cap)) for m, cap in zip(counts, caps)]
    if game.n == 2:
        two_player = _two_player_mixed_candidates(game, *supports)

    def candidates_for(combo: tuple[tuple[int, ...], ...]):
        sizes = [len(t) for t in combo]
        if all(size == 1 for size in sizes):
            cell = tuple(t[0] for t in combo)
            if weak_mask[cell]:
                vecs = []
                for i, k in enumerate(cell):
                    v = np.zeros(counts[i])
                    v[k] = 1.0
                    vecs.append(v)
                return [(vecs, False)]
            return []
        if game.n == 2:
            return [two_player[combo]] if combo in two_player else []
        return _n_player_candidates(game, combo)

    accepted: list[tuple[MixedProfile, bool]] = []
    for combo in itertools.product(*supports):
        for vectors, degenerate in candidates_for(combo):
            try:
                profile = MixedProfile.from_vectors(vectors)
            except InvalidParameterError:
                continue
            if is_equilibrium(game, profile, "weak", tol).ok:
                accepted.append((profile, degenerate))
    return [
        _make_result(game, accepted[i][0], tol, accepted[i][1])
        for i in _distinct([profile for profile, _ in accepted])
    ]


class RefineResult(NamedTuple):
    profile: MixedProfile
    max_regret: float


def replicator_refine(
    game: Game,
    start: MixedProfile,
    steps: int,
    step_size: float = 1.0,
    tol: float = DEFAULT_TOL,
) -> RefineResult:
    """Multi-population discrete replicator updates from ``start``.

    Each step rescales every in-support probability by its strategy's
    expected payoff against the current opponent mixtures (payoffs shifted to
    be strictly positive per player first), blended with weight
    ``step_size``. No convergence guarantee: validate the output with
    ``is_equilibrium`` before treating it as an equilibrium.
    """
    if steps < 1:
        raise InvalidParameterError(f"steps must be >= 1, got {steps}")
    if not 0 < step_size <= 1:
        raise InvalidParameterError(f"step_size must be in (0, 1], got {step_size}")
    sigmas = [s.copy() for s in _sigmas(game, start)]
    for _ in range(steps):
        dev = _deviation_payoffs(game, sigmas)
        for i in range(game.n):
            fitness = dev[i] - dev[i].min() + 1.0
            mean = float(sigmas[i] @ fitness)
            updated = sigmas[i] * fitness / mean
            sigmas[i] = (1.0 - step_size) * sigmas[i] + step_size * updated
            sigmas[i] /= sigmas[i].sum()
    profile = MixedProfile.from_vectors(sigmas)
    check = is_equilibrium(game, profile, "weak", tol)
    return RefineResult(profile=profile, max_regret=check.max_regret)
