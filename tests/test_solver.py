import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import coalgame as cg
from coalgame import solver
from coalgame.solver import DEDUP_TOL, _distinct

from conftest import find_strategy, pure_profile
from test_games import _EscapingRule


def _mixture(game, per_player):
    vectors = []
    for i, weights in enumerate(per_player):
        v = np.zeros(game.strategy_counts[i])
        for k, w in weights.items():
            v[k] = w
        vectors.append(v)
    return cg.MixedProfile.from_vectors(vectors)


def _random_profile(game, rng):
    return cg.MixedProfile.from_vectors(
        [rng.dirichlet(np.ones(m)) for m in game.strategy_counts]
    )


def _dinner_two_table_mixture(dinner, p, q):
    """A,B mix over the two announcements containing {A,B}; C1,C2 announce
    the two-pair partition."""
    pair_tables = find_strategy(dinner, 0, "0,1|2,3")
    ab_alone = find_strategy(dinner, 0, "0,1|2|3")
    return _mixture(
        dinner,
        [
            {pair_tables: p, ab_alone: 1 - p},
            {pair_tables: q, ab_alone: 1 - q},
            {find_strategy(dinner, 2, "0,1|2,3"): 1.0},
            {find_strategy(dinner, 3, "0,1|2,3"): 1.0},
        ],
    )


# --- expected utility -------------------------------------------------------

def test_point_mass_expected_utility_equals_payoff(pd2):
    profile = pure_profile(pd2, ("0|1", "H"), ("0,1", "L"))
    mixed = cg.MixedProfile.from_profile(pd2, profile)
    direct = cg.payoff(pd2, profile)
    for i in range(2):
        assert cg.expected_utility(pd2, mixed, i) == pytest.approx(direct[i], abs=1e-12)


def test_dinner_two_table_mixture_pays_eight(dinner):
    mixed = _dinner_two_table_mixture(dinner, 0.5, 0.5)
    assert cg.expected_utility(dinner, mixed, 0) == pytest.approx(8.0, abs=1e-12)


def test_pd1_uniform_expected_utility(pd1):
    uniform = cg.MixedProfile.uniform(pd1)
    assert cg.expected_utility(pd1, uniform, 0) == pytest.approx(-1.0, abs=1e-12)


def test_expected_utility_formulas_agree_on_random_profiles(
    dinner, pd1, pd2, pd_ext, pennies
):
    rng = np.random.default_rng(42)
    for game in (dinner, pd1, pd2, pd_ext, pennies):
        for _ in range(50):
            profile = _random_profile(game, rng)
            for i in range(game.n):
                direct, decomposed = cg.expected_utility_components(game, profile, i)
                assert abs(direct - decomposed) <= 1e-10


def test_expected_utility_detects_escaping_rule():
    game = cg.make_game(
        ["x", "y"], K=1, rule=_EscapingRule(),
        partition_payoffs={"0|1": [1, 1]}, action_labels=("go",),
    )
    profile = cg.MixedProfile.uniform(game)
    with pytest.raises(cg.InternalInconsistencyError):
        cg.expected_utility(game, profile, 0)


def test_shifting_one_players_payoffs_shifts_only_their_utility(pd2):
    rng = np.random.default_rng(3)
    shifted = pd2.with_payoffs(pd2.payoffs.shifted(0, 7.5))
    for _ in range(20):
        profile = _random_profile(pd2, rng)
        eu0 = cg.expected_utility(pd2, profile, 0)
        eu1 = cg.expected_utility(pd2, profile, 1)
        assert cg.expected_utility(shifted, profile, 0) == pytest.approx(
            eu0 + 7.5, abs=1e-9
        )
        assert cg.expected_utility(shifted, profile, 1) == pytest.approx(
            eu1, abs=1e-12
        )
        before = cg.is_equilibrium(pd2, profile)
        after = cg.is_equilibrium(shifted, profile)
        assert before.ok == after.ok
        assert before.max_regret == pytest.approx(after.max_regret, abs=1e-9)


def test_shift_preserves_the_equilibrium_set(pd2):
    shifted = pd2.with_payoffs(pd2.payoffs.shifted(1, -3.25))
    original = {r.support for r in cg.enumerate_pure_equilibria(pd2)}
    moved = {r.support for r in cg.enumerate_pure_equilibria(shifted)}
    assert original == moved


# --- equilibrium checking ---------------------------------------------------

def test_high_high_is_weak_equilibrium_at_k1(pd1):
    profile = cg.MixedProfile.from_profile(
        pd1, pure_profile(pd1, ("0|1", "H"), ("0|1", "H"))
    )
    check = cg.is_equilibrium(pd1, profile)
    assert check.ok
    assert check.max_regret <= 1e-12


def test_low_low_fails_with_regret_three(pd1):
    profile = cg.MixedProfile.from_profile(
        pd1, pure_profile(pd1, ("0|1", "L"), ("0|1", "L"))
    )
    check = cg.is_equilibrium(pd1, profile)
    assert not check.ok
    assert check.max_regret == pytest.approx(3.0, abs=1e-12)


def test_joint_high_high_is_weak_equilibrium(pd2):
    profile = cg.MixedProfile.from_profile(
        pd2, pure_profile(pd2, ("0,1", "H"), ("0,1", "H"))
    )
    assert cg.is_equilibrium(pd2, profile).ok


def test_is_equilibrium_rejects_bad_arguments(pd1):
    profile = cg.MixedProfile.uniform(pd1)
    with pytest.raises(cg.InvalidParameterError):
        cg.is_equilibrium(pd1, profile, tol=0.0)
    with pytest.raises(cg.InvalidParameterError):
        cg.is_equilibrium(pd1, profile, mode="medium")


def test_mixed_strategy_normalizes_and_validates():
    s = cg.MixedStrategy(np.array([2.0, 2.0]))
    assert s.probabilities.tolist() == [0.5, 0.5]
    with pytest.raises(cg.InvalidParameterError):
        cg.MixedStrategy(np.array([0.5, -0.5]))


# --- pure equilibrium enumeration -------------------------------------------

def test_pd2_has_exactly_four_pure_equilibria(pd2):
    results = cg.enumerate_pure_equilibria(pd2)
    assert len(results) == 4
    assert all(tuple(r.payoffs) == (-2.0, -2.0) for r in results)
    realized = sorted(next(iter(r.partition_distribution)).key for r in results)
    assert realized == ["0,1", "0|1", "0|1", "0|1"]


def test_extrovert_equilibria(pd_ext):
    results = cg.enumerate_pure_equilibria(pd_ext)
    supports = {r.support for r in results}
    h_joint = find_strategy(pd_ext, 0, "0,1", "H")
    h_sep = find_strategy(pd_ext, 0, "0|1", "H")
    assert ((h_joint,), (h_joint,)) in supports
    assert ((h_sep,), (h_joint,)) not in supports
    assert ((h_joint,), (h_sep,)) not in supports
    joint = next(r for r in results if r.support == ((h_joint,), (h_joint,)))
    assert tuple(joint.payoffs) == (-1.0, -1.0)
    assert cg.is_equilibrium(pd_ext, joint.profile, "strict").ok


def test_strict_mode_prunes_payoff_equivalent_announcements(pd2):
    assert cg.enumerate_pure_equilibria(pd2, mode="strict") == []


def test_matching_pennies_has_no_pure_equilibrium(pennies):
    assert cg.enumerate_pure_equilibria(pennies) == []


def test_pure_enumeration_respects_budget(dinner):
    with pytest.raises(cg.BudgetExceededError):
        cg.enumerate_pure_equilibria(dinner, budget=5000)


# --- support enumeration ----------------------------------------------------

def test_matching_pennies_mixed_equilibrium(pennies):
    results = cg.support_enumeration(pennies)
    assert len(results) == 1
    for v in results[0].profile.vectors():
        assert np.allclose(v, [0.5, 0.5], atol=1e-9)
    assert results[0].max_regret <= 1e-9


def test_support_enumeration_results_all_validate(pd2, pennies):
    for game in (pd2, pennies):
        for result in cg.support_enumeration(game):
            assert cg.is_equilibrium(game, result.profile).ok
            assert result.max_regret <= 1e-9
            total = sum(result.partition_distribution.values())
            assert total == pytest.approx(1.0, abs=1e-9)


def test_pure_equilibria_are_found_at_support_size_one(pd2, pennies, dinner):
    for game in (pd2, pennies, dinner):
        pure = {r.support for r in cg.enumerate_pure_equilibria(game)}
        singles = {
            r.support
            for r in cg.support_enumeration(game, max_support=1, budget=20000)
        }
        assert pure == singles


def test_high_action_mixtures_form_an_equilibrium_family(pd2):
    h_joint = find_strategy(pd2, 0, "0,1", "H")
    h_sep = find_strategy(pd2, 0, "0|1", "H")
    rng = np.random.default_rng(5)
    for _ in range(10):
        p, q = rng.uniform(0.05, 0.95, size=2)
        profile = _mixture(
            pd2,
            [{h_joint: p, h_sep: 1 - p}, {h_joint: q, h_sep: 1 - q}],
        )
        check = cg.is_equilibrium(pd2, profile)
        assert check.ok and check.max_regret <= 1e-9
    results = cg.support_enumeration(pd2)
    assert any(
        r.degenerate and r.support == ((h_joint, h_sep), (h_joint, h_sep))
        for r in results
    )


def test_dinner_two_table_mixtures_validate(dinner):
    rng = np.random.default_rng(9)
    for _ in range(5):
        p, q = rng.uniform(0.0, 1.0, size=2)
        profile = _dinner_two_table_mixture(dinner, p, q)
        check = cg.is_equilibrium(dinner, profile)
        assert check.ok and check.max_regret <= 1e-9


def test_three_player_mixed_support_search():
    # two coordination actions per player, only unanimous profiles pay
    game = cg.make_game(
        ["a", "b", "c"],
        K=1,
        action_labels=("left", "right"),
        exact_payoffs={
            ("0|1|2", ("left", "left", "left")): [1, 1, 1],
            ("0|1|2", ("right", "right", "right")): [1, 1, 1],
        },
    )
    results = cg.support_enumeration(game)
    supports = {r.support for r in results}
    assert ((0,), (0,), (0,)) in supports
    assert ((1,), (1,), (1,)) in supports
    for r in results:
        assert cg.is_equilibrium(game, r.profile).ok


def test_support_enumeration_budget(dinner):
    with pytest.raises(cg.BudgetExceededError):
        cg.support_enumeration(dinner)  # (2^10-1)^4 combinations


def test_distinct_matches_a_linear_scan():
    rng = np.random.default_rng(7)
    bases = [[rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(4))] for _ in range(20)]
    profiles = []
    for _ in range(300):
        vectors = [v.copy() for v in bases[rng.integers(20)]]
        shift = rng.choice([0.0, 0.5e-6, 0.99e-6, 1.01e-6, 3e-6])
        vectors[rng.integers(2)][:2] += (shift, -shift)
        profiles.append(cg.MixedProfile.from_vectors(vectors))
    keys = [np.concatenate(p.vectors()) for p in profiles]
    expected = []
    for i, key in enumerate(keys):
        if all(np.abs(key - keys[j]).max() > DEDUP_TOL for j in expected):
            expected.append(i)
    assert 20 < len(expected) < 300
    assert _distinct(profiles) == expected


# --- two-player stacked solves ----------------------------------------------

def _action_game(payoffs):
    """Two players at K=1 with one action per row/column of ``payoffs``
    (shape m x m x 2)."""
    m = payoffs.shape[0]
    labels = tuple(f"a{k}" for k in range(m))
    return cg.make_game(
        ["x", "y"], K=1, action_labels=labels,
        exact_payoffs={
            ("0|1", (labels[i], labels[j])): payoffs[i, j].tolist()
            for i in range(m) for j in range(m)
        },
    )


def _generic_game(m, seed):
    return _action_game(np.random.default_rng(seed).random((m, m, 2)))


_hypothesis_settings = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
_small_int_games = st.integers(2, 4).flatmap(
    lambda m: st.lists(st.integers(0, 2), min_size=2 * m * m, max_size=2 * m * m).map(
        lambda values: _action_game(np.array(values, dtype=float).reshape(m, m, 2))
    )
)


def _per_pair_support_enumeration(game, max_support=None, tol=cg.DEFAULT_TOL):
    """Reference: one pair of ``np.ix_`` systems and two scalar
    ``_solve_indifference`` calls per support pair, validated and
    deduplicated as ``support_enumeration`` does."""
    counts = game.strategy_counts
    a, b = game.payoff_tensor[..., 0], game.payoff_tensor[..., 1]
    _, weak, _ = solver._pure_regret_arrays(game, tol)
    supports = [solver._support_iter(m, min(m, max_support or m)) for m in counts]
    accepted = []
    for t0, t1 in itertools.product(*(list(s) for s in supports)):
        vectors = [np.zeros(counts[0]), np.zeros(counts[1])]
        if len(t0) == len(t1) == 1:
            if not weak[t0[0], t1[0]]:
                continue
            vectors[0][t0[0]] = vectors[1][t1[0]] = 1.0
            degenerate = False
        else:
            m_y = np.vstack(
                [a[np.ix_([s], t1)][0] - a[np.ix_([t0[0]], t1)][0] for s in t0[1:]]
                + [np.ones(len(t1))]
            )
            m_x = np.vstack(
                [b[np.ix_(t0, [s])][:, 0] - b[np.ix_(t0, [t1[0]])][:, 0] for s in t1[1:]]
                + [np.ones(len(t0))]
            )
            y, degen_y = solver._solve_indifference(m_y, np.eye(len(t0))[-1])
            x, degen_x = solver._solve_indifference(m_x, np.eye(len(t1))[-1])
            if x is None or y is None:
                continue
            vectors[0][list(t0)] = x
            vectors[1][list(t1)] = y
            degenerate = degen_y or degen_x
        try:
            profile = cg.MixedProfile.from_vectors(vectors)
        except cg.InvalidParameterError:
            continue
        if cg.is_equilibrium(game, profile, "weak", tol).ok:
            accepted.append((profile, degenerate))
    return [
        solver._make_result(game, accepted[i][0], tol, accepted[i][1])
        for i in _distinct([profile for profile, _ in accepted])
    ]


def _assert_same_results(game, max_support=None):
    got = cg.support_enumeration(game, max_support=max_support)
    expected = _per_pair_support_enumeration(game, max_support)
    assert len(got) == len(expected)
    for r, e in zip(got, expected):
        assert all(
            np.array_equal(v, w) for v, w in zip(r.profile.vectors(), e.profile.vectors())
        )
        assert (r.support, r.degenerate, r.strict) == (e.support, e.degenerate, e.strict)


def test_stacked_solves_match_the_per_pair_reference(pennies, pd2, pd_ext):
    for game in (pennies, pd2, pd_ext):
        _assert_same_results(game)
    for m in range(2, 6):
        for seed in range(3):
            game = _generic_game(m, seed)
            _assert_same_results(game)
            _assert_same_results(game, max_support=2)


@_hypothesis_settings
@given(_small_int_games)
def test_stacked_solves_match_the_reference_on_tied_payoffs(game):
    _assert_same_results(game)


def test_stacked_solves_match_the_reference_one_matrix_per_stack(
    monkeypatch, pennies, pd2, pd_ext
):
    tied = _action_game(np.random.default_rng(4).integers(0, 3, (4, 4, 2)).astype(float))
    monkeypatch.setattr(solver, "STACK_FLOATS", 1)
    for game in (pennies, pd2, pd_ext, _generic_game(4, 0), tied):
        _assert_same_results(game)


def _screened_rectangular_systems(game):
    """(matrix, rejected) for every rectangular indifference system."""
    a, b = game.payoff_tensor[..., 0], game.payoff_tensor[..., 1]
    m0, m1 = game.strategy_counts
    for s0, s1 in itertools.product(range(1, m0 + 1), range(1, m1 + 1)):
        if s0 == s1:
            continue
        pairs = list(itertools.product(
            itertools.combinations(range(m0), s0), itertools.combinations(range(m1), s1)
        ))
        t0 = np.array([p[0] for p in pairs])
        t1 = np.array([p[1] for p in pairs])
        for stack in solver._indifference_systems(a, b, t0, t1):
            _, rejected = solver._screen_stack(stack)
            yield from zip(stack, rejected)


def _assert_screen_is_conservative(game):
    rejected = 0
    for matrix, skip in _screened_rectangular_systems(game):
        if skip:
            rejected += 1
            assert solver._solve_indifference(matrix, np.eye(len(matrix))[-1])[0] is None
    return rejected


@_hypothesis_settings
@given(_small_int_games)
def test_screen_rejects_only_systems_the_scalar_solve_rejects(game):
    _assert_screen_is_conservative(game)


def test_screen_rejects_inconsistent_generic_systems():
    game = _generic_game(5, 1)
    overdetermined = sum(
        len(matrix) > matrix.shape[1] for matrix, _ in _screened_rectangular_systems(game)
    )
    assert _assert_screen_is_conservative(game) == overdetermined


def test_result_flags_are_python_bools(pennies, pd2, pd_ext):
    coordination = cg.make_game(
        ["a", "b", "c"],
        K=1,
        action_labels=("left", "right"),
        exact_payoffs={
            ("0|1|2", ("left", "left", "left")): [1, 1, 1],
            ("0|1|2", ("right", "right", "right")): [1, 1, 1],
        },
    )
    for game in (pennies, pd2, pd_ext, coordination):
        results = cg.support_enumeration(game)
        # pennies and the three-player game have mixed results, whose flags
        # come from the rank tests of the indifference solvers.
        assert results
        for r in results:
            assert type(r.degenerate) is bool and type(r.strict) is bool


# --- replicator refinement --------------------------------------------------

def test_replicator_fixed_at_equilibrium(pd2):
    start = cg.MixedProfile.from_profile(
        pd2, pure_profile(pd2, ("0,1", "H"), ("0,1", "H"))
    )
    out = cg.replicator_refine(pd2, start, steps=250, step_size=1.0)
    assert out.max_regret <= 1e-9
    for v, w in zip(out.profile.vectors(), start.vectors()):
        assert np.allclose(v, w, atol=1e-12)


def test_replicator_converges_to_dominant_actions(pd1):
    out = cg.replicator_refine(
        pd1, cg.MixedProfile.uniform(pd1), steps=400, step_size=0.5
    )
    assert out.max_regret <= 1e-6
    h = find_strategy(pd1, 0, "0|1", "H")
    for v in out.profile.vectors():
        assert v[h] > 0.999


def test_replicator_single_strategy_game_unchanged():
    game = cg.make_game(["a", "b"], K=1, partition_payoffs={"0|1": [1, 2]})
    out = cg.replicator_refine(game, cg.MixedProfile.uniform(game), steps=10)
    assert out.profile.vectors()[0].tolist() == [1.0]
    assert out.max_regret == 0.0


def test_replicator_validates_arguments(pd1):
    with pytest.raises(cg.InvalidParameterError):
        cg.replicator_refine(pd1, cg.MixedProfile.uniform(pd1), steps=0)
    with pytest.raises(cg.InvalidParameterError):
        cg.replicator_refine(pd1, cg.MixedProfile.uniform(pd1), steps=5, step_size=2.0)


# --- partition pushforward --------------------------------------------------

def test_pushforward_of_dinner_mixture_is_two_tables(dinner):
    profile = _dinner_two_table_mixture(dinner, 0.3, 0.8)
    dist = cg.equilibrium_partitions(dinner, profile)
    assert dist == {cg.parse_partition("0,1|2,3", 4): pytest.approx(1.0, abs=1e-12)}


def test_pushforward_of_pure_profiles(pd2):
    joint = cg.MixedProfile.from_profile(
        pd2, pure_profile(pd2, ("0,1", "H"), ("0,1", "H"))
    )
    assert cg.equilibrium_partitions(pd2, joint) == {
        cg.parse_partition("0,1", 2): 1.0
    }
    sep = cg.MixedProfile.from_profile(
        pd2, pure_profile(pd2, ("0|1", "H"), ("0|1", "H"))
    )
    assert cg.equilibrium_partitions(pd2, sep) == {cg.parse_partition("0|1", 2): 1.0}


def test_pushforward_sums_to_one_on_random_profiles(dinner, pd2):
    rng = np.random.default_rng(99)
    for game in (dinner, pd2):
        for _ in range(25):
            dist = cg.equilibrium_partitions(game, _random_profile(game, rng))
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


def test_existence_for_every_builtin_game():
    for name, game in cg.builtin_games().items():
        results = cg.enumerate_pure_equilibria(game)
        if not results:
            results = cg.support_enumeration(game)
        assert results, f"no equilibrium found for {name}"
        assert all(cg.is_equilibrium(game, r.profile).ok for r in results)
