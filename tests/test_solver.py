import numpy as np
import pytest

import coalgame as cg
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
