import numpy as np
import pytest

import coalgame as cg
from coalgame.games import _form_by_mutual_consent

from conftest import find_strategy, pure_profile


# --- strategy sets ----------------------------------------------------------

def test_pd_strategy_counts(pd1, pd2):
    assert [len(s) for s in pd1.strategy_sets] == [2, 2]
    assert [len(s) for s in pd2.strategy_sets] == [4, 4]


def test_dinner_strategy_count(dinner):
    for i in range(4):
        strategies = cg.build_strategy_set(dinner, i)
        assert len(strategies) == 10
        assert len(set(strategies)) == 10


def test_strategy_sets_are_nested_sublists(pd1, pd2):
    for i in range(2):
        small = cg.build_strategy_set(pd1, i)
        large = cg.build_strategy_set(pd2, i)
        it = iter(large)
        assert all(s in it for s in small)  # subsequence, order preserved


def test_build_strategy_set_rejects_bad_player(pd1):
    with pytest.raises(cg.InvalidParameterError):
        cg.build_strategy_set(pd1, 2)


# --- formation rules --------------------------------------------------------

def test_pairs_form_only_with_mutual_consent(dinner):
    # A and B both want to sit together; C1 and C2 each want to sit with A.
    profile = pure_profile(dinner, "0,1|2|3", "0,1|2|3", "0,2|1|3", "0,3|1|2")
    assert cg.apply_formation_rule(dinner, profile).key == "0,1|2|3"


def test_joint_coalition_needs_both_announcements(pd2):
    both = pure_profile(pd2, ("0,1", "L"), ("0,1", "L"))
    assert cg.apply_formation_rule(pd2, both).key == "0,1"
    one_sided = pure_profile(pd2, ("0,1", "L"), ("0|1", "L"))
    assert cg.apply_formation_rule(pd2, one_sided).key == "0|1"


def test_all_singleton_announcements_stay_singletons(dinner):
    profile = pure_profile(dinner, *["0|1|2|3"] * 4)
    assert cg.apply_formation_rule(dinner, profile) == cg.Partition.singletons(4)


def test_unanimous_announcement_realizes_it(dinner):
    for partition in dinner.family:
        profile = pure_profile(dinner, *[partition.key] * 4)
        assert cg.apply_formation_rule(dinner, profile) == partition


def test_unmatched_player_is_never_absorbed(dinner):
    rng = np.random.default_rng(7)
    for _ in range(200):
        indices = tuple(rng.integers(0, m) for m in dinner.strategy_counts)
        profile = dinner.profile_from_indices(indices)
        realized = cg.apply_formation_rule(dinner, profile)
        for i, choice in enumerate(profile):
            wanted = choice.desired.block_of(i)
            got = realized.block_of(i)
            assert got == wanted or got.size == 1


def test_rule_is_total_over_random_profiles(dinner, pd2):
    rng = np.random.default_rng(11)
    for game in (dinner, pd2):
        for _ in range(300):
            indices = tuple(rng.integers(0, m) for m in game.strategy_counts)
            realized = cg.apply_formation_rule(
                game, game.profile_from_indices(indices)
            )
            assert realized in game.family


def test_partition_unanimity_rule():
    game = cg.make_game(
        ["p", "q", "r"],
        K=3,
        rule="partition_unanimity",
        partition_payoffs={"0,1,2": [1, 1, 1]},
    )
    unanimous = pure_profile(game, "0,1,2", "0,1,2", "0,1,2")
    assert cg.apply_formation_rule(game, unanimous).key == "0,1,2"
    disagree = pure_profile(game, "0,1,2", "0,1|2", "0,1,2")
    assert cg.apply_formation_rule(game, disagree) == cg.Partition.singletons(3)


def test_consent_cache_handles_shared_prefixes():
    blocks = ((0, 1), (0, 1), (2,), (3,))
    assert _form_by_mutual_consent(blocks).key == "0,1|2|3"
    blocks = ((0, 1), (0, 1), (2, 3), (2, 3))
    assert _form_by_mutual_consent(blocks).key == "0,1|2,3"


# --- payoffs ----------------------------------------------------------------

def test_dinner_payoffs_match_table(dinner):
    rows = {
        "0,1|2|3": (10, 10, 3, 3),
        "0,1|2,3": (8, 8, 5, 5),
        "0,2|1,3": (3, 5, 10, 5),
        "0,2|1|3": (3, 3, 10, 3),
        "0,3|1,2": (3, 5, 5, 10),
        "0,3|1|2": (3, 3, 3, 10),
    }
    for key, expected in rows.items():
        profile = pure_profile(dinner, *[key] * 4)
        assert tuple(cg.payoff(dinner, profile)) == expected


def test_dinner_unlisted_partitions_pay_zero(dinner):
    # a three-seat table is not reachable at K=2, but {{A},{B,C1},{C2}} is
    profile = pure_profile(dinner, "0|1,2|3", "0|1,2|3", "0|1,2|3", "0|1,2|3")
    assert tuple(cg.payoff(dinner, profile)) == (0, 0, 0, 0)


def test_pd_payoff_depends_on_actions_not_announcements(pd2):
    # high vs high pays (-2,-2) whether or not the joint table forms
    separate = pure_profile(pd2, ("0|1", "H"), ("0,1", "H"))
    assert tuple(cg.payoff(pd2, separate)) == (-2, -2)
    joint = pure_profile(pd2, ("0,1", "H"), ("0,1", "H"))
    assert tuple(cg.payoff(pd2, joint)) == (-2, -2)
    mixed = pure_profile(pd2, ("0|1", "L"), ("0|1", "H"))
    assert tuple(cg.payoff(pd2, mixed)) == (-5, 3)


def test_bonus_applies_only_when_designated_partition_forms(pd_ext):
    joint = pure_profile(pd_ext, ("0,1", "H"), ("0,1", "H"))
    assert tuple(cg.payoff(pd_ext, joint)) == (-1, -1)
    near_miss = pure_profile(pd_ext, ("0|1", "H"), ("0,1", "H"))
    assert tuple(cg.payoff(pd_ext, near_miss)) == (-2, -2)
    joint_low = pure_profile(pd_ext, ("0,1", "L"), ("0,1", "H"))
    assert tuple(cg.payoff(pd_ext, joint_low)) == (-4, 4)


def test_payoff_table_rejects_non_finite_values():
    with pytest.raises(cg.InvalidParameterError):
        cg.PayoffTable(
            n=2, exact={}, partition_wide={"0|1": (float("inf"), 0.0)},
            default=(0.0, 0.0),
        )


def test_payoffs_always_finite(dinner, pd2, pd_ext):
    for game in (dinner, pd2, pd_ext):
        assert np.all(np.isfinite(game.payoff_tensor))


def _reference_payoff_tensor(game):
    """The per-profile payoff loop: realize every profile with the rule,
    look up its (partition key, action ids) row, and add the bonus when the
    designated partition is realized."""
    out = np.empty(game.strategy_counts + (game.n,), dtype=np.float64)
    for indices, profile in game.iter_profiles():
        realized = game.rule.realize(profile)
        actions = tuple(choice.action.id for choice in profile)
        vec = np.asarray(game.payoffs.lookup(realized.key, actions), dtype=np.float64)
        if game.epsilon is not None and realized == game.epsilon.partition:
            vec = vec + np.asarray(game.epsilon.per_player)
        out[indices] = vec
    return out


def _assert_matches_reference(game):
    expected = _reference_payoff_tensor(game)
    assert game.payoff_tensor.dtype == expected.dtype
    assert np.array_equal(game.payoff_tensor, expected), game.name


def test_payoff_tensor_matches_the_per_profile_loop_on_bundled_specs():
    for name in cg.BUNDLED_SPECS:
        spec = cg.bundled_spec(name)
        for K in range(1, spec.n + 1):
            _assert_matches_reference(cg.build_game(spec, K))


def test_payoff_tensor_matches_the_per_profile_loop_with_epsilon_overridden():
    spec = cg.bundled_spec("pd_extrovert")
    for bonus in (0.25, (1.5, -0.5), 0.0):
        for K in (1, 2):
            _assert_matches_reference(cg.build_game(spec, K, epsilon_bonus=bonus))


def test_payoff_tensor_matches_the_per_profile_loop_on_escaping_profiles():
    game = cg.make_game(
        ["x", "y", "z"],
        K=2,
        rule=_EscapingRule(),
        action_labels=("go", "stay"),
        exact_payoffs={("0,1|2", ("go", "go", "stay")): [4, 4, 1]},
        partition_payoffs={"0|1|2": [1, 2, 3]},
        default_payoff=[3, -2, 0.5],
    )
    escaped = game.realized_index < 0
    assert 0 < escaped.sum() < escaped.size
    _assert_matches_reference(game)
    assert np.all(game.payoff_tensor[escaped] == (3, -2, 0.5))


# --- induced domains and axioms --------------------------------------------

def test_pd_induced_domains(pd2):
    joint = cg.parse_partition("0,1", 2)
    separate = cg.parse_partition("0|1", 2)
    joint_domain = cg.induced_domain(pd2, joint)
    separate_domain = cg.induced_domain(pd2, separate)
    assert len(joint_domain) == 4
    assert len(separate_domain) == 12
    for profile in joint_domain:
        assert all(choice.desired == joint for choice in profile)


def test_pd1_single_domain(pd1):
    only = cg.parse_partition("0|1", 2)
    assert len(cg.induced_domain(pd1, only)) == 4


def test_induced_domain_rejects_foreign_partition(pd1):
    with pytest.raises(cg.InvalidParameterError):
        cg.induced_domain(pd1, cg.parse_partition("0,1", 2))


def test_axioms_pass_for_builtin_games(dinner, pd1, pd2, pd_ext, pennies):
    for game in (dinner, pd1, pd2, pd_ext, pennies):
        report = cg.check_mechanism_axioms(game)
        assert report.ok
        assert sum(report.domain_sizes.values()) == game.profile_count


def test_pd_domain_split_is_twelve_plus_four(pd2):
    report = cg.check_mechanism_axioms(pd2)
    sizes = {p.key: s for p, s in report.domain_sizes.items()}
    assert sizes == {"0,1": 4, "0|1": 12}


class _EscapingRule(cg.FormationRule):
    """Maps one profile to a partition outside P(K)."""

    kind = "broken_for_tests"

    def realize(self, profile):
        desired = profile.choices[0].desired
        if all(c.desired == desired for c in profile) and desired.max_block_size == 1:
            return cg.Partition.from_blocks([range(profile.n)], profile.n)
        return cg.CoalitionUnanimity().realize(profile)


def test_broken_rule_fails_first_axiom():
    game = cg.make_game(
        ["x", "y"],
        K=1,
        rule=_EscapingRule(),
        partition_payoffs={"0|1": [1, 1]},
        action_labels=("go",),
    )
    report = cg.check_mechanism_axioms(game)
    assert not report.maps_into_family.ok
    assert report.maps_into_family.counterexample == (0, 0)
    assert not report.ok


def test_axiom_check_respects_budget(dinner):
    with pytest.raises(cg.BudgetExceededError):
        cg.check_mechanism_axioms(dinner, budget=100)


# --- coalition values -------------------------------------------------------

def test_coalition_values_pairs_and_singletons():
    p = cg.parse_partition("0,1|2|3", 4)
    values = cg.coalition_values(p, (10, 10, 3, 3))
    assert values == {
        cg.Coalition((0, 1)): 20.0,
        cg.Coalition((2,)): 3.0,
        cg.Coalition((3,)): 3.0,
    }
    q = cg.parse_partition("0,1|2,3", 4)
    assert cg.coalition_values(q, (8, 8, 5, 5)) == {
        cg.Coalition((0, 1)): 16.0,
        cg.Coalition((2, 3)): 10.0,
    }
    zeros = cg.coalition_values(cg.Partition.singletons(3), (0, 0, 0))
    assert all(v == 0.0 for v in zeros.values())


def test_coalition_values_rejects_wrong_length():
    with pytest.raises(cg.InvalidParameterError):
        cg.coalition_values(cg.Partition.singletons(3), (1, 2))


# --- game construction ------------------------------------------------------

def test_make_game_rejects_unknown_rule():
    with pytest.raises(cg.InvalidParameterError):
        cg.make_game(["a", "b"], K=1, rule="majority_vote")


def test_make_game_rejects_missing_action_set():
    with pytest.raises(cg.InvalidParameterError):
        cg.make_game(["a", "b"], K=2, action_labels={"0|1": ["x"]})


def test_game_is_immutable(pd1):
    with pytest.raises(Exception):
        pd1.K = 2
