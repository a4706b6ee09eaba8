import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import coalgame as cg

from conftest import find_strategy, pure_profile


# --- strategy sets ----------------------------------------------------------

def test_pd_strategy_counts(pd1, pd2):
    assert [len(s) for s in pd1.strategy_sets] == [2, 2]
    assert [len(s) for s in pd2.strategy_sets] == [4, 4]


def test_dinner_strategy_count(dinner):
    for i in range(4):
        strategies = dinner.strategy_sets[i]
        assert len(strategies) == 10
        assert len(set(strategies)) == 10


def test_strategy_sets_are_nested_sublists(pd1, pd2):
    for i in range(2):
        small = pd1.strategy_sets[i]
        large = pd2.strategy_sets[i]
        it = iter(large)
        assert all(s in it for s in small)  # subsequence, order preserved


@pytest.mark.parametrize("indices", [(-1, 0), (9, 0), (np.int64(9), 0), (0,)])
def test_strategy_indices_must_fit_the_game(pd2, indices):
    # One index per player, each within its strategy list: a negative index
    # would silently pick from the end of the list.
    with pytest.raises(cg.InvalidParameterError):
        pd2.profile_from_indices(indices)
    with pytest.raises(cg.InvalidParameterError):
        cg.MixedProfile.pure(pd2, indices)


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


def _form_by_placement(own_blocks):
    """The consent rule as a placement pass: walk the players in order and
    form a multi-player block once all its members announced it, marking its
    members placed; everyone never placed ends up a singleton."""
    n = len(own_blocks)
    formed = []
    placed = [False] * n
    for i, block in enumerate(own_blocks):
        if placed[i] or len(block) < 2:
            continue
        if all(own_blocks[j] == block for j in block):
            formed.append(block)
            for j in block:
                placed[j] = True
    blocks = formed + [(i,) for i in range(n) if not placed[i]]
    blocks.sort(key=lambda b: b[0])
    return cg.Partition(tuple(cg.Coalition(b) for b in blocks), n)


def _own_blocks(n, i):
    """Every block of ``n`` players that contains player ``i``."""
    others = [j for j in range(n) if j != i]
    return [
        tuple(sorted((i, *rest)))
        for size in range(n)
        for rest in itertools.combinations(others, size)
    ]


def test_consent_rule_matches_the_placement_algorithm_exhaustively():
    rule = cg.CoalitionUnanimity()
    assert rule.form(((0, 1), (0, 1), (2,), (3,))).key == "0,1|2|3"
    assert rule.form(((0, 1), (0, 1), (2, 3), (2, 3))).key == "0,1|2,3"
    combos = 0
    for n in range(2, 5):
        for keys in itertools.product(*(_own_blocks(n, i) for i in range(n))):
            assert rule.form(keys) == _form_by_placement(keys), keys
            combos += 1
    assert combos == 4164


_own_block_profiles = st.integers(5, 6).flatmap(
    lambda n: st.tuples(
        *(st.sampled_from(_own_blocks(n, i)) for i in range(n))
    )
)


@settings(max_examples=200, deadline=None)
@given(_own_block_profiles)
def test_consent_rule_matches_the_placement_algorithm_on_large_tables(keys):
    assert cg.CoalitionUnanimity().form(keys) == _form_by_placement(keys)


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


def test_integers_too_large_for_a_float_are_not_finite():
    big = 10**400
    for build in (
        lambda: cg.make_game(["a", "b"], K=1, default_payoff=[big, 0]),
        lambda: cg.make_game(["a", "b"], K=2, epsilon_partition="0,1", epsilon_bonus=big),
        lambda: cg.make_game(["a", "b"], K=1, partition_payoffs={"0|1": [0, -big]}),
        lambda: cg.coalition_values(cg.parse_partition("0|1", 2), [big, 1]),
    ):
        with pytest.raises(cg.InvalidParameterError, match="finite"):
            build()


def test_non_numeric_payoff_entries_are_invalid_parameters():
    for build in (
        lambda: cg.make_game(["a", "b"], K=1, default_payoff=["x", 0]),
        lambda: cg.make_game(["a", "b"], K=1, default_payoff=[None, 0]),
        lambda: cg.make_game(["a", "b"], K=1, default_payoff=np.array(5.0)),
        lambda: cg.make_game(["a", "b"], K=2, epsilon_partition="0,1", epsilon_bonus=[0, "x"]),
        lambda: cg.make_game(["a", "b"], K=1, partition_payoffs={"0|1": [0, None]}),
        lambda: cg.coalition_values(cg.parse_partition("0|1", 2), ["x", 1]),
        # Ragged nested lists, which numpy cannot make an array of.
        lambda: cg.make_game(
            ["a", "b"], K=2, epsilon_partition="0,1", epsilon_bonus=[[1], [2, 3]]
        ),
        lambda: cg.make_game(["a", "b"], K=2, default_payoff=[[1], [2, 3]]),
        lambda: cg.bundled_spec("pd_extrovert").with_epsilon([[1], [2, 3]]),
    ):
        with pytest.raises(cg.InvalidParameterError, match="must hold numbers"):
            build()


def test_payoffs_always_finite(dinner, pd2, pd_ext):
    for game in (dinner, pd2, pd_ext):
        assert np.all(np.isfinite(game.payoff_tensor))


def test_payoff_builds_no_tensor_on_a_seven_player_game():
    game = cg.make_game(
        [f"p{i}" for i in range(7)],
        K=7,
        partition_payoffs={"0,1,2,3,4,5,6": range(1, 8)},
    )
    # Everyone announces the first partition, the grand coalition.
    vec = cg.payoff(game, game.profile_from_indices((0,) * 7))
    assert vec.tolist() == [1, 2, 3, 4, 5, 6, 7]
    assert "_cell_grid" not in vars(game)


def test_unaddressable_tensors_exceed_the_budget_before_any_allocation():
    game = cg.make_game(
        [f"p{i}" for i in range(7)],
        K=7,
        partition_payoffs={"0,1,2,3,4,5,6": range(1, 8)},
    )
    # 877**7 profiles: more bytes than numpy can address for any tensor.
    for build in (
        lambda: game.realized_index,
        lambda: game.payoff_tensor,
        lambda: cg.enumerate_pure_equilibria(game, budget=10**24),
    ):
        with pytest.raises(cg.BudgetExceededError, match="more than numpy can address"):
            build()
    assert "_cell_grid" not in vars(game)


def test_more_players_than_numpy_axes_are_refused_before_any_allocation():
    game = cg.make_game([f"p{i}" for i in range(70)], K=1, partition_payoffs={})
    for build in (
        lambda: game.realized_index,
        lambda: game.payoff_tensor,
        lambda: cg.enumerate_pure_equilibria(game),
    ):
        with pytest.raises(cg.InvalidParameterError, match="axes"):
            build()
    assert "_cell_grid" not in vars(game)


def _profiles(game):
    """Every pure profile with its indices, in lexicographic index order."""
    for indices in itertools.product(*(range(m) for m in game.strategy_counts)):
        yield indices, game.profile_from_indices(indices)


def test_payoff_matches_the_tensor_entry(dinner, pd1, pd2, pd_ext, pennies):
    for game in (pd1, pd2, pd_ext, pennies):
        for indices, profile in _profiles(game):
            assert np.array_equal(cg.payoff(game, profile), game.payoff_tensor[indices])
    for indices, profile in itertools.islice(_profiles(dinner), 0, None, 97):
        assert np.array_equal(cg.payoff(dinner, profile), dinner.payoff_tensor[indices])


def _reference_realized_index(game):
    """The per-profile loop: realize every profile with the rule and look
    its partition up in the family (-1 outside it)."""
    out = np.empty(game.strategy_counts, dtype=np.int32)
    lookup = game.family._index
    for indices, profile in _profiles(game):
        realized = game.rule.realize(profile)
        out[indices] = lookup.get(realized, -1)
    return out


def _reference_payoff_tensor(game):
    """The per-profile payoff loop: realize every profile with the rule,
    look up its (partition key, action ids) row, and add the bonus when the
    designated partition is realized."""
    out = np.empty(game.strategy_counts + (game.n,), dtype=np.float64)
    for indices, profile in _profiles(game):
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


def _assert_realized_matches_reference(game):
    expected = _reference_realized_index(game)
    assert game.realized_index.dtype == np.int32
    assert np.array_equal(game.realized_index, expected), game.name


def _partition_unanimity_game():
    """Two actions in the grand coalition, one elsewhere, under partition
    unanimity."""
    return cg.make_game(
        ["x", "y", "z"],
        K=3,
        rule="partition_unanimity",
        action_labels={"0,1,2": ("in", "out"), "default": ("solo",)},
        exact_payoffs={("0,1,2", ("in", "in", "out")): [5, 5, -1]},
        partition_payoffs={"0,1|2": [2, 2, 0], "0|1|2": [1, 1, 1]},
        default_payoff=[0, 0.5, 0],
        epsilon_partition="0,1,2",
        epsilon_bonus=0.25,
        name="partition_unanimity_two_actions",
    )


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


def test_payoff_tensor_matches_the_per_profile_loop_under_partition_unanimity():
    game = _partition_unanimity_game()
    assert game.strategy_counts == (6, 6, 6)
    assert np.all(game.payoff_tensor == (5.25, 5.25, -0.75), axis=-1).sum() == 1
    _assert_matches_reference(game)


def _escaping_game():
    return cg.make_game(
        ["x", "y", "z"],
        K=2,
        rule=_EscapingRule(),
        action_labels=("go", "stay"),
        exact_payoffs={("0,1|2", ("go", "go", "stay")): [4, 4, 1]},
        partition_payoffs={"0|1|2": [1, 2, 3]},
        default_payoff=[3, -2, 0.5],
    )


def test_payoff_tensor_matches_the_per_profile_loop_on_escaping_profiles():
    game = _escaping_game()
    escaped = game.realized_index < 0
    assert 0 < escaped.sum() < escaped.size
    _assert_matches_reference(game)
    assert np.all(game.payoff_tensor[escaped] == (3, -2, 0.5))


def test_realized_index_matches_the_per_profile_loop():
    for name in cg.BUNDLED_SPECS:
        spec = cg.bundled_spec(name)
        for K in range(1, spec.n + 1):
            _assert_realized_matches_reference(cg.build_game(spec, K))
    _assert_realized_matches_reference(_escaping_game())
    _assert_realized_matches_reference(_partition_unanimity_game())


_bonus_values = st.floats(-2, 2, allow_nan=False, allow_infinity=False)


@st.composite
def _small_games(draw):
    n = draw(st.integers(2, 3))
    K = draw(st.integers(1, n))
    keys = [p.key for p in cg.enumerate_partitions(n, K)]
    labels = {
        key: draw(st.sampled_from([("a",), ("a", "b"), ("b", "a")])) for key in keys
    }
    vectors = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    exact = {}
    for key in keys:
        for actions in itertools.product(labels[key], repeat=n):
            if draw(st.booleans()):
                exact[(key, actions)] = draw(vectors)
    bonus_at = draw(st.none() | st.sampled_from(keys))
    return cg.make_game(
        [f"p{i}" for i in range(n)],
        K=K,
        rule=draw(st.sampled_from(["coalition_unanimity", "partition_unanimity"])),
        action_labels=labels,
        exact_payoffs=exact,
        partition_payoffs=draw(st.dictionaries(st.sampled_from(keys), vectors)),
        default_payoff=draw(vectors),
        epsilon_partition=bonus_at,
        epsilon_bonus=draw(st.lists(_bonus_values, min_size=n, max_size=n)),
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_small_games())
def test_both_tensors_match_the_per_profile_loops_on_small_games(game):
    _assert_realized_matches_reference(game)
    _assert_matches_reference(game)


def test_tensors_call_form_once_per_key_combination(monkeypatch):
    calls = []
    form = cg.CoalitionUnanimity.form

    def counted(self, keys):
        calls.append(keys)
        return form(self, keys)

    monkeypatch.setattr(cg.CoalitionUnanimity, "form", counted)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import coalition_spec

    dinner = cg.bundled_spec("dinner")
    coalition = cg.parse_spec(coalition_spec(3, 3, 2, 1612, 1))
    for spec, K, expected in ((dinner, 2, 256), (dinner, 4, 4096), (coalition, 3, 64)):
        calls.clear()
        game = cg.build_game(spec, K)
        game.realized_index, game.payoff_tensor
        assert len(calls) == expected
        assert len(set(calls)) == expected
    assert game.profile_count == 1000


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

    def form(self, keys):
        n = len(keys)
        if all(p == keys[0] for p in keys) and keys[0].max_block_size == 1:
            return cg.Partition.from_blocks([range(n)], n)
        own = tuple(p.block_of(i).members for i, p in enumerate(keys))
        return cg.CoalitionUnanimity().form(own)


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
    # The one profile maps outside the family, so it is the one left uncovered.
    assert not report.domains_cover.ok
    assert report.domains_cover.counterexample == report.maps_into_family.counterexample
    assert report.domains_cover.detail == "domains cover 0 of 1 profiles"
    assert report.domains_disjoint.ok
    assert report.domain_sizes == {}
    # The validate report of a one-K family on the game says the same. It
    # reads only the games, not the family's spec.
    validate = cg.build_validate_report(cg.GameFamily(base=None, games={1: game}))
    assert not validate.ok
    assert validate.to_dict()["axioms"]["1"] == {
        "ok": False,
        "maps_into_family": False,
        "domains_disjoint": True,
        "domains_cover": False,
        "domain_sizes": {},
    }
    assert "K=1: axioms maps_into_family=FAIL disjoint=ok cover=FAIL" in (
        validate.render_text().splitlines()
    )


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


def test_make_game_takes_arrays_wherever_it_takes_payoff_tuples():
    def build(vector):
        return cg.make_game(
            ["x", "y", "z"],
            K=3,
            action_labels={"0,1,2": ("in", "out"), "default": ("solo",)},
            exact_payoffs={("0,1,2", ("in", "in", "out")): vector([5, 5, -1])},
            partition_payoffs={"0,1|2": vector([2, 2, 0])},
            default_payoff=vector([0, 0.5, 0]),
            epsilon_partition="0,1,2",
            epsilon_bonus=vector([0.25, 0, 1]),
        )

    reference, game = build(tuple), build(np.array)
    assert game.payoffs == reference.payoffs
    assert game.epsilon == reference.epsilon
    assert game.action_sets == reference.action_sets
    assert np.array_equal(game.payoff_tensor, reference.payoff_tensor)
    # No default, or an empty one, pays zero.
    for empty in (None, (), np.array([])):
        game = cg.make_game(["a", "b"], K=1, default_payoff=empty)
        assert game.payoffs.default == (0.0, 0.0)


def test_game_is_immutable(pd1):
    with pytest.raises(Exception):
        pd1.K = 2
