import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import coalgame as cg
from coalgame import reports, solver
from coalgame.reports import SolveOptions, _solve_game
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


def test_expected_utility_bound_scales_with_the_payoffs():
    # The direct and per-partition sums round apart by an amount that grows
    # with the payoffs; at 1e8 an absolute 1e-10 bound fails most profiles.
    rng = np.random.default_rng(0)
    game = _action_game(rng.random((6, 6, 6, 3)) * 1e8)
    for _ in range(50):
        profile = _random_profile(game, rng)
        for i in range(game.n):
            direct, _ = cg.expected_utility_components(game, profile, i)
            assert cg.expected_utility(game, profile, i) == direct


def _escaping_game():
    """Two players at K=1 whose one profile the rule maps outside P(1)."""
    return cg.make_game(
        ["x", "y"], K=1, rule=_EscapingRule(),
        partition_payoffs={"0|1": [1, 1]}, action_labels=("go",),
    )


def test_pushforward_raises_on_mass_outside_the_family():
    game = _escaping_game()
    with pytest.raises(cg.InternalInconsistencyError, match="outside the partition family"):
        cg.equilibrium_partitions(game, cg.MixedProfile.uniform(game))


def test_pure_enumeration_raises_on_a_cell_outside_the_family():
    game = _escaping_game()
    with pytest.raises(cg.InternalInconsistencyError, match=r"cell \(0, 0\)"):
        cg.enumerate_pure_equilibria(game)


def test_shifting_one_players_payoffs_shifts_only_their_utility(pd2):
    rng = np.random.default_rng(3)
    shifted = replace(pd2, payoffs=pd2.payoffs.shifted(0, 7.5))
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
    shifted = replace(pd2, payoffs=pd2.payoffs.shifted(1, -3.25))
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
    for big in (2.0, 1e308):  # 2e308 overflows the sum
        profile = cg.MixedProfile.from_vectors([np.array([big, big])])
        assert profile.probabilities[0].tolist() == [0.5, 0.5]
    with pytest.raises(cg.InvalidParameterError):
        cg.MixedProfile.from_vectors([np.array([0.5, -0.5])])


def test_non_finite_probabilities_are_rejected():
    # max(0.0, nan) is 0.0: a NaN profile would pass every equilibrium check.
    for bad in (np.nan, np.inf):
        with pytest.raises(cg.InvalidParameterError, match="non-finite"):
            cg.MixedProfile.from_vectors([[bad, 1.0], [1.0, 0.0]])
    report = json.loads('{"equilibria": [{"profile": [[NaN, 1], [1, 0]]}]}')
    with pytest.raises(cg.InvalidParameterError, match="non-finite"):
        cg.profiles_from_report(report)


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
    options = SolveOptions(max_support=1, budget=20000)
    for game in (pd2, pennies, dinner):
        pure = {r.support for r in cg.enumerate_pure_equilibria(game)}
        singles = {r.support for r in _solve_game(game, options)[0]}
        assert pure == singles
        assert cg.support_enumeration(game, max_support=1, budget=20000) == []


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


def _coordination_game():
    """Three players with two coordination actions each; only unanimous
    profiles pay."""
    return cg.make_game(
        ["a", "b", "c"],
        K=1,
        action_labels=("left", "right"),
        exact_payoffs={
            ("0|1|2", ("left", "left", "left")): [1, 1, 1],
            ("0|1|2", ("right", "right", "right")): [1, 1, 1],
        },
    )


def test_three_player_mixed_support_search():
    game = _coordination_game()
    supports = {r.support for r in _solve_game(game, SolveOptions())[0]}
    assert ((0,), (0,), (0,)) in supports
    assert ((1,), (1,), (1,)) in supports
    results = cg.support_enumeration(game)
    assert results
    for r in results:
        assert cg.is_equilibrium(game, r.profile).ok


def _three_player_pennies():
    """Jordan's three-player matching pennies (GEB 1993): player a wants to
    match b, b to match c, and c to mismatch a. Its only equilibrium has
    every player mix half and half."""
    payoffs = {}
    for x, y, z in itertools.product((0, 1), repeat=3):
        labels = tuple("HT"[v] for v in (x, y, z))
        payoffs[("0|1|2", labels)] = [
            1 if x == y else -1, 1 if y == z else -1, 1 if z != x else -1
        ]
    return cg.make_game(
        ["a", "b", "c"], K=1, action_labels=("H", "T"), exact_payoffs=payoffs
    )


def test_three_player_pennies_has_only_the_uniform_equilibrium():
    results, notes = _solve_game(_three_player_pennies(), SolveOptions())
    assert notes == []
    assert len(results) == 1
    (r,) = results
    for v in r.profile.vectors():
        assert np.allclose(v, [0.5, 0.5], atol=1e-9)
    assert np.allclose(r.payoffs, 0.0, atol=1e-9)
    assert r.support == ((0, 1),) * 3
    assert r.strict and not r.degenerate


def _supports(m, cap):
    """The supports of at most ``cap`` of ``m`` strategies, by size, then
    lexicographic: the order of ``solver._mixed_candidates``' positions."""
    return [t for k in range(1, cap + 1) for t in itertools.combinations(range(m), k)]


def _by_combination(game, caps, columns):
    """The columns ``solver._mixed_candidates`` returns as a dict from each
    support combination to its candidates ``(vectors, degenerate)``, in row
    order; a combination's rows must be adjacent."""
    positions, vectors, degenerate = columns
    supports = [_supports(m, cap) for m, cap in zip(game.strategy_counts, caps)]
    found = {}
    for k, row in enumerate(positions.tolist()):
        combo = tuple(s[p] for s, p in zip(supports, row))
        assert combo not in found or combo == next(reversed(found))
        found.setdefault(combo, []).append(([v[k] for v in vectors], bool(degenerate[k])))
    return found


def _as_columns(game, caps, found):
    """A dict of ``_by_combination``'s form as the columns
    ``solver._mixed_candidates`` returns."""
    supports = [_supports(m, cap) for m, cap in zip(game.strategy_counts, caps)]
    index = [{t: k for k, t in enumerate(s)} for s in supports]
    rows = [(combo, c) for combo, candidates in found.items() for c in candidates]
    positions = [[p[t] for p, t in zip(index, combo)] for combo, _ in rows]
    return (
        np.array(positions, dtype=np.intp).reshape(-1, game.n),
        [
            np.array([c[0][i] for _, c in rows]).reshape(-1, m)
            for i, m in enumerate(game.strategy_counts)
        ],
        np.array([c[1] for _, c in rows], dtype=bool),
    )


def _mixed_combinations(game):
    """Every support combination in which some support has two or more
    strategies, in combination order."""
    supports = [_supports(m, m) for m in game.strategy_counts]
    return [c for c in itertools.product(*supports) if max(map(len, c)) > 1]


def _checked_combinations(calls):
    """The combinations of recorded ``_conditionally_dominated`` calls, in
    call order, with the verdict on each."""
    return [
        (combo, bool(verdict))
        for args, dominated in calls
        for combo, verdict in zip(
            itertools.product(*(map(tuple, t.tolist()) for t in args[1])), dominated
        )
    ]


def test_only_combinations_the_dominance_check_keeps_reach_a_root_solve(monkeypatch):
    """Of the 3^3 - 8 = 19 mixed support combinations of Jordan's pennies,
    the dominance check prunes all but the one the root solve settles."""
    checked = _record_calls(monkeypatch, "_conditionally_dominated")
    solved = _record_calls(monkeypatch, "_newton")
    game = _three_player_pennies()
    results, _ = _solve_game(game, SolveOptions())
    assert len(results) == 1
    mixed = _mixed_combinations(game)
    assert len(mixed) == 19
    verdicts = _checked_combinations(checked)
    assert sorted(c for c, _ in verdicts) == sorted(mixed)
    for combo, dominated in verdicts:
        assert dominated == _dominated_oracle(game, combo, cg.DEFAULT_TOL)
    assert sum(dominated for _, dominated in verdicts) == 18
    # The one combination left is solved alone, from its 17 starts.
    assert [len(args[1]) for args, _ in solved] == [17]


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
    assert _distinct(np.array(keys)) == expected


_shifts = st.sampled_from([0.0, 0.5e-6, 0.99e-6, 1.01e-6, 3e-6, -0.5e-6, -1.01e-6])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_distinct_keeps_the_first_of_each_cluster(data):
    """Clusters of rows around a few probability vectors: ``_distinct``
    keeps what a scan of all earlier kept rows keeps."""
    width = data.draw(st.integers(1, 6))
    point = st.lists(st.floats(0, 1), min_size=width, max_size=width)
    bases = data.draw(st.lists(point, min_size=1, max_size=6))
    rows = [
        np.array(data.draw(st.sampled_from(bases)))
        + data.draw(st.lists(_shifts, min_size=width, max_size=width))
        for _ in range(data.draw(st.integers(1, 40)))
    ]
    keys = np.array(rows)
    expected = []
    for i, key in enumerate(keys):
        if all(np.abs(key - keys[j]).max() > DEDUP_TOL for j in expected):
            expected.append(i)
    assert _distinct(keys) == expected


# --- two-player stacked solves ----------------------------------------------

def _action_game(payoffs):
    """n players at K=1 with m actions each, from ``payoffs`` of shape
    (m,) * n + (n,)."""
    m, n = payoffs.shape[0], payoffs.shape[-1]
    labels = tuple(f"a{k}" for k in range(m))
    return cg.make_game(
        list("xyzw"[:n]), K=1, action_labels=labels,
        exact_payoffs={
            ("|".join(map(str, range(n))), tuple(labels[k] for k in cell)):
                payoffs[cell].tolist()
            for cell in itertools.product(range(m), repeat=n)
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


def _ix_systems(game, t0, t1):
    """The two indifference systems of one support pair, built row by row
    from ``np.ix_`` sub-matrices: player 0 indifferent across ``t0`` pins
    down player 1's mixture (``m_y``), and vice versa (``m_x``); each ends
    with the simplex normalization row."""
    a, b = game.payoff_tensor[..., 0], game.payoff_tensor[..., 1]
    m_y = np.vstack(
        [a[np.ix_([s], t1)][0] - a[np.ix_([t0[0]], t1)][0] for s in t0[1:]]
        + [np.ones(len(t1))]
    )
    m_x = np.vstack(
        [b[np.ix_(t0, [s])][:, 0] - b[np.ix_(t0, [t1[0]])][:, 0] for s in t1[1:]]
        + [np.ones(len(t0))]
    )
    return m_y, m_x


def _keys(profiles):
    """The key matrix ``_distinct`` takes: one row per profile, its players'
    strategy vectors concatenated."""
    return np.array([np.concatenate(p.vectors()) for p in profiles])


def _per_pair_support_enumeration(
    game, max_support=None, tol=cg.DEFAULT_TOL, pure=False
):
    """Reference: the pair of ``_ix_systems`` of each support pair, each
    solved by ``_solve_stack`` as a stack of one, validated by
    ``is_equilibrium``, deduplicated, and packaged from a second deviation
    pass. Pairs of two singletons are skipped unless ``pure``; with it, each
    weak pure profile is also a candidate of its pair."""
    counts = game.strategy_counts
    _, weak, _ = solver._pure_regret_arrays(game, tol)
    supports = [_supports(m, min(m, max_support or m)) for m in counts]
    accepted = []
    for t0, t1 in itertools.product(*supports):
        vectors = [np.zeros(counts[0]), np.zeros(counts[1])]
        if len(t0) == len(t1) == 1:
            if not (pure and weak[t0[0], t1[0]]):
                continue
            vectors[0][t0[0]] = vectors[1][t1[0]] = 1.0
            degenerate = False
        else:
            m_y, m_x = _ix_systems(game, t0, t1)
            y, ok_y, degen_y = solver._solve_stack(m_y[None])
            x, ok_x, degen_x = solver._solve_stack(m_x[None])
            if not (ok_x[0] and ok_y[0]):
                continue
            vectors[0][list(t0)] = x[0]
            vectors[1][list(t1)] = y[0]
            degenerate = bool(degen_y[0] or degen_x[0])
        try:
            profile = cg.MixedProfile.from_vectors(vectors)
        except cg.InvalidParameterError:
            continue
        if cg.is_equilibrium(game, profile, "weak", tol).ok:
            accepted.append((profile, degenerate))
    results = []
    for i in _distinct(_keys([profile for profile, _ in accepted])):
        profile, degenerate = accepted[i]
        sigmas = [v[None] for v in profile.vectors()]
        eu, max_regret, strict = solver._regret_and_strict(game.payoff_tensor, sigmas, tol)
        results.append(cg.EquilibriumResult(
            profile=profile,
            mode="weak",
            payoffs=eu[0],
            partition_distribution=cg.equilibrium_partitions(game, profile),
            max_regret=float(max_regret[0]),
            support=tuple(map(solver._support, profile.probabilities)),
            strict=bool(strict[0]),
            degenerate=degenerate,
        ))
    return results


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


def _solve_with_pure_candidates(game, options):
    """Reference solve path: the pure enumeration followed by a support
    search that also turns each weak pure profile into a candidate, merged
    by one ``_distinct``, then the strict filter and label of
    ``_solve_game``."""
    results = cg.enumerate_pure_equilibria(game, options.mode, options.tol)
    results += _per_pair_support_enumeration(
        game, options.max_support, options.tol, pure=True
    )
    results = [results[i] for i in _distinct(_keys([r.profile for r in results]))]
    if options.mode == "strict":
        results = [replace(r, mode="strict") for r in results if r.strict]
    return results


def _assert_solve_matches_the_pure_candidate_reference(game):
    for mode, max_support in itertools.product(("weak", "strict"), (None, 1, 2)):
        options = SolveOptions(mode=mode, max_support=max_support)
        got, notes = _solve_game(game, options)
        expected = _solve_with_pure_candidates(game, options)
        assert notes == []
        assert len(got) == len(expected)
        for r, e in zip(got, expected):
            assert all(
                np.array_equal(v, w)
                for v, w in zip(r.profile.vectors(), e.profile.vectors())
            )
            assert np.array_equal(r.payoffs, e.payoffs)
            assert (r.support, r.degenerate, r.strict, r.mode, r.max_regret) == (
                e.support, e.degenerate, e.strict, e.mode, e.max_regret
            )


def test_solve_matches_the_pure_candidate_reference(pd1, pd2, pd_ext, pennies):
    for game in (pd1, pd2, pd_ext, pennies):
        _assert_solve_matches_the_pure_candidate_reference(game)
    for m in range(2, 6):
        for seed in range(3):
            _assert_solve_matches_the_pure_candidate_reference(_generic_game(m, seed))


@_hypothesis_settings
@given(_small_int_games)
def test_solve_matches_the_pure_candidate_reference_on_tied_payoffs(game):
    _assert_solve_matches_the_pure_candidate_reference(game)


# --- each pure profile settled once -----------------------------------------

def _record_calls(monkeypatch, name):
    """Replace ``solver.<name>`` with a wrapper that records each call's
    positional arguments and result."""
    calls = []
    original = getattr(solver, name)

    def recorded(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(solver, name, recorded)
    return calls


def test_one_pure_regret_pass_per_solve(monkeypatch, pd2, pd_ext, pennies, dinner):
    calls = _record_calls(monkeypatch, "_pure_regret_arrays")
    cases = [
        (game, SolveOptions(mode=mode))
        for game in (pd2, pd_ext, pennies)
        for mode in ("weak", "strict")
    ]
    cases += [
        (_coordination_game(), SolveOptions()),
        (dinner, SolveOptions(max_support=1, budget=20000)),
    ]
    for game, options in cases:
        calls.clear()
        _, notes = _solve_game(game, options)
        assert notes == []
        assert len(calls) == 1


def test_no_validation_at_support_size_one(monkeypatch, pd2, pd_ext, dinner):
    calls = _record_calls(monkeypatch, "_deviation_payoffs")
    options = SolveOptions(max_support=1, budget=20000)
    for game in (pd2, pd_ext, _coordination_game(), dinner):
        results, notes = _solve_game(game, options)
        assert results and notes == []
    assert len(calls) == 0


def test_dedup_runs_only_when_the_mixed_search_found_results(
    monkeypatch, pd2, pennies, dinner
):
    merged = []

    def recorded(keys):
        merged.append(len(keys))
        return solver._distinct(keys)

    monkeypatch.setattr(reports, "_distinct", recorded)
    for game, options in (
        (dinner, SolveOptions(max_support=1, budget=20000)),
        (pd2, SolveOptions(max_support=1)),
        (pennies, SolveOptions(max_support=1)),
    ):
        results, notes = _solve_game(game, options)
        assert notes == []
    assert merged == []
    results, _ = _solve_game(pennies, SolveOptions())
    assert len(results) == 1
    assert merged == [1]


def test_n_player_search_tries_only_mixed_combinations(monkeypatch):
    game = _coordination_game()
    checked = _record_calls(monkeypatch, "_conditionally_dominated")
    searched = _record_calls(monkeypatch, "_mixed_candidates")
    validated = _record_calls(monkeypatch, "_deviation_payoffs")
    results, _ = _solve_game(game, SolveOptions())
    mixed = _mixed_combinations(game)
    assert sorted(c for c, _ in _checked_combinations(checked)) == sorted(mixed)
    ((_, columns),) = searched
    found = _by_combination(game, game.strategy_counts, columns)
    assert found and set(found) <= set(mixed)
    # Every validation is of a candidate from a mixed combination.
    assert sum(len(args[1][0]) for args, _ in validated) == sum(
        len(out) for out in found.values()
    )
    assert {((0,), (0,), (0,)), ((1,), (1,), (1,))} <= {r.support for r in results}


def _sorted_rows(a):
    return a[np.lexsort(a.T[::-1])]


def test_one_deviation_pass_per_candidate(monkeypatch):
    game = _action_game(np.zeros((4, 4, 2)))
    searched = _record_calls(monkeypatch, "_mixed_candidates")
    passes = _record_calls(monkeypatch, "_deviation_payoffs")
    results = cg.support_enumeration(game)
    ((_, (_, vectors, _)),) = searched
    assert results
    # The rows validated are the candidates, normalized, each exactly once.
    given = np.hstack([np.vstack([args[1][i] for args, _ in passes]) for i in range(game.n)])
    candidates = np.hstack([v / v.sum(axis=1, keepdims=True) for v in vectors])
    assert np.array_equal(_sorted_rows(given), _sorted_rows(candidates))


def _tensordot_deviation_payoffs(payoffs, sigmas):
    """Reference: one profile's deviation payoffs, per player by
    ``np.tensordot`` over the others' axes, last axis first."""
    n = len(sigmas)
    out = []
    for i in range(n):
        arr = np.moveaxis(payoffs[..., i], i, 0)
        for j in reversed([j for j in range(n) if j != i]):
            arr = np.tensordot(arr, sigmas[j], axes=([-1], [0]))
        out.append(arr)
    return out


def test_stacked_deviation_pass_matches_tensordot_bit_for_bit():
    rng = np.random.default_rng(3)
    games = [
        _generic_game(7, 1612),
        _three_player_game(3, 0, False),
        _action_game(rng.random((2,) * 4 + (4,))),
    ]
    for game in games:
        sigmas = [rng.dirichlet(np.ones(m), 20) for m in game.strategy_counts]
        stacked = solver._deviation_payoffs(game.payoff_tensor, sigmas)
        eu = solver._regret_and_strict(game.payoff_tensor, sigmas, cg.DEFAULT_TOL)[0]
        for k in range(20):
            profile = [s[k] for s in sigmas]
            alone = _tensordot_deviation_payoffs(game.payoff_tensor, profile)
            assert [d[k].tobytes() for d in stacked] == [a.tobytes() for a in alone]
            assert eu[k].tolist() == [float(s @ a) for s, a in zip(profile, alone)]


def _column_bytes(table):
    columns = (*table.profiles, *(getattr(table, name) for name in solver._COLUMNS))
    return [(c.shape, c.tobytes()) for c in columns]


@pytest.mark.parametrize("rows", [1, 3])
def test_chunked_validation_gives_the_same_bits(monkeypatch, pd2, pennies, rows):
    """Validation ``rows`` profiles at a time gives every table column bit
    for bit, and no deviation pass takes more rows than ``STACK_FLOATS``
    allows."""
    games = [pd2, pennies, _generic_game(7, 1612), _three_player_game(3, 0, False)]
    expected = [solver._support_table(g, None, cg.DEFAULT_TOL, None) for g in games]
    passes = _record_calls(monkeypatch, "_deviation_payoffs")
    split = 0
    for game, table in zip(games, expected):
        monkeypatch.setattr(solver, "STACK_FLOATS", rows * game.payoff_tensor.size)
        passes.clear()
        got = solver._support_table(game, None, cg.DEFAULT_TOL, None)
        assert _column_bytes(got) == _column_bytes(table)
        for (payoffs, sigmas), _ in passes:
            assert len(sigmas[0]) <= max(1, solver.STACK_FLOATS // payoffs.size) == rows
        split += len(passes) > 1
    assert split


def _buckets(game):
    """Per (|t0|, |t1|) bucket in which some support has two or more
    strategies: its support pairs, and the two stacks of indifference
    systems ``_two_player_blocks`` builds for them, as the search does."""
    m0, m1 = game.strategy_counts
    for sizes in itertools.product(range(1, m0 + 1), range(1, m1 + 1)):
        if max(sizes) == 1:
            continue
        pairs = list(itertools.product(
            itertools.combinations(range(m0), sizes[0]),
            itertools.combinations(range(m1), sizes[1]),
        ))
        tables = [np.array(t) for t in zip(*pairs)]
        sub = game.payoff_tensor[solver._combination_index(tables)]
        yield pairs, solver._two_player_blocks(sub, sizes)


def _bucket_stacks(game):
    """Both players' indifference stacks of every bucket of ``_buckets``."""
    for _, blocks in _buckets(game):
        yield from blocks


def _assert_blocks_are_the_ix_systems(game):
    for pairs, (m_y, m_x) in _buckets(game):
        for (t0, t1), y_system, x_system in zip(pairs, m_y, m_x):
            ix_y, ix_x = _ix_systems(game, t0, t1)
            assert np.array_equal(y_system, ix_y) and np.array_equal(x_system, ix_x)


def test_two_player_blocks_are_the_per_pair_ix_systems():
    for m in range(2, 6):
        for seed in range(3):
            _assert_blocks_are_the_ix_systems(_generic_game(m, seed))


@_hypothesis_settings
@given(_small_int_games)
def test_two_player_blocks_are_the_per_pair_ix_systems_on_tied_payoffs(game):
    _assert_blocks_are_the_ix_systems(game)


def _scalar_solve(matrix):
    """The acceptance rule on one system solved by scalar ``lstsq``:
    (normalized mixture or None, rank deficient by ``matrix_rank``)."""
    rhs = np.eye(len(matrix))[-1]
    solution = np.linalg.lstsq(matrix, rhs, rcond=None)[0]
    degenerate = np.linalg.matrix_rank(matrix) < matrix.shape[1]
    scale = max(1.0, float(np.abs(matrix).max()))
    if np.abs(matrix @ solution - rhs).max() > 1e-9 * scale or solution.min() < -1e-9:
        return None, degenerate
    solution = np.clip(solution, 0.0, None)
    if solution.sum() <= 0:
        return None, degenerate
    return solution / solution.sum(), degenerate


def _assert_stack_matches_scalar_solves(game):
    for stack in _bucket_stacks(game):
        mixtures, ok, degenerate = solver._solve_stack(stack)
        rows, cols = stack.shape[1:]
        for matrix, mixture, accepted, degen in zip(stack, mixtures, ok, degenerate):
            expected, expected_degen = _scalar_solve(matrix)
            assert accepted == (expected is not None)
            # A tall system the screen rejects gets no rank.
            if accepted or rows <= cols:
                assert degen == expected_degen
            if accepted:
                assert np.abs(mixture - expected).max() <= 1e-12


def test_solve_stack_matches_scalar_lstsq():
    for m in range(2, 6):
        for seed in range(3):
            _assert_stack_matches_scalar_solves(_generic_game(m, seed))


@_hypothesis_settings
@given(_small_int_games)
def test_solve_stack_matches_scalar_lstsq_on_tied_payoffs(game):
    _assert_stack_matches_scalar_solves(game)


def _tall_stacks(game):
    return (stack for stack in _bucket_stacks(game) if stack.shape[1] > stack.shape[2])


@_hypothesis_settings
@given(_small_int_games)
def test_screen_rejects_only_systems_the_svd_solve_rejects(game):
    for stack in _tall_stacks(game):
        rows, cols = stack.shape[1:]
        # Zero columns make the stack square, so the SVD solve runs without
        # the screen; the solutions only gain zero entries.
        square = np.pad(stack, ((0, 0), (0, 0), (0, rows - cols)))
        screened = solver._solve_stack(stack)[1]
        assert not (solver._solve_stack(square)[1] & ~screened).any()


def test_screen_rejects_inconsistent_generic_systems(monkeypatch):
    svd_stacks = []
    svd = np.linalg.svd

    def recorded(matrices, *args, **kwargs):
        svd_stacks.append(len(matrices))
        return svd(matrices, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    tall = list(_tall_stacks(_generic_game(5, 1)))
    for stack in tall:
        assert not solver._solve_stack(stack)[1].any()
    # The screen settles every overdetermined system: none reaches the SVD.
    assert len(svd_stacks) == len(tall) and not any(svd_stacks)


def test_result_flags_are_python_bools(pennies, pd2, pd_ext):
    for game in (pennies, pd2, pd_ext, _coordination_game()):
        results = cg.support_enumeration(game)
        # pennies and the three-player game have mixed results, whose flags
        # come from the rank tests of the indifference solvers.
        assert results
        for r in results:
            assert type(r.degenerate) is bool and type(r.strict) is bool


# --- n-player search: dominance pruning, exact Jacobian ---------------------

def _dominated_oracle(game, supports, tol):
    """The definition of ``solver._conditionally_dominated``, in plain
    loops: some in-support strategy a of some player i, and some strategy b
    of i, such that b pays i more than a by over the margin against every
    profile of the others' supports."""
    size = sum(len(t) for t in supports)
    for i, own in enumerate(supports):
        rest = list(supports[:i]) + list(supports[i + 1 :])
        profiles = list(itertools.product(*rest))

        def payoff(k, others):
            return game.payoff_tensor[others[:i] + (k,) + others[i:]][i]

        m = game.strategy_counts[i]
        scale = max(1.0, max(abs(payoff(k, o)) for k in range(m) for o in profiles))
        margin = tol + 1e-6 * scale * size
        for a in own:
            for b in range(m):
                if all(payoff(b, o) - payoff(a, o) > margin for o in profiles):
                    return True
    return False


def _three_player_game(m, seed, integer):
    rng = np.random.default_rng(seed)
    if integer:
        return _action_game(rng.integers(0, 3, (m, m, m, 3)).astype(float))
    return _action_game(rng.random((m, m, m, 3)))


_three_player_games = st.builds(
    _three_player_game, st.integers(2, 3), st.integers(0, 2**32 - 1), st.booleans()
)
_tied_three_player_games = st.builds(
    _three_player_game, st.integers(2, 3), st.integers(0, 2**32 - 1), st.just(True)
)


def _assert_pruning_changes_no_result(game, tol):
    supports = [_supports(m, m) for m in game.strategy_counts]
    # One check per support-size signature, as the search makes them.
    signatures = {}
    for combo in itertools.product(*supports):
        signatures.setdefault(tuple(map(len, combo)), []).append(combo)
    for sizes, combos in signatures.items():
        tables = [
            np.array(list(itertools.combinations(range(m), s)))
            for m, s in zip(game.strategy_counts, sizes)
        ]
        assert solver._conditionally_dominated(game, tables, tol).tolist() == [
            _dominated_oracle(game, combo, tol) for combo in combos
        ]
    got = cg.support_enumeration(game, tol=tol)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            solver, "_conditionally_dominated",
            lambda game, tables, tol: np.zeros(np.prod([len(t) for t in tables]), dtype=bool),
        )
        expected = cg.support_enumeration(game, tol=tol)
    assert len(got) == len(expected)
    for r, e in zip(got, expected):
        assert all(
            np.array_equal(v, w) for v, w in zip(r.profile.vectors(), e.profile.vectors())
        )
        assert (r.support, r.degenerate, r.strict) == (e.support, e.degenerate, e.strict)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    _three_player_games,
    st.integers(2, 4),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-9, 1e-3, 0.5]),
)
def test_dominance_pruning_changes_no_result(game, m, seed, tol):
    """On a three-player game, and on a generic and a tied two-player game
    with ``m`` actions each."""
    rng = np.random.default_rng(seed)
    two_player = [
        _action_game(rng.random((m, m, 2))),
        _action_game(rng.integers(0, 3, (m, m, 2)).astype(float)),
    ]
    for g in [game] + two_player:
        _assert_pruning_changes_no_result(g, tol)


def _indifference_residuals(sub, probs):
    """Reference residuals of the indifference system, from
    ``_deviation_payoffs``: per player, each in-support strategy's payoff
    minus the first one's, then the weights' sum minus one."""
    eqs = []
    for i, (dev,) in enumerate(solver._deviation_payoffs(sub, [p[None] for p in probs])):
        eqs.extend(dev[1:] - dev[0])
        eqs.append(probs[i].sum() - 1.0)
    return np.array(eqs)


def _central_difference_jacobian(sub, probs, h=1e-6):
    z = np.concatenate(probs)
    splits = np.cumsum([len(p) for p in probs])[:-1]
    jac = np.empty((z.size, z.size))
    for j in range(z.size):
        bump = np.zeros(z.size)
        bump[j] = h
        plus = _indifference_residuals(sub, np.split(z + bump, splits))
        minus = _indifference_residuals(sub, np.split(z - bump, splits))
        jac[:, j] = (plus - minus) / (2 * h)
    return jac


@pytest.mark.parametrize(
    "sizes", [(2, 3, 1), (3, 3, 3), (1, 2, 2), (2, 1, 3, 2), (3, 2, 2, 2)]
)
def test_indifference_jacobian_matches_central_differences(sizes):
    rng = np.random.default_rng(sum(sizes) * len(sizes))
    for _ in range(5):
        sub = rng.normal(size=sizes + (len(sizes),))
        points = [[rng.dirichlet(np.ones(s)) for s in sizes] for _ in range(3)]
        fun, jac = solver._indifference_system(
            np.broadcast_to(sub, (3,) + sub.shape),
            np.array([np.concatenate(probs) for probs in points]),
            sizes,
        )
        assert jac.shape == (3,) + (sum(sizes),) * 2
        for probs, f, exact in zip(points, fun, jac):
            assert np.abs(f - _indifference_residuals(sub, probs)).max() <= 1e-12
            assert np.abs(exact - _central_difference_jacobian(sub, probs)).max() <= 1e-6


def test_payoff_twins_give_a_degenerate_three_player_mixture():
    """Player x's payoff does not depend on their own action, so both of
    their strategies are payoff twins; y and z play matching pennies."""
    payoffs = np.zeros((2, 2, 2, 3))
    for x, y, z in itertools.product((0, 1), repeat=3):
        payoffs[x, y, z] = [y + z, 1 if y == z else -1, 1 if y != z else -1]
    game = _action_game(payoffs)
    for tol in (cg.DEFAULT_TOL, 0.5):
        results = cg.support_enumeration(game, tol=tol)
        assert [(r.support, r.degenerate, r.strict) for r in results] == [
            (((0,), (0, 1), (0, 1)), False, False),
            (((1,), (0, 1), (0, 1)), False, False),
            (((0, 1), (0, 1), (0, 1)), True, True),
        ]
        for r in results:
            assert np.allclose(np.concatenate(r.profile.vectors()[1:]), 0.5, atol=1e-9)


def _dominated(game, supports, tol):
    """``solver._conditionally_dominated`` on one combination."""
    return solver._conditionally_dominated(game, [np.array([t]) for t in supports], tol)[0]


def _hybrj_candidates(game, supports, tol):
    """Reference for the n-player search on one combination: the same
    pruning, then one MINPACK ``hybrj`` run on the exact Jacobian from the
    uniform point, keeping the uniform point itself when it solves the
    system. The same acceptance test, clipping, normalization and rank test
    follow."""
    from scipy import optimize

    if _dominated(game, supports, tol):
        return []
    sub = game.payoff_tensor[np.ix_(*supports)]
    sizes = [len(t) for t in supports]
    splits = np.cumsum(sizes)[:-1]

    def system(z):
        return _indifference_residuals(sub, np.split(z, splits))

    def jacobian(z):
        return solver._indifference_system(sub[None], z[None], sizes)[1][0]

    uniform = np.concatenate([np.full(len(t), 1.0 / len(t)) for t in supports])
    sol = optimize.root(system, uniform, jac=jacobian, method="hybr")
    z = None
    if sol.success and float(np.abs(sol.fun).max()) <= 1e-8:
        z = sol.x
    elif float(np.abs(system(uniform)).max()) <= 1e-9:
        z = uniform
    if z is None or z.min() < -1e-8:
        return []
    probs = [np.clip(p, 0.0, None) for p in np.split(z, splits)]
    if not all(p.sum() > 0 for p in probs):
        return []
    probs = [p / p.sum() for p in probs]
    degenerate = bool(np.linalg.matrix_rank(jacobian(z)) < z.size)
    counts = game.strategy_counts
    return [([solver._embed(m, t, p) for m, t, p in zip(counts, supports, probs)], degenerate)]


@pytest.mark.parametrize("tol", [cg.DEFAULT_TOL, 1e-3])
def test_newton_finds_every_root_hybrj_finds(monkeypatch, tol):
    games = [_three_player_game(m, seed, False) for m in (2, 3) for seed in range(3)]
    games += [_action_game(np.random.default_rng(seed).random((2,) * 4 + (4,)))
              for seed in range(3)]
    references = 0
    for game in games:
        got = cg.support_enumeration(game, tol=tol)
        with monkeypatch.context() as mp:
            mp.setattr(
                solver, "_mixed_candidates",
                lambda game, caps, tol: _as_columns(game, caps, {
                    combo: _hybrj_candidates(game, combo, tol)
                    for combo in itertools.product(
                        *map(_supports, game.strategy_counts, caps)
                    )
                    if max(map(len, combo)) > 1
                }),
            )
            expected = cg.support_enumeration(game, tol=tol)
        references += len(expected)
        keys = [np.concatenate(r.profile.vectors()) for r in got]
        for e in expected:
            flags = (e.support, e.degenerate, e.strict)
            key = np.concatenate(e.profile.vectors())
            assert any(
                np.abs(k - key).max() <= DEDUP_TOL
                and (r.support, r.degenerate, r.strict) == flags
                for k, r in zip(keys, got)
            )
        for r in got:
            assert cg.is_equilibrium(game, r.profile, "weak", tol).ok
    assert references > len(games)


def _per_combination_candidates(game, supports, tol):
    """Reference for ``solver._mixed_candidates`` on one n-player
    combination: its own dominance check, one ``np.ix_`` sub-tensor and one
    ``_newton`` run on its 17 starts alone, then the same acceptance test,
    rank test, dedup, clipping and normalization, in start order."""
    if _dominated(game, supports, tol):
        return []
    sub = game.payoff_tensor[np.ix_(*supports)]
    sizes = [len(t) for t in supports]
    rng = np.random.default_rng(0)
    starts = np.vstack([
        np.concatenate([np.full(s, 1.0 / s) for s in sizes]),
        np.concatenate([rng.dirichlet(np.ones(s), 16) for s in sizes], axis=1),
    ])
    z, worst, jac = solver._newton(
        np.broadcast_to(sub, (len(starts),) + sub.shape), starts, sizes
    )
    counts = game.strategy_counts
    out, kept = [], []
    for k in np.flatnonzero((worst <= 1e-8) & (z.min(axis=1) >= -1e-8)):
        degenerate = bool(np.linalg.matrix_rank(jac[k]) < z.shape[1])
        if kept and (degenerate or (np.abs(z[kept] - z[k]).max(axis=1) <= DEDUP_TOL).any()):
            continue
        kept.append(k)
        probs = [np.clip(p, 0.0, None) for p in np.split(z[k], np.cumsum(sizes)[:-1])]
        if all(p.sum() > 0 for p in probs):
            vectors = [
                solver._embed(m, t, p / p.sum()) for m, t, p in zip(counts, supports, probs)
            ]
            out.append((vectors, degenerate))
    return out


def _assert_matches_per_combination(game, tol=cg.DEFAULT_TOL):
    caps = game.strategy_counts
    got = _by_combination(game, caps, solver._mixed_candidates(game, caps, tol))
    expected = {}
    for combo in _mixed_combinations(game):
        candidates = _per_combination_candidates(game, combo, tol)
        if candidates:
            expected[combo] = candidates
    assert set(got) == set(expected)
    for combo, candidates in expected.items():
        assert len(got[combo]) == len(candidates)
        for (vectors, degenerate), (ref_vectors, ref_degenerate) in zip(
            got[combo], candidates
        ):
            assert degenerate == ref_degenerate
            assert all(np.array_equal(v, w) for v, w in zip(vectors, ref_vectors))
    return got


def _generic_n_player_games():
    games = [_three_player_game(m, seed, False) for m in (2, 3) for seed in range(2)]
    games += [_action_game(np.random.default_rng(seed).random((2,) * 4 + (4,)))
              for seed in range(2)]
    return games


def test_stacked_newton_matches_the_per_combination_reference():
    for game in _generic_n_player_games():
        for tol in (cg.DEFAULT_TOL, 1e-3):
            assert _assert_matches_per_combination(game, tol)
    # Four actions each make 3375 combinations: one game, one tolerance.
    assert _assert_matches_per_combination(_three_player_game(4, 0, False))


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_tied_three_player_games, st.sampled_from([1e-9, 1e-3, 0.5]))
def test_stacked_newton_matches_the_reference_on_tied_payoffs(game, tol):
    _assert_matches_per_combination(game, tol)


def _twin_action_game():
    """Three players with three actions and integer payoffs, where player x's
    first two actions pay x alike: every Jacobian of a support holding both
    has a zero row, and other combinations of its size signature do not."""
    payoffs = np.random.default_rng(5).integers(0, 3, (3, 3, 3, 3)).astype(float)
    payoffs[1, ..., 0] = payoffs[0, ..., 0]
    return _action_game(payoffs)


def _twin_jacobian_stack():
    """Jacobians and residuals of ``_twin_action_game`` at the uniform point
    and four fixed interior points, on every combination of support sizes
    (2, 2, 2), with the mask of the exactly singular ones (a zero LU pivot).
    Those include every one whose x support holds both twin actions."""
    game = _twin_action_game()
    pairs = list(itertools.combinations(range(3), 2))
    combos = list(itertools.product(pairs, repeat=3))
    rng = np.random.default_rng(0)
    starts = np.vstack(
        [np.full(6, 0.5), np.hstack([rng.dirichlet(np.ones(2), 4) for _ in range(3)])]
    )
    sub = np.stack([game.payoff_tensor[np.ix_(*combo)] for combo in combos])
    fun, jac = solver._indifference_system(
        np.repeat(sub, len(starts), axis=0), np.tile(starts, (len(combos), 1)), (2, 2, 2)
    )
    singular = np.linalg.slogdet(jac)[0] == 0
    twins = np.repeat([combo[0] == (0, 1) for combo in combos], len(starts))
    assert singular[twins].all() and not singular.all()
    return jac, fun, singular


def test_newton_step_of_each_row_is_its_step_alone():
    jac, fun, _ = _twin_jacobian_stack()
    # Denormal entries, as a Newton run met them: LU finds no zero pivot, so
    # ``solve`` does not raise (its step is not finite), yet ``det`` reads 0.
    denormal = np.array([
        [0, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0.32],
        [0, 0, 1, 1, 0, 0], [-4.244e-314, 8.488e-314, -1.0386, 0, 0, 0],
        [0, 0, 0, 0, 1, 1],
    ])
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.linalg.slogdet(denormal)[0] != 0 and np.linalg.det(denormal) == 0
        jac = np.concatenate([jac, denormal[None]])
        fun = np.concatenate([fun, np.ones((1, 6))])
        steps = solver._newton_steps(jac, fun)
        for k in range(len(jac)):
            alone = solver._newton_steps(jac[k : k + 1], fun[k : k + 1])[0]
            assert np.array_equal(steps[k], alone, equal_nan=True)


def test_singular_newton_steps_are_the_least_squares_steps():
    jac, fun, singular = _twin_jacobian_stack()
    steps = solver._newton_steps(jac, fun)
    for k in np.flatnonzero(singular):
        expected = np.linalg.lstsq(jac[k], -fun[k], rcond=None)[0]
        assert np.abs(steps[k] - expected).max() <= 1e-12


def _newton_per_halving(sub, z, sizes):
    """Reference for ``solver._newton``: the same Newton run, but each
    halving of a step evaluated in its own ``_indifference_system`` call on
    the rows that have not moved yet."""
    with np.errstate(over="ignore", invalid="ignore"):
        fun, jac = solver._indifference_system(sub, z, sizes)
        worst = np.abs(fun).max(axis=1)
        live = np.arange(len(z))
        for _ in range(50):
            step = solver._newton_steps(jac[live], fun[live])
            moved = np.zeros(live.size, dtype=bool)
            for _ in range(5):
                wait = np.flatnonzero(~moved)
                trial = z[live[wait]] + step[wait]
                trial_fun, trial_jac = solver._indifference_system(sub[live[wait]], trial, sizes)
                trial_worst = np.abs(trial_fun).max(axis=1)
                fell = trial_worst < worst[live[wait]]
                rows = live[wait[fell]]
                z[rows], fun[rows], jac[rows] = trial[fell], trial_fun[fell], trial_jac[fell]
                worst[rows] = trial_worst[fell]
                moved[wait[fell]] = True
                if moved.all():
                    break
                step[~moved] /= 2
            live = live[moved]
            if not live.size:
                break
    return z, worst, jac


def _newton_stacks(game):
    """The arguments of every ``_newton`` run of ``game``'s support search,
    copied before the run moves its points."""
    stacks = []
    original = solver._newton

    def recorded(sub, z, sizes):
        stacks.append((sub.copy(), z.copy(), tuple(sizes)))
        return original(sub, z, sizes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_newton", recorded)
        cg.support_enumeration(game)
    return stacks


def _assert_newton_matches_per_halving(game):
    stacks = _newton_stacks(game)
    if not stacks:
        # On a tied game the dominance check can prune every mixed
        # combination, and then no Newton run starts.
        tol = cg.DEFAULT_TOL
        assert all(_dominated_oracle(game, c, tol) for c in _mixed_combinations(game))
    for sub, z, sizes in stacks:
        got = solver._newton(sub, z.copy(), sizes)
        expected = _newton_per_halving(sub, z.copy(), sizes)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e, equal_nan=True)


def test_newton_line_search_matches_the_per_halving_reference():
    games = _generic_n_player_games() + [_three_player_game(4, 0, False), _twin_action_game()]
    for game in games:
        _assert_newton_matches_per_halving(game)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_tied_three_player_games)
@example(_three_player_game(2, 35, True))
def test_newton_line_search_matches_the_per_halving_reference_on_tied_payoffs(game):
    _assert_newton_matches_per_halving(game)


def test_newton_evaluates_each_step_in_at_most_two_calls():
    """Per step, one ``_indifference_system`` call on every live row, then
    one stacked call of the four halvings, trial-major, on exactly the rows
    whose full step did not lower their largest residual."""
    halvings = 0
    for game in [_three_player_game(3, 0, False), _twin_action_game()]:
        for sub, z, sizes in _newton_stacks(game):
            events = []
            system, steps = solver._indifference_system, solver._newton_steps

            def recorded_system(sub, z, sizes):
                out = system(sub, z, sizes)
                events.append(("system", sub, out[0]))
                return out

            def recorded_steps(jac, fun):
                events.append(("steps", None, fun))
                return steps(jac, fun)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solver, "_indifference_system", recorded_system)
                mp.setattr(solver, "_newton_steps", recorded_steps)
                solver._newton(sub, z, sizes)
            kinds = [kind for kind, _, _ in events]
            assert kinds[0] == "system"
            assert kinds.count("system") <= 1 + 2 * kinds.count("steps")
            for k in np.flatnonzero(np.array(kinds) == "steps"):
                worst = np.abs(events[k][2]).max(axis=1)
                assert kinds[k + 1] == "system"
                _, full_sub, full_fun = events[k + 1]
                stuck = ~(np.abs(full_fun).max(axis=1) < worst)
                if not stuck.any():
                    assert k + 2 == len(events) or kinds[k + 2] == "steps"
                    continue
                halvings += 1
                assert kinds[k + 2] == "system"
                half_sub = events[k + 2][1]
                assert np.array_equal(half_sub, np.concatenate([full_sub[stuck]] * 4))
    assert halvings


def test_newton_evaluations_stay_within_stack_floats(monkeypatch):
    """With a bound that fits several combinations per chunk but not all of
    a signature's, no evaluation in a Newton run, the stacked halvings
    included, holds more than ``STACK_FLOATS`` floats of Jacobians and
    sub-tensors."""
    game = _three_player_game(3, 0, False)
    monkeypatch.setattr(solver, "STACK_FLOATS", 1 << 15)
    sizes_of_runs, floats = [], []
    system, newton = solver._indifference_system, solver._newton

    def recorded_system(sub, z, sizes):
        fun, jac = system(sub, z, sizes)
        floats.append(sub.size + jac.size)
        return fun, jac

    def recorded_newton(sub, z, sizes):
        sizes_of_runs.append((tuple(sizes), len(sub) // solver._NEWTON_STARTS))
        return newton(sub, z, sizes)

    monkeypatch.setattr(solver, "_indifference_system", recorded_system)
    monkeypatch.setattr(solver, "_newton", recorded_newton)
    cg.support_enumeration(game)
    signatures = [sizes for sizes, _ in sizes_of_runs]
    assert len(signatures) > len(set(signatures))
    assert max(combos for _, combos in sizes_of_runs) > 1
    assert max(floats) <= solver.STACK_FLOATS


def test_stacked_newton_gives_the_same_results_one_combination_per_stack(monkeypatch):
    games = _generic_n_player_games() + [_twin_action_game()]
    expected = [cg.support_enumeration(game) for game in games]
    monkeypatch.setattr(solver, "STACK_FLOATS", 1)
    solved = _record_calls(monkeypatch, "_newton")
    for game, results in zip(games, expected):
        got = cg.support_enumeration(game)
        assert len(got) == len(results)
        for r, e in zip(got, results):
            assert all(
                np.array_equal(v, w)
                for v, w in zip(r.profile.vectors(), e.profile.vectors())
            )
            assert (r.support, r.degenerate, r.strict) == (e.support, e.degenerate, e.strict)
    assert {len(args[1]) for args, _ in solved} == {17}


def test_one_newton_run_per_support_size_signature(monkeypatch):
    game = _three_player_game(3, 0, False)
    solved = _record_calls(monkeypatch, "_newton")
    cg.support_enumeration(game)
    tol = cg.DEFAULT_TOL
    survivors = [c for c in _mixed_combinations(game) if not _dominated_oracle(game, c, tol)]
    signatures = {tuple(map(len, c)) for c in survivors}
    assert len(signatures) > 1
    assert len(solved) == len(signatures) < len(survivors)
    assert sorted(tuple(args[2]) for args, _ in solved) == sorted(signatures)
    assert sum(len(args[1]) for args, _ in solved) == 17 * len(survivors)


def test_two_solve_stack_calls_per_support_size_signature(monkeypatch):
    """A two-player search solves each signature's surviving pairs in one
    stack per block: the taller block of every pair, then its partner on
    the pairs the first accepts."""
    game = _generic_game(5, 5)
    solved = _record_calls(monkeypatch, "_solve_stack")
    cg.support_enumeration(game)
    tol = cg.DEFAULT_TOL
    survivors = [c for c in _mixed_combinations(game) if not _dominated_oracle(game, c, tol)]
    signatures = {tuple(map(len, c)) for c in survivors}
    assert len(signatures) > 1
    assert len(solved) == 2 * len(signatures) < len(survivors)
    firsts = [args[0] for args, _ in solved[::2]]
    assert sorted(stack.shape[1:] for stack in firsts) == sorted(
        (max(sizes), min(sizes)) for sizes in signatures
    )
    assert sum(len(stack) for stack in firsts) == len(survivors)


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
    for cell in itertools.product(*map(range, pd2.strategy_counts)):
        realized = pd2.family[pd2.realized_index[cell]]
        profile = cg.MixedProfile.pure(pd2, cell)
        assert cg.equilibrium_partitions(pd2, profile) == {realized: 1.0}


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
