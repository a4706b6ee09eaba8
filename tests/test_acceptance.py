"""Acceptance suite: one check per shipped criterion, each printing a
PASS/FAIL line with its tolerance.

Run as ``pytest tests/test_acceptance.py -rA`` (captured lines are shown in
the summary) or directly as ``python tests/test_acceptance.py`` to execute
all criteria in order without stopping at the first failure.

Criterion 6a checks the dinner game's two-table outcome A,B | C1,C2 in the
form in which it holds. The solver reports unilateral (Nash) stability, and
under ``coalition_unanimity`` a block forms only when all of its members
announce it. One player's announcement can therefore only break a block
they are in, never form a new one, so a profile is weakly stable whenever no
player gains by leaving their block, even if several players would all gain
from a block none of them can form alone. Dinner at K=2 has 2736 weak pure
equilibria. Only 16 of them, all realizing 0,1|2,3 with payoffs (8,8,5,5),
survive the refinement that no group of at most K players can deviate
jointly with every member strictly gaining. Each of the other 2720 is a
coordination failure that a pair escapes, e.g. C1 and C2 both announcing
{2,3} from 0,1|2|3. The group check is a brute-force oracle in this file;
the program itself promises unilateral stability only. See the README for
the table of all 2736.
"""

import itertools
from functools import lru_cache

import numpy as np

import coalgame as cg

TOL = 1e-9


@lru_cache(maxsize=None)
def _games():
    return cg.builtin_games()


def _strategy(game, player, partition_key, action_label=None):
    for k, s in enumerate(game.strategy_sets[player]):
        if s.desired.key == partition_key and (
            action_label is None or s.action.label == action_label
        ):
            return k
    raise AssertionError(f"missing strategy {partition_key} {action_label}")


def _criterion(num: str, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_partition_counts():
    mismatches = []
    for n in range(2, 9):
        for K in range(1, n + 1):
            enumerated = len(cg.enumerate_partitions(n, K))
            counted = cg.count_partitions(n, K)
            if enumerated != counted:
                mismatches.append((n, K, enumerated, counted))
    spot = (
        len(cg.enumerate_partitions(4, 2)) == 10
        and len(cg.enumerate_partitions(4, 4)) == 15
    )
    _criterion(
        "01",
        not mismatches and spot,
        "enumeration equals the counting recurrence for all 2<=n<=8, 1<=K<=n; "
        "(4,2)->10 and (4,4)->15 exact",
    )


def test_criterion_02_mechanism_axioms():
    dinner = _games()["dinner"]
    pd2 = _games()["pd_k2"]
    dinner_report = cg.check_mechanism_axioms(dinner)
    pd_report = cg.check_mechanism_axioms(pd2)
    pd_sizes = {p.key: s for p, s in pd_report.domain_sizes.items()}
    ok = (
        dinner_report.ok
        and sum(dinner_report.domain_sizes.values()) == 10**4
        and pd_report.ok
        and pd_sizes == {"0|1": 12, "0,1": 4}
    )
    _criterion(
        "02",
        ok,
        "domains disjoint and covering for dinner K=2 (10^4 profiles) and the "
        f"two-player game K=2; split {pd_sizes.get('0|1')}+{pd_sizes.get('0,1')}=16 exact",
    )


def test_criterion_03_two_player_game_k1():
    game = _games()["pd_k1"]
    results = cg.enumerate_pure_equilibria(game, tol=TOL)
    h = _strategy(game, 0, "0|1", "H")
    ok = (
        len(results) == 1
        and results[0].support == ((h,), (h,))
        and tuple(results[0].payoffs) == (-2.0, -2.0)
    )
    _criterion(
        "03", ok, "K=1: exactly one weak pure equilibrium, both high, payoff (-2,-2) exact"
    )


def test_criterion_04_two_player_game_k2():
    game = _games()["pd_k2"]
    results = cg.enumerate_pure_equilibria(game, tol=TOL)
    payoffs_ok = all(tuple(r.payoffs) == (-2.0, -2.0) for r in results)
    realized = sorted(next(iter(r.partition_distribution)).key for r in results)
    ok = len(results) == 4 and payoffs_ok and realized == ["0,1", "0|1", "0|1", "0|1"]
    _criterion(
        "04",
        ok,
        "K=2: exactly 4 weak pure equilibria, all paying (-2,-2); three realize "
        "0|1 and one realizes 0,1; exact",
    )


def test_criterion_05_extrovert_bonus_game():
    game = _games()["pd_extrovert"]
    h_joint = _strategy(game, 0, "0,1", "H")
    h_sep = _strategy(game, 0, "0|1", "H")

    joint = cg.MixedProfile.pure(game, (h_joint, h_joint))
    weak = cg.is_equilibrium(game, joint, "weak", TOL)
    strict = cg.is_equilibrium(game, joint, "strict", TOL)
    payoffs = cg.payoff(game, game.profile_from_indices((h_joint, h_joint)))

    cross_a = cg.is_equilibrium(game, cg.MixedProfile.pure(game, (h_sep, h_joint)), "weak", TOL)
    cross_b = cg.is_equilibrium(game, cg.MixedProfile.pure(game, (h_joint, h_sep)), "weak", TOL)

    report = cg.build_solve_report(game, cg.SolveOptions(tol=TOL))
    sep_entries = [
        (r, r.strict)
        for r in report.equilibria
        if r.support == ((h_sep,), (h_sep,))
    ]
    flagged = any("uniqueness caveat" in note for note in report.notes)

    ok = (
        weak.ok
        and strict.ok
        and tuple(payoffs) == (-1.0, -1.0)
        and not cross_a.ok
        and not cross_b.ok
        and len(sep_entries) == 1
        and sep_entries[0][1] is False
        and flagged
    )
    _criterion(
        "05",
        ok,
        "bonus=1: both-high-joint is weak AND strict with payoff (-1,-1) exact; "
        "mixed-announcement high profiles are not equilibria; both-high-separate "
        "is reported weak-but-not-strict and the report carries the uniqueness caveat",
    )


def _group_deviation(game, cell, tol):
    """Brute-force oracle over ``game.payoff_tensor``: the first joint
    deviation from the pure profile ``cell`` by a group of 2..K players in
    which every member gains more than ``tol``, smallest groups first, as
    ``(group, deviated cell)``; ``None`` if there is none."""
    tensor = game.payoff_tensor
    current = tensor[cell]
    for size in range(2, game.K + 1):
        for group in itertools.combinations(range(game.n), size):
            members = list(group)
            index = tuple(slice(None) if i in group else k for i, k in enumerate(cell))
            gains = tensor[index][..., members] > current[members] + tol
            hits = np.argwhere(gains.all(axis=-1))
            if len(hits):
                deviated = list(cell)
                for i, k in zip(group, hits[0]):
                    deviated[i] = int(k)
                return group, tuple(deviated)
    return None


def test_criterion_06a_dinner_pure_equilibria_all_two_table():
    """The program's equilibria are unilateral (Nash) stability: no player
    gains by a pure deviation of their own. The refinement by at most K
    deviators, which the paper's K also bounds, is checked here only, by the
    brute-force ``_group_deviation``; the abstract alone does not settle
    whether the paper's own solution concept rules out group deviations."""
    dinner = _games()["dinner"]
    results = cg.enumerate_pure_equilibria(dinner, tol=TOL)
    target = cg.parse_partition("0,1|2,3", 4)
    two_table_payoffs = (8.0, 8.0, 5.0, 5.0)

    def realized(cell):
        return dinner.family[int(dinner.realized_index[cell])].key

    def describe(cell):
        announced = "; ".join(
            dinner.strategy_sets[i][k].desired.key for i, k in enumerate(cell)
        )
        paying = tuple(float(x) for x in dinner.payoff_tensor[cell])
        return f"announcements ({announced}) realizing {realized(cell)} paying {paying}"

    unimprovable = []
    pair_deviations = []
    broken = []
    for r in results:
        cell = tuple(k for (k,) in r.support)
        deviation = _group_deviation(dinner, cell, TOL)
        if deviation is None:
            unimprovable.append(cell)
            if (
                r.partition_distribution != {target: 1.0}
                or tuple(r.payoffs) != two_table_payoffs
            ):
                broken.append(f"{describe(cell)} admits no group deviation")
        elif len(deviation[0]) != 2:
            broken.append(f"{describe(cell)} has no pair deviation")
        else:
            pair_deviations.append((cell, deviation))

    ok = (
        len(results) == 2736
        and len(unimprovable) == 16
        and len(pair_deviations) == 2720
        and not broken
    )
    if ok:
        cell, (group, deviated) = next(
            (c, d) for c, d in pair_deviations if realized(c) == "0,1|2|3"
        )
        detail = (
            "2736 weak pure equilibria exact; the 16 that no group of 2..K=2 "
            "players can strictly improve on all realize 0,1|2,3 paying "
            "(8,8,5,5) exactly; each of the other 2720 is a coordination "
            f"failure with a pair deviation in which both members gain more "
            f"than {TOL:g} (e.g. players {group} from {describe(cell)} to "
            f"{describe(deviated)})"
        )
    else:
        detail = (
            f"{len(results)} weak pure equilibria (want 2736), "
            f"{len(unimprovable)} with no group deviation (want 16), "
            f"{len(pair_deviations)} with a pair deviation (want 2720)"
            + (f"; first broken: {broken[0]}" if broken else "")
        )
    _criterion("06a", ok, detail)


def test_criterion_06b_dinner_two_table_mixture_family():
    dinner = _games()["dinner"]
    pair_tables = _strategy(dinner, 0, "0,1|2,3")
    ab_alone = _strategy(dinner, 0, "0,1|2|3")
    rng = np.random.default_rng(2024)
    worst = 0.0
    ok = True
    for _ in range(10):
        p, q = rng.uniform(0.0, 1.0, size=2)
        vectors = []
        for i in range(4):
            v = np.zeros(10)
            if i < 2:
                weight = p if i == 0 else q
                v[pair_tables] = weight
                v[ab_alone] = 1.0 - weight
            else:
                v[_strategy(dinner, i, "0,1|2,3")] = 1.0
            vectors.append(v)
        check = cg.is_equilibrium(dinner, cg.MixedProfile.from_vectors(vectors), "weak", TOL)
        worst = max(worst, check.max_regret)
        ok = ok and check.ok
    _criterion(
        "06b",
        ok and worst <= 1e-9,
        "10 sampled (p,q) mixtures of A,B over their two {A,B} announcements "
        f"(C1,C2 pure on the two-table partition) all validate; max_regret {worst:.2e} <= 1e-9",
    )


def test_criterion_07_cooperative_value_column():
    dinner = _games()["dinner"]
    expected = {
        "0,1|2|3": {(0, 1): 20.0, (2,): 3.0, (3,): 3.0},
        "0,1|2,3": {(0, 1): 16.0, (2, 3): 10.0},
        "0,2|1,3": {(0, 2): 13.0, (1, 3): 10.0},
        "0,2|1|3": {(0, 2): 13.0, (1,): 3.0, (3,): 3.0},
        "0,3|1,2": {(0, 3): 13.0, (1, 2): 10.0},
        "0,3|1|2": {(0, 3): 13.0, (1,): 3.0, (2,): 3.0},
    }
    ok = True
    for key, want in expected.items():
        partition = cg.parse_partition(key, 4)
        profile = dinner.profile_from_indices(
            tuple(_strategy(dinner, i, key) for i in range(4))
        )
        values = cg.coalition_values(partition, cg.payoff(dinner, profile))
        got = {tuple(c.members): v for c, v in values.items()}
        ok = ok and got == want
    _criterion(
        "07",
        ok,
        "coalition values of the six listed dinner rows match exactly "
        "(20 for A+B alone-together, 16 and 10 in the two-table outcome, ...)",
    )


def test_criterion_08_expected_utility_decomposition():
    rng = np.random.default_rng(8)
    worst = 0.0
    for name, game in _games().items():
        for _ in range(1000):
            profile = cg.MixedProfile.from_vectors(
                [rng.dirichlet(np.ones(m)) for m in game.strategy_counts]
            )
            for i in range(game.n):
                direct, decomposed = cg.expected_utility_components(game, profile, i)
                worst = max(worst, abs(direct - decomposed))
    _criterion(
        "08",
        worst <= 1e-10,
        f"direct and partition-decomposed expected utility agree within 1e-10 "
        f"over 1000 random mixed profiles per built-in game (worst gap {worst:.2e})",
    )


def test_criterion_09_nesting_and_persistence():
    pd_fam = cg.pd_family()
    dinner_fam = cg.dinner_family(2, 4)
    nest_ok = cg.check_nesting(pd_fam).ok and cg.check_nesting(dinner_fam).ok

    target = cg.parse_partition("0,1|2,3", 4)
    report = cg.equilibria_across_k(dinner_fam)
    partitions_per_k = []
    persists = True
    for k in (2, 3, 4):
        game = dinner_fam[k]
        profile = cg.MixedProfile.pure(
            game, tuple(_strategy(game, i, "0,1|2,3") for i in range(4))
        )
        check = cg.is_equilibrium(game, profile, "weak", TOL)
        induced = cg.equilibrium_partitions(game, profile)
        persists = persists and check.ok and induced == {target: 1.0}
        partitions_per_k.append(target in report.report_for(k).partitions)
    ok = nest_ok and persists and all(partitions_per_k)
    _criterion(
        "09",
        ok,
        "both families pass every nesting assertion exactly; the dinner "
        "two-table equilibrium validates at K=2,3,4 and induces the same "
        "partition each time",
    )


def test_criterion_10_existence_at_desk_scale():
    missing = []
    for name, game in _games().items():
        results = cg.enumerate_pure_equilibria(game, tol=TOL)
        if not results:
            results = cg.support_enumeration(game, tol=TOL)
        validated = [r for r in results if cg.is_equilibrium(game, r.profile, "weak", TOL).ok]
        if not validated:
            missing.append(name)
    _criterion(
        "10",
        not missing,
        "every built-in game has at least one validated equilibrium"
        + (f" (missing: {missing})" if missing else ""),
    )


def test_criterion_11_matching_pennies_anchor():
    game = _games()["matching_pennies"]
    results = cg.support_enumeration(game, tol=TOL)
    ok = len(results) == 1 and all(
        np.abs(v - 0.5).max() <= 1e-9 for v in results[0].profile.vectors()
    )
    _criterion(
        "11",
        ok,
        "support enumeration returns exactly ((0.5,0.5),(0.5,0.5)) within 1e-9",
    )


_CRITERIA = [
    test_criterion_01_partition_counts,
    test_criterion_02_mechanism_axioms,
    test_criterion_03_two_player_game_k1,
    test_criterion_04_two_player_game_k2,
    test_criterion_05_extrovert_bonus_game,
    test_criterion_06a_dinner_pure_equilibria_all_two_table,
    test_criterion_06b_dinner_two_table_mixture_family,
    test_criterion_07_cooperative_value_column,
    test_criterion_08_expected_utility_decomposition,
    test_criterion_09_nesting_and_persistence,
    test_criterion_10_existence_at_desk_scale,
    test_criterion_11_matching_pennies_anchor,
]


if __name__ == "__main__":
    import sys

    failures = 0
    for check in _CRITERIA:
        try:
            check()
        except AssertionError:
            failures += 1
    print(f"{len(_CRITERIA) - failures} of {len(_CRITERIA)} criteria passed")
    sys.exit(1 if failures else 0)
