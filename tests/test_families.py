from dataclasses import replace

import numpy as np
import pytest

import coalgame as cg
from coalgame.reports import _solve_game

from conftest import find_strategy, pure_profile


@pytest.fixture(scope="module")
def pd_fam():
    return cg.pd_family()


@pytest.fixture(scope="module")
def dinner_fam():
    return cg.dinner_family(2, 4)


def test_pd_family_shape(pd_fam):
    assert pd_fam.k_values == (1, 2)
    assert pd_fam[1].strategy_counts == (2, 2)
    assert pd_fam[2].strategy_counts == (4, 4)


def test_pd_k1_block_is_the_classic_two_by_two(pd_fam):
    game = pd_fam[1]
    cells = {
        (("0|1", "L"), ("0|1", "L")): (0, 0),
        (("0|1", "L"), ("0|1", "H")): (-5, 3),
        (("0|1", "H"), ("0|1", "L")): (3, -5),
        (("0|1", "H"), ("0|1", "H")): (-2, -2),
    }
    for (a, b), expected in cells.items():
        assert tuple(cg.payoff(game, pure_profile(game, a, b))) == expected


def test_dinner_family_partition_counts(dinner_fam):
    assert {k: len(g.family) for k, g in dinner_fam} == {2: 10, 3: 14, 4: 15}


def test_partition_counts_grow_with_k(dinner_fam):
    sizes = [len(dinner_fam[k].family) for k in dinner_fam.k_values]
    assert sizes == sorted(sizes)
    assert len(set(sizes)) == len(sizes)  # strictly increasing while K < n


def test_single_k_family_is_trivially_nested():
    fam = cg.build_family(cg.bundled_spec("pd"), (1, 1))
    assert fam.k_values == (1,)
    assert cg.check_nesting(fam).ok  # no pairs to compare


def test_nesting_passes_for_pd(pd_fam):
    report = cg.check_nesting(pd_fam)
    assert report.ok
    assert len(report.pairs) == 1
    assert all(check.ok for check in report.pairs[0].checks.values())


def test_nesting_passes_for_dinner(dinner_fam):
    report = cg.check_nesting(dinner_fam)
    assert report.ok
    assert len(report.pairs) == 2


def test_restriction_identity_is_exact(pd_fam, dinner_fam):
    for fam in (pd_fam, dinner_fam):
        ks = fam.k_values
        for k_small, k_large in zip(ks, ks[1:]):
            small, large = fam[k_small], fam[k_large]
            embedding = [
                [large.strategy_index(i, s) for s in small.strategy_sets[i]]
                for i in range(small.n)
            ]
            ix = np.ix_(*embedding)
            assert np.array_equal(large.payoff_tensor[ix], small.payoff_tensor)


def test_tampered_payoff_is_caught_with_the_offending_key():
    fam = cg.pd_family()
    bad_game = replace(
        fam[2],
        payoffs=cg.PayoffTable(
            n=2,
            exact={
                key: ((9.0, 9.0) if key == ("0|1", (1, 1)) else vec)
                for key, vec in fam[2].payoffs.exact.items()
            },
            partition_wide=dict(fam[2].payoffs.partition_wide),
            default=fam[2].payoffs.default,
        ),
    )
    tampered = cg.GameFamily(base=fam.base, games={1: fam[1], 2: bad_game})
    report = cg.check_nesting(tampered)
    assert not report.ok
    pay = report.pairs[0].checks["payoff_consistency"]
    assert not pay.ok
    assert "0|1" in pay.detail


def test_family_requires_contiguous_range(pd_fam):
    with pytest.raises(cg.InvalidParameterError):
        cg.GameFamily(base=pd_fam.base, games={1: pd_fam[1]} | {3: pd_fam[2]})


def test_build_family_rejects_bad_range():
    spec = cg.bundled_spec("pd")
    with pytest.raises(cg.InvalidParameterError):
        cg.build_family(spec, (0, 2))
    with pytest.raises(cg.InvalidParameterError):
        cg.build_family(spec, (2, 3))


def test_equilibria_across_k_for_pd(pd_fam):
    report = cg.equilibria_across_k(pd_fam)
    k1 = report.report_for(1)
    assert len(k1.equilibria) == 1
    assert [p.key for p in k1.partitions] == ["0|1"]
    k2 = report.report_for(2)
    assert {p.key for p in k2.partitions} == {"0,1", "0|1"}
    assert len(report.diffs) == 1
    assert [p.key for p in report.diffs[0].partitions_gained] == ["0,1"]
    assert report.diffs[0].partitions_lost == ()


def test_equilibria_across_k_extrovert_strict_joint():
    fam = cg.build_family(cg.bundled_spec("pd_extrovert"))
    report = cg.equilibria_across_k(fam)
    k2 = report.report_for(2)
    game = fam[2]
    h_joint = find_strategy(game, 0, "0,1", "H")
    strict = [
        r
        for r in k2.equilibria
        if r.support == ((h_joint,), (h_joint,))
        and cg.is_equilibrium(game, r.profile, "strict").ok
    ]
    assert strict
    assert tuple(strict[0].payoffs) == (-1.0, -1.0)


def test_dinner_two_table_outcome_persists_across_k(dinner_fam):
    report = cg.equilibria_across_k(dinner_fam)
    target = cg.parse_partition("0,1|2,3", 4)
    for k in (2, 3, 4):
        assert target in report.report_for(k).partitions
        profile = cg.MixedProfile.from_profile(
            dinner_fam[k], pure_profile(dinner_fam[k], *["0,1|2,3"] * 4)
        )
        assert cg.is_equilibrium(dinner_fam[k], profile).ok
        assert cg.equilibrium_partitions(dinner_fam[k], profile) == {target: 1.0}


def test_budget_errors_are_recorded_per_k_without_aborting(dinner_fam):
    report = cg.equilibria_across_k(
        dinner_fam, cg.SolveOptions(budget=20000)
    )
    assert report.report_for(2).error is None
    assert report.report_for(3).error is not None
    assert report.report_for(4).error is not None


def test_every_reported_equilibrium_validates_on_its_own_game(pd_fam):
    report = cg.equilibria_across_k(pd_fam)
    for entry in report.per_k:
        game = pd_fam[entry.K]
        for result in entry.equilibria:
            assert cg.is_equilibrium(game, result.profile).ok


@pytest.mark.parametrize("name", cg.BUNDLED_SPECS)
def test_solver_strict_flag_matches_strict_recheck(name):
    """The strict flag set once in the solver agrees with an independent
    strict ``is_equilibrium`` check, and strict mode keeps exactly the
    flagged results of weak mode."""
    spec = cg.bundled_spec(name)
    for k in range(1, spec.n + 1):
        game = cg.build_game(spec, k)
        if game.profile_count > cg.DEFAULT_BUDGET:
            continue
        weak, _ = _solve_game(game, cg.SolveOptions())
        assert weak
        for r in weak:
            check = cg.is_equilibrium(game, r.profile, "strict", cg.DEFAULT_TOL)
            assert r.strict == check.ok
        strict, _ = _solve_game(game, cg.SolveOptions(mode="strict"))
        assert [_flat(r) for r in strict] == [_flat(r) for r in weak if r.strict]


def _flat(result):
    return np.concatenate(result.profile.vectors()).tolist()


def test_results_list_partitions_in_family_order():
    def in_family_order(game, partitions):
        order = [game.family.index_of(p) for p in partitions]
        return order == sorted(order)

    spread = 0
    for name in cg.BUNDLED_SPECS:
        family = cg.build_family(cg.bundled_spec(name))
        for entry in cg.equilibria_across_k(family).per_k:
            game = family[entry.K]
            assert in_family_order(game, entry.partitions)
            for result in entry.equilibria:
                assert in_family_order(game, result.partition_distribution)
                spread += len(result.partition_distribution) > 1
            assert in_family_order(game, cg.check_mechanism_axioms(game).domain_sizes)
    assert spread > 0
