import itertools

import pytest

from coalgame import (
    BudgetExceededError,
    Coalition,
    InvalidParameterError,
    Partition,
    count_partitions,
    enumerate_partitions,
    is_nested,
    parse_partition,
)


def test_two_players_both_partitions():
    fam = enumerate_partitions(2, 2)
    assert [p.key for p in fam] == ["0,1", "0|1"]


def test_singletons_only_when_cap_is_one():
    fam = enumerate_partitions(4, 1)
    assert len(fam) == 1
    assert fam[0] == Partition.singletons(4)


def test_counts_match_enumeration_small():
    assert len(enumerate_partitions(4, 2)) == 10
    assert len(enumerate_partitions(4, 4)) == 15  # Bell(4)


@pytest.mark.parametrize("n", range(2, 9))
def test_enumeration_matches_counting_oracle(n):
    for K in range(1, n + 1):
        assert len(enumerate_partitions(n, K)) == count_partitions(n, K)


def test_count_oracle_hand_values():
    # a(2)=2, a(3)=4, a(4)=10 for K=2
    assert count_partitions(2, 2) == 2
    assert count_partitions(3, 2) == 4
    assert count_partitions(4, 2) == 10
    assert count_partitions(4, 4) == 15
    assert count_partitions(1, 1) == 1


def test_enumerated_partitions_are_valid():
    for n in range(2, 7):
        for K in range(1, n + 1):
            for p in enumerate_partitions(n, K):
                members = sorted(m for block in p for m in block)
                assert members == list(range(n))
                assert p.max_block_size <= K


def test_enumeration_is_deterministic():
    a = enumerate_partitions(6, 3)
    b = enumerate_partitions(6, 3)
    assert a.partitions == b.partitions


def _restricted_growth_partitions(n, K):
    """Every partition of ``n`` players with blocks of at most ``K``, in
    lexicographic order of restricted growth strings, each block built anew."""
    out = []
    for labels in itertools.product(range(n), repeat=n):
        if any(b > max(labels[:t], default=-1) + 1 for t, b in enumerate(labels)):
            continue
        blocks = [[t for t, b in enumerate(labels) if b == k] for k in range(max(labels) + 1)]
        if max(map(len, blocks)) <= K:
            out.append(Partition(tuple(Coalition(tuple(b)) for b in blocks), n))
    return out


@pytest.mark.parametrize("n", range(2, 7))
def test_enumeration_shares_one_coalition_per_distinct_block(n):
    for K in range(2, n + 1):
        fam = enumerate_partitions(n, K)
        assert list(fam) == _restricted_growth_partitions(n, K)
        blocks = [block for p in fam for block in p]
        assert len({id(block) for block in blocks}) == len(set(blocks))


def test_nesting_chain():
    for n in (2, 3, 4, 5, 6):
        for K in range(1, n):
            assert is_nested(enumerate_partitions(n, K), enumerate_partitions(n, K + 1))


def test_nesting_is_reflexive():
    fam = enumerate_partitions(4, 2)
    assert is_nested(fam, fam)


def test_nesting_rejects_mismatched_player_counts():
    with pytest.raises(InvalidParameterError):
        is_nested(enumerate_partitions(4, 2), enumerate_partitions(3, 2))


@pytest.mark.parametrize("n,K", [(4, 0), (4, 5), (1, 1), (0, 1)])
def test_enumerate_rejects_bad_parameters(n, K):
    with pytest.raises(InvalidParameterError):
        enumerate_partitions(n, K)


def test_enumerate_refuses_huge_n_by_default():
    # The cap is the family's size, not the player count.
    assert len(enumerate_partitions(17, 1)) == 1
    with pytest.raises(BudgetExceededError) as err:
        enumerate_partitions(12, 12)
    assert err.value.required == count_partitions(12, 12) == 4_213_597
    # The count stops at the first family over the budget: a lower bound.
    with pytest.raises(BudgetExceededError) as err:
        enumerate_partitions(10**5, 10**5)
    assert err.value.required == 4_213_597
    (singletons,) = enumerate_partitions(10**5, 1)
    assert singletons == Partition.singletons(10**5)


def test_count_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        count_partitions(4, 0)
    with pytest.raises(InvalidParameterError):
        count_partitions(3, 4)


def test_block_of_reads_off_the_block():
    p = parse_partition("0,1|2|3", 4)
    assert p.block_of(0) == Coalition((0, 1))
    assert parse_partition("0,1", 2).block_of(1) == Coalition((0, 1))
    assert parse_partition("0|1", 2).block_of(0) == Coalition((0,))
    with pytest.raises(InvalidParameterError):
        p.block_of(4)


def test_partition_string_round_trip():
    for p in enumerate_partitions(5, 3):
        assert parse_partition(p.key, 5) == p


def test_parse_partition_canonicalizes_order():
    assert parse_partition("3|2,0|1", 4).key == "0,2|1|3"


@pytest.mark.parametrize(
    "text",
    # The last two are digits to str.isdigit: int() rejects SUPERSCRIPT TWO
    # and reads ARABIC-INDIC DIGIT THREE as 3.
    ["", "0,1", "0,1|1,2", "0|1|2|4", "0,x|1", "0||1", "0,1,3|\u00b2", "0,1,2|\u0663"],
)
def test_parse_partition_rejects_garbage(text):
    with pytest.raises(InvalidParameterError):
        parse_partition(text, 4)


def test_partition_blocks_must_be_canonical():
    with pytest.raises(InvalidParameterError):
        Partition((Coalition((2, 3)), Coalition((0, 1))), 4)
    # from_blocks canonicalizes the same input
    assert Partition.from_blocks([(2, 3), (0, 1)], 4).key == "0,1|2,3"


def test_coalition_rejects_duplicates_and_disorder():
    with pytest.raises(InvalidParameterError):
        Coalition((1, 1))
    with pytest.raises(InvalidParameterError):
        Coalition((2, 1))
    with pytest.raises(InvalidParameterError):
        Coalition(())
