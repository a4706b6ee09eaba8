import pytest

import coalgame as cg


@pytest.fixture(scope="session")
def dinner():
    return cg.dinner_game()


@pytest.fixture(scope="session")
def pd1():
    return cg.pd_game(1)


@pytest.fixture(scope="session")
def pd2():
    return cg.pd_game(2)


@pytest.fixture(scope="session")
def pd_ext():
    return cg.pd_extrovert_game()


@pytest.fixture(scope="session")
def pennies():
    return cg.matching_pennies_game()


def find_strategy(game, player, partition_key, action_label=None):
    """Index of the strategy announcing ``partition_key`` (and playing
    ``action_label``, when the game has more than one action)."""
    for k, s in enumerate(game.strategy_sets[player]):
        if s.desired.key != partition_key:
            continue
        if action_label is None or s.action.label == action_label:
            return k
    raise AssertionError(f"no strategy for {partition_key=} {action_label=}")


def pure_profile(game, *announcements):
    """Pure profile (a tuple of strategies) from per-player (partition_key,
    action_label) pairs; a bare string means the partition with the only
    action."""
    indices = []
    for i, ann in enumerate(announcements):
        if isinstance(ann, str):
            indices.append(find_strategy(game, i, ann))
        else:
            indices.append(find_strategy(game, i, ann[0], ann[1]))
    return game.profile_from_indices(indices)
