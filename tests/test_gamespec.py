import json

import numpy as np
import pytest

import coalgame as cg
from coalgame.gamespec import parse_spec, serialize_spec

from conftest import pure_profile


def test_bundled_dinner_spec_contents():
    spec = cg.bundled_spec("dinner")
    assert spec.players == ("A", "B", "C1", "C2")
    assert (spec.k_min, spec.k_max) == (2, 2)
    assert spec.rule == "coalition_unanimity"
    assert len(spec.payoff_rows) == 6
    assert spec.default_payoff == (0.0, 0.0, 0.0, 0.0)
    assert spec.epsilon is None


def test_bundled_pd_spec_contents():
    spec = cg.bundled_spec("pd")
    assert spec.players == ("1", "2")
    assert (spec.k_min, spec.k_max) == (1, 2)
    assert len(spec.payoff_rows) == 8
    assert spec.epsilon is not None
    assert spec.epsilon.per_player == (0.0, 0.0)


def test_bundled_specs_parse_and_build():
    for name in cg.BUNDLED_SPECS:
        game = cg.build_game(cg.bundled_spec(name))
        assert game.n >= 2


def test_round_trip_is_identity_on_canonical_form():
    for name in cg.BUNDLED_SPECS:
        first = parse_spec(cg.bundled_spec_text(name))
        text = serialize_spec(first)
        second = parse_spec(text)
        assert second == first
        assert serialize_spec(second) == text


def test_parse_canonicalizes_partition_keys_and_row_order():
    text = json.dumps(
        {
            "players": ["a", "b", "c"],
            "K": 2,
            "rule": "coalition_unanimity",
            "actions": ["go"],
            "payoffs": [
                {"partition": "2|1,0", "payoff": [1, 2, 3]},
                {"partition": "1|0,2", "payoff": [4, 5, 6]},
            ],
        }
    )
    spec = parse_spec(text)
    assert [r.partition_key for r in spec.payoff_rows] == ["0,1|2", "0,2|1"]


def test_scalar_bonus_becomes_per_player_vector():
    spec = cg.bundled_spec("pd_extrovert")
    assert spec.epsilon.per_player == (1.0, 1.0)


def test_epsilon_override():
    game, plain = cg.pd_game(2, epsilon=2.5), cg.pd_game(2)
    joint = pure_profile(game, ("0,1", "H"), ("0,1", "H"))
    assert tuple(cg.payoff(plain, joint)) == (-2.0, -2.0)
    assert tuple(cg.payoff(game, joint)) == (0.5, 0.5)
    with pytest.raises(cg.InvalidParameterError):
        cg.bundled_spec("dinner").with_epsilon(1.0)


def test_epsilon_bonus_is_a_number_or_any_1d_sequence():
    spec = cg.bundled_spec("pd_extrovert")

    def make(bonus):
        return cg.make_game(["x", "y"], K=2, epsilon_partition="0,1", epsilon_bonus=bonus)

    def paid(game):
        """The payoff when both announce the joint coalition (0 without a bonus)."""
        return tuple(cg.payoff(game, pure_profile(game, "0,1", "0,1")))

    for bonus in ([0.5, 0.25], (0.5, 0.25), np.array([0.5, 0.25])):
        assert spec.with_epsilon(bonus).epsilon.per_player == (0.5, 0.25)
        assert paid(make(bonus)) == (0.5, 0.25)
    assert paid(make(np.float64(0.5))) == (0.5, 0.5)
    for bad in ([1.0], np.ones(3), np.ones((2, 2))):
        with pytest.raises(cg.InvalidParameterError):
            spec.with_epsilon(bad)
        with pytest.raises(cg.InvalidParameterError):
            make(bad)


def _pd_dict():
    return json.loads(cg.bundled_spec_text("pd"))


def _expect_error(obj, fragment):
    with pytest.raises(cg.GameSpecError) as err:
        parse_spec(json.dumps(obj))
    assert fragment in str(err.value)


def test_unknown_top_level_key_rejected():
    obj = _pd_dict()
    obj["extra"] = 1
    _expect_error(obj, "extra")


def test_unknown_row_key_rejected():
    obj = _pd_dict()
    obj["payoffs"][0]["note"] = "hi"
    _expect_error(obj, "$.payoffs[0]")


def test_unknown_epsilon_key_rejected():
    obj = _pd_dict()
    obj["epsilon"]["scale"] = 2
    _expect_error(obj, "$.epsilon")


def test_non_finite_payoff_rejected():
    obj = _pd_dict()
    obj["payoffs"][0]["payoff"] = [0, float("inf")]
    with pytest.raises(cg.GameSpecError):
        parse_spec(json.dumps(obj))
    # the string "inf" is not a number either
    obj["payoffs"][0]["payoff"] = [0, "inf"]
    _expect_error(obj, "$.payoffs[0].payoff[1]")
    # nor is an integer too large for a float, wherever it stands
    obj["payoffs"][0]["payoff"] = [0, -(10**400)]
    _expect_error(obj, "$.payoffs[0].payoff[1]")
    obj = _pd_dict()
    obj["default_payoff"] = [10**400, 0]
    _expect_error(obj, "$.default_payoff[0]")
    obj = _pd_dict()
    obj["epsilon"]["bonus"] = 10**400
    _expect_error(obj, "$.epsilon.bonus")
    # Past the interpreter's limit on integer digits, the JSON itself fails.
    text = json.dumps(_pd_dict()).replace('"bonus": 0', '"bonus": 1' + "0" * 5000)
    with pytest.raises(cg.GameSpecError, match="invalid JSON"):
        parse_spec(text)


def test_unknown_rule_rejected():
    obj = _pd_dict()
    obj["rule"] = "dictatorship"
    _expect_error(obj, "$.rule")


def test_invalid_partition_string_rejected():
    obj = _pd_dict()
    obj["payoffs"][0]["partition"] = "0,7"
    _expect_error(obj, "$.payoffs[0].partition")


def test_oversized_block_rejected():
    obj = json.loads(cg.bundled_spec_text("matching_pennies"))
    obj["payoffs"][0]["partition"] = "0,1"  # K=1 game
    _expect_error(obj, "max coalition size")


def test_wrong_payoff_length_rejected():
    obj = _pd_dict()
    obj["payoffs"][0]["payoff"] = [1, 2, 3]
    _expect_error(obj, "$.payoffs[0].payoff")


def test_duplicate_rows_rejected():
    obj = _pd_dict()
    obj["payoffs"].append(dict(obj["payoffs"][0]))
    _expect_error(obj, "duplicate")


def test_k_and_k_range_are_mutually_exclusive():
    obj = _pd_dict()
    obj["K"] = 2
    _expect_error(obj, "exactly one of K or K_range")
    del obj["K"]
    del obj["K_range"]
    _expect_error(obj, "exactly one of K or K_range")


def test_bad_k_range_rejected():
    obj = _pd_dict()
    obj["K_range"] = [2, 1]
    _expect_error(obj, "K_min")
    obj["K_range"] = [1, 3]
    _expect_error(obj, "K_min")
    del obj["K_range"]
    obj["K"] = 3
    _expect_error(obj, "$.K: need 1 <= K <= 2, got 3")


def test_unknown_action_label_in_row_rejected():
    obj = _pd_dict()
    obj["payoffs"][0]["actions"] = ["L", "X"]
    _expect_error(obj, "$.payoffs[0].actions[1]")


def test_players_validation():
    _expect_error({"players": ["only"], "K": 1, "rule": "coalition_unanimity",
                   "actions": ["a"], "payoffs": []}, "$.players")
    _expect_error({"players": ["x", "x"], "K": 1, "rule": "coalition_unanimity",
                   "actions": ["a"], "payoffs": []}, "unique")


def test_syntax_error_reports_location():
    with pytest.raises(cg.GameSpecError) as err:
        parse_spec("{ not json")
    assert "line" in str(err.value)


def test_per_partition_action_sets():
    text = json.dumps(
        {
            "players": ["a", "b"],
            "K": 2,
            "rule": "coalition_unanimity",
            "actions": {"0,1": ["share", "grab"], "default": ["idle"]},
            "payoffs": [
                {"partition": "0,1", "actions": ["share", "share"], "payoff": [2, 2]},
            ],
        }
    )
    game = cg.build_game(parse_spec(text))
    assert game.strategy_counts == (3, 3)  # 2 actions in the pair, 1 alone


def test_action_sets_without_default_must_cover_every_partition():
    text = json.dumps(
        {
            "players": ["a", "b"],
            "K": 2,
            "rule": "coalition_unanimity",
            "actions": {"0,1": ["x"]},
            "payoffs": [],
        }
    )
    with pytest.raises(cg.GameSpecError) as err:
        parse_spec(text)
    assert "$.actions" in str(err.value)
