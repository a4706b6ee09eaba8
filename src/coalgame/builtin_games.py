"""Bundled example games, loadable by name.

``dinner`` is a 4-player table-choice game with a single trivial action and
partition-only payoffs; ``pd`` is a 2-player high/low action game playable at
K=1 (forced singletons) or K=2 (a joint coalition may form by unanimous
announcement); ``pd_extrovert`` adds a +1 per-player bonus when the joint
coalition is realized; ``matching_pennies`` is a K=1 anchor game with a
unique fully mixed equilibrium.
"""

from __future__ import annotations

from importlib import resources

from .errors import InvalidParameterError
from .families import GameFamily, build_family
from .games import Game
from .gamespec import GameSpec, build_game, parse_spec

BUNDLED_SPECS = ("dinner", "matching_pennies", "pd", "pd_extrovert")


def bundled_spec_text(name: str) -> str:
    if name not in BUNDLED_SPECS:
        raise InvalidParameterError(
            f"unknown bundled spec {name!r}; available: {list(BUNDLED_SPECS)}"
        )
    return (
        resources.files(__package__).joinpath("specs").joinpath(f"{name}.spec")
    ).read_text(encoding="utf-8")


def bundled_spec(name: str) -> GameSpec:
    return parse_spec(bundled_spec_text(name))


def dinner_game() -> Game:
    """The 4-player dinner game at K=2."""
    return build_game(bundled_spec("dinner"))


def dinner_family(k_lo: int = 2, k_hi: int = 4) -> GameFamily:
    return build_family(bundled_spec("dinner"), (k_lo, k_hi))


def _pd_spec(epsilon: float | None) -> GameSpec:
    spec = bundled_spec("pd")
    return spec if epsilon is None else spec.with_epsilon(epsilon)


def pd_game(K: int = 2, epsilon: float | None = None) -> Game:
    """The 2-player high/low game; ``epsilon`` overrides the joint-coalition
    bonus (the bundled spec ships with bonus 0)."""
    return build_game(_pd_spec(epsilon), K)


def pd_family(epsilon: float | None = None) -> GameFamily:
    return build_family(_pd_spec(epsilon))


def pd_extrovert_game(K: int = 2) -> Game:
    return build_game(bundled_spec("pd_extrovert"), K)


def matching_pennies_game() -> Game:
    return build_game(bundled_spec("matching_pennies"))


def builtin_games() -> dict[str, Game]:
    """The canonical game instances used by library-wide property checks."""
    return {
        "dinner": dinner_game(),
        "pd_k1": pd_game(1),
        "pd_k2": pd_game(2),
        "pd_extrovert": pd_extrovert_game(),
        "matching_pennies": matching_pennies_game(),
    }
