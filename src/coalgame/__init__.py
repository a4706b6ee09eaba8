"""Engine and equilibrium solver for coalition-structure formation games.

Players simultaneously announce a desired partition of the player set (with
coalition sizes capped at K) together with a local action; a formation rule
turns the announcements into one realized partition, and payoffs are looked
up per (realized partition, action profile). The solver computes expected
utilities, pure and mixed equilibria, and the distribution over realized
partitions that an equilibrium induces; games for different K form nested
families that can be checked and solved side by side.
"""


def _import_numpy() -> None:
    """Import numpy with one OpenBLAS thread, unless numpy is loaded already
    or the caller sized the thread pool by ``OPENBLAS_NUM_THREADS``,
    ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``. Every BLAS call the package
    makes is a small stacked system, so a second thread only spins. OpenBLAS
    reads the variable once, at load; it is removed again afterwards, so the
    environment that child processes see is left as it was."""
    import os
    import sys

    sized = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ)
    if "numpy" in sys.modules or sized:
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_import_numpy()

from .errors import (
    BudgetExceededError,
    CoalgameError,
    GameSpecError,
    InternalInconsistencyError,
    InvalidParameterError,
)
from .partitions import (
    DEFAULT_BUDGET,
    Coalition,
    Partition,
    PartitionFamily,
    count_partitions,
    enumerate_partitions,
    is_nested,
    parse_partition,
)
from .games import (
    Action,
    CoalitionUnanimity,
    FormationRule,
    Game,
    MechanismAxiomReport,
    PartitionStrategy,
    PartitionUnanimity,
    PayoffTable,
    apply_formation_rule,
    check_mechanism_axioms,
    coalition_values,
    induced_domain,
    make_game,
    payoff,
)
from .solver import (
    DEFAULT_TOL,
    EquilibriumCheck,
    EquilibriumResult,
    EquilibriumTable,
    MixedProfile,
    enumerate_pure_equilibria,
    equilibrium_partitions,
    expected_utility,
    expected_utility_components,
    is_equilibrium,
    support_enumeration,
)
from .families import GameFamily, NestingReport, build_family, check_nesting
from .gamespec import EpsilonBonus, GameSpec, build_game, parse_spec, serialize_spec
from .builtin_games import (
    BUNDLED_SPECS,
    builtin_games,
    bundled_spec,
    bundled_spec_text,
    dinner_family,
    dinner_game,
    matching_pennies_game,
    pd_extrovert_game,
    pd_family,
    pd_game,
)
from .reports import (
    FamilyReport,
    SolveOptions,
    SolveReport,
    ValidateReport,
    build_solve_report,
    build_validate_report,
    equilibria_across_k,
    pretty_partition,
    profiles_from_report,
)

__version__ = "0.1.0"

__all__ = [
    "Action",
    "BUNDLED_SPECS",
    "BudgetExceededError",
    "Coalition",
    "CoalgameError",
    "CoalitionUnanimity",
    "DEFAULT_BUDGET",
    "DEFAULT_TOL",
    "EpsilonBonus",
    "EquilibriumCheck",
    "EquilibriumResult",
    "EquilibriumTable",
    "FamilyReport",
    "FormationRule",
    "Game",
    "GameFamily",
    "GameSpec",
    "GameSpecError",
    "InternalInconsistencyError",
    "InvalidParameterError",
    "MechanismAxiomReport",
    "MixedProfile",
    "NestingReport",
    "Partition",
    "PartitionFamily",
    "PartitionStrategy",
    "PartitionUnanimity",
    "PayoffTable",
    "SolveOptions",
    "SolveReport",
    "ValidateReport",
    "apply_formation_rule",
    "build_family",
    "build_game",
    "build_solve_report",
    "build_validate_report",
    "builtin_games",
    "bundled_spec",
    "bundled_spec_text",
    "check_mechanism_axioms",
    "check_nesting",
    "coalition_values",
    "count_partitions",
    "dinner_family",
    "dinner_game",
    "enumerate_partitions",
    "enumerate_pure_equilibria",
    "equilibria_across_k",
    "equilibrium_partitions",
    "expected_utility",
    "expected_utility_components",
    "induced_domain",
    "is_equilibrium",
    "is_nested",
    "make_game",
    "matching_pennies_game",
    "parse_partition",
    "parse_spec",
    "payoff",
    "pd_extrovert_game",
    "pd_family",
    "pd_game",
    "pretty_partition",
    "profiles_from_report",
    "serialize_spec",
    "support_enumeration",
]
