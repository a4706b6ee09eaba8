"""Per-run correctness gate for one CLI output.

A run passes when the process exited 0, printed non-empty JSON, every
reported profile passes ``is_equilibrium`` again at the run's tolerance (the
profiles are rebuilt with ``profiles_from_report``), no profile is listed
twice, the stated counts match the lists, and, where the workload knows
them, the counts are exact.
"""

from __future__ import annotations

import json

import numpy as np

from coalgame.errors import CoalgameError
from coalgame.families import build_family
from coalgame.gamespec import build_game, parse_spec
from coalgame.reports import profiles_from_report
from coalgame.solver import is_equilibrium


class GateError(Exception):
    """The output of a run is wrong."""


def _check_entries(game, entry: dict, tol: float, where: str) -> int:
    equilibria = entry["equilibria"]
    if entry["equilibrium_count"] != len(equilibria):
        raise GateError(
            f"{where}: equilibrium_count {entry['equilibrium_count']} but "
            f"{len(equilibria)} listed"
        )
    profiles = profiles_from_report(entry)
    keys = set()
    for k, profile in enumerate(profiles):
        check = is_equilibrium(game, profile, "weak", tol)
        if not check.ok:
            raise GateError(
                f"{where}: equilibrium #{k} fails is_equilibrium "
                f"(max_regret {check.max_regret:.3g})"
            )
        keys.add(np.round(np.concatenate(profile.vectors()), 9).tobytes())
    if len(keys) != len(profiles):
        raise GateError(f"{where}: {len(profiles) - len(keys)} duplicate profiles")
    return len(profiles)


def check_output(
    returncode: int,
    output: bytes,
    spec_text: str,
    command: str,
    tol: float,
    expected: dict[int, int] | None,
    k_range: tuple[int, int] | None = None,
) -> int:
    """Validate one run; returns the number of equilibria it reported.

    Raises :class:`GateError` on any failure.
    """
    if returncode != 0:
        raise GateError(f"exit code {returncode}")
    if not output.strip():
        raise GateError("empty output")
    try:
        report = json.loads(output)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise GateError(f"output is not JSON: {exc}") from None
    if not isinstance(report, dict) or report.get("kind") != command:
        raise GateError(f"expected a {command!r} report")
    spec = parse_spec(spec_text)
    try:
        if command == "solve":
            if report["tol"] != tol:
                raise GateError(f"report tol {report['tol']} != {tol}")
            game = build_game(spec)
            counts = {game.K: _check_entries(game, report, tol, f"K={game.K}")}
        else:
            family = build_family(spec, k_range)
            counts = {}
            for entry in report["per_k"]:
                if entry["error"]:
                    raise GateError(f"K={entry['K']}: {entry['error']}")
                counts[entry["K"]] = _check_entries(
                    family[entry["K"]], entry, tol, f"K={entry['K']}"
                )
            if sorted(counts) != list(family.k_values):
                raise GateError(f"reported K values {sorted(counts)}")
    except (KeyError, TypeError, ValueError, CoalgameError) as exc:
        raise GateError(f"malformed report: {exc!r}") from None
    if expected is not None and counts != expected:
        raise GateError(f"equilibrium counts {counts}, expected {expected}")
    return sum(counts.values())
