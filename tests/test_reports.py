"""The columnar solve path against a per-result reference.

The reference solves a game one result object per equilibrium: a loop over
the pure equilibrium cells, then the mixed candidates validated, deduplicated
and packaged one by one, then the strict filter. Its report entries come from
``_reference_dict``, one dict per result. The tables of ``_solve_game``, the
results they build on demand and the report dicts must match it exactly.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import coalgame as cg
from coalgame import solver
from coalgame.reports import SolveOptions, _solve_game
from coalgame.solver import _distinct

from test_games import _small_games
from test_solver import _by_combination, _supports


def _keys(profiles):
    return np.array([np.concatenate(p.vectors()) for p in profiles])


def _reference_pure(game, mode, tol):
    regret, weak, strict = solver._pure_regret_arrays(game, tol)
    mask = weak if mode == "weak" else strict
    # One point mass per (player, strategy), shared by the results.
    point_masses = [np.eye(m) for m in game.strategy_counts]
    return [
        cg.EquilibriumResult(
            profile=cg.MixedProfile(tuple(point_masses[i][k] for i, k in enumerate(cell))),
            mode=mode,
            payoffs=game.payoff_tensor[cell].copy(),
            partition_distribution={game.family[int(game.realized_index[cell])]: 1.0},
            max_regret=float(regret[cell]),
            support=tuple((k,) for k in cell),
            strict=bool(strict[cell]),
        )
        for cell in map(tuple, np.argwhere(mask).tolist())
    ]


def _reference_mixed(game, max_support, tol):
    caps = [m if max_support is None else min(m, max_support) for m in game.strategy_counts]
    supports = [_supports(m, cap) for m, cap in zip(game.strategy_counts, caps)]
    found = _by_combination(game, caps, solver._mixed_candidates(game, caps, tol))
    position = [{support: k for k, support in enumerate(s)} for s in supports]
    accepted = []
    for combo in sorted(found, key=lambda c: [p[t] for p, t in zip(position, c)]):
        for vectors, degenerate in found[combo]:
            profile = cg.MixedProfile.from_vectors(vectors)
            if cg.is_equilibrium(game, profile, "weak", tol).ok:
                accepted.append((profile, degenerate))
    results = []
    for i in _distinct(_keys(profile for profile, _ in accepted)):
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


def _reference_solve(game, options):
    results = _reference_pure(game, options.mode, options.tol)
    combinations = math.prod(
        solver._support_count(m, m if options.max_support is None else min(m, options.max_support))
        for m in game.strategy_counts
    )
    limit = cg.DEFAULT_BUDGET if options.budget is None else options.budget
    if combinations <= limit:
        mixed = _reference_mixed(game, options.max_support, options.tol)
        if mixed:
            results += mixed
            results = [results[i] for i in _distinct(_keys(r.profile for r in results))]
    if options.mode == "strict":
        results = [replace(r, mode="strict") for r in results if r.strict]
    return results


def _reference_dict(game, result):
    return {
        "profile": [v.tolist() for v in result.profile.vectors()],
        "support": [list(s) for s in result.support],
        "strategy_labels": [
            [str(game.strategy_sets[i][k]) for k in support]
            for i, support in enumerate(result.support)
        ],
        "payoffs": [float(x) for x in result.payoffs],
        "partition_distribution": {
            p.key: float(w) for p, w in result.partition_distribution.items()
        },
        "max_regret": float(result.max_regret),
        "mode": result.mode,
        "strict": result.strict,
        "degenerate": bool(result.degenerate),
    }


def _assert_same(got, expected):
    """``got == expected`` on strings or lists of up to tens of megabytes. A
    failure names the first differing offset or index and shows the values
    around it: pytest's own diff of values this large can run for minutes."""
    if got == expected:
        return
    k = next(
        (k for k, (a, b) in enumerate(zip(got, expected)) if a != b),
        min(len(got), len(expected)),
    )

    def around(value):
        part = value[max(k - 40, 0):k + 40] if isinstance(value, str) else value[k:k + 1]
        return repr(part)[:300]

    where = "offset" if isinstance(got, str) else "index"
    pytest.fail(
        f"first difference at {where} {k} (lengths {len(got)} and {len(expected)}): "
        f"{around(got)} != {around(expected)}"
    )


def test_same_value_check_names_the_first_difference():
    _assert_same("abc" * 10**6, "abc" * 10**6)
    with pytest.raises(pytest.fail.Exception, match="offset 5 "):
        _assert_same("abcdeXg", "abcdefg")
    with pytest.raises(pytest.fail.Exception, match=r"index 2 \(lengths 2 and 3\)"):
        _assert_same([1, 2], [1, 2, 3])


def _assert_matches(game, table, entries, expected):
    """``table`` builds ``expected`` field by field, bit for bit, and
    ``entries`` (its report dicts) are their reference dicts."""
    assert isinstance(table, cg.EquilibriumTable)
    got = list(table)
    assert len(got) == len(table) == len(expected)
    for r, e in zip(got, expected):
        assert [v.tobytes() for v in r.profile.vectors()] == [
            v.tobytes() for v in e.profile.vectors()
        ]
        assert r.payoffs.tobytes() == e.payoffs.tobytes()
        assert list(r.partition_distribution.items()) == list(e.partition_distribution.items())
        assert (r.mode, r.max_regret, r.support, r.strict, r.degenerate) == (
            e.mode, e.max_regret, e.support, e.strict, e.degenerate
        )
        assert type(r.max_regret) is float and type(r.strict) is bool
    reference = [_reference_dict(game, e) for e in expected]
    _assert_same(json.dumps(entries), json.dumps(reference))
    assert json.loads(json.dumps(entries[:100])) == entries[:100]


def test_json_special_text_passes_through_the_writer_unchanged():
    name = 'q"b\\s%s %d\né☃'
    spec = replace(cg.bundled_spec("pd"), name=name)
    report = cg.build_solve_report(cg.build_game(spec, 2))
    _assert_same(report.to_json(), json.dumps(report.to_dict()))
    assert report.to_dict()["game"]["name"] == name + "[K=2]"
    family = cg.build_family(spec)
    for options in (None, SolveOptions(budget=3)):
        result = cg.equilibria_across_k(family, options)
        _assert_same(result.to_json(), json.dumps(result.to_dict()))
        assert result.to_dict()["game"] == name
        # At budget 3 every K records its error string.
        errors = [entry["error"] for entry in result.to_dict()["per_k"]]
        assert all(errors) if options else not any(errors)


def _columns(table):
    return [
        a.tobytes()
        for a in (*table.profiles, table.payoffs, table.max_regret, table.strict,
                  table.degenerate, table.distributions)
    ] + [table.mode]


@pytest.mark.parametrize("name", cg.BUNDLED_SPECS)
def test_reports_match_the_per_result_reference_on_every_bundled_spec(name):
    spec = cg.bundled_spec(name)
    family = cg.build_family(spec, (1, spec.n))
    for mode in ("weak", "strict"):
        options = SolveOptions(mode=mode)
        result = cg.equilibria_across_k(family, options)
        _assert_same(result.to_json(), json.dumps(result.to_dict()))
        per_k = result.to_dict()["per_k"]
        assert [entry["K"] for entry in per_k] == list(range(1, spec.n + 1))
        for (_, game), k_report, entry in zip(family, result.per_k, per_k):
            assert entry["error"] is None
            report = cg.build_solve_report(game, options)
            entries = report.to_dict()["equilibria"]
            expected = _reference_solve(game, options)
            _assert_matches(game, report.equilibria, entries, expected)
            _assert_same(report.to_json(), json.dumps(report.to_dict()))
            # The family solves the same game into the same table and entries.
            _assert_same(_columns(k_report.equilibria), _columns(report.equilibria))
            _assert_same(entry["equilibria"], entries)
            # Its partitions are those some reference result realizes above
            # 1e-9, counted per result, in family order.
            counts = {
                p: sum(e.partition_distribution.get(p, 0.0) > 1e-9 for e in expected)
                for p in game.family
            }
            counts = {p: c for p, c in counts.items() if c}
            assert k_report.equilibria.partition_counts() == counts
            assert k_report.partitions == tuple(counts)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    _small_games().map(lambda args: cg.make_game(**args)),
    st.sampled_from(["weak", "strict"]),
    st.sampled_from([None, 1, 2]),
)
def test_reports_match_the_per_result_reference_on_small_games(game, mode, max_support):
    # The budget keeps the mixed search small; over it, both paths skip it.
    options = SolveOptions(mode=mode, max_support=max_support, budget=1000)
    table, _ = _solve_game(game, options)
    report = cg.build_solve_report(game, options)
    expected = _reference_solve(game, options)
    _assert_matches(game, table, report.to_dict()["equilibria"], expected)
    _assert_same(report.to_json(), json.dumps(report.to_dict()))


def _assert_distributions_aligned(game, table):
    """Each row's distribution is its own profile's pushforward, bit for bit
    (a point mass pushes forward to an exact one-hot)."""
    assert table.distributions.shape == (len(table), len(table.family))
    for e in range(len(table)):
        sigmas = [p[e] for p in table.profiles]
        pushed = solver._pushforward(game, sigmas)
        assert table.distributions[e].tobytes() == pushed.tobytes()


def test_table_indexing_and_slices(pd2):
    table, _ = _solve_game(pd2, SolveOptions())
    results = list(table)
    assert len(table) > 2
    mixed = [max(map(len, r.support)) > 1 for r in results]
    assert any(mixed) and not all(mixed)
    assert np.abs(table.distributions.sum(axis=1) - 1.0).max() <= 1e-12
    _assert_distributions_aligned(pd2, table)
    for part in (table.take([5, 0, 5, 8]), table[4:].concat(table[:4]), table[::-2]):
        _assert_distributions_aligned(pd2, part)
    assert table[-1].support == results[-1].support
    with pytest.raises(IndexError):
        table[len(table)]
    for window in (slice(1, None), slice(None, None, -1), slice(0, 0)):
        part = table[window]
        assert isinstance(part, cg.EquilibriumTable)
        assert [r.support for r in part] == [r.support for r in results[window]]
        assert [r.partition_distribution for r in part] == [
            r.partition_distribution for r in results[window]
        ]
    assert not table.payoffs.flags.writeable
    assert not table.distributions.flags.writeable
    assert not table[0].profile.probabilities[0].flags.writeable
