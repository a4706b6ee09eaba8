import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import coalgame as cg
from coalgame import cli
from coalgame.cli import run_cli


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _subprocess_env():
    """The environment with this checkout's package first on the path."""
    src = str(Path(cg.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


_PROBE = """\
import io, json, sys
from coalgame.cli import run_cli
out = io.StringIO()
code = run_cli(sys.argv[1:], out=out, err=io.StringIO())
print(json.dumps({
    "code": code,
    "scipy": "scipy" in sys.modules,
    "numpy_random": "numpy.random" in sys.modules,
    "out": out.getvalue(),
}))
"""


def _probe(*argv):
    """Run one command in a fresh interpreter; its exit code, whether it
    loaded scipy and numpy.random, and its output."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True, text=True, env=_subprocess_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _write_spec(path, players, K, payoffs, actions=("act",)):
    path.write_text(json.dumps({
        "name": path.stem,
        "players": players,
        "K": K,
        "rule": "coalition_unanimity",
        "actions": list(actions),
        "payoffs": payoffs,
        "default_payoff": [0] * len(players),
    }), encoding="utf-8")
    return path


def _write_three_player_pennies(directory):
    """Jordan's three-player matching pennies: its only equilibrium is
    uniform mixing, found by the n≥3 support search."""
    payoffs = [
        {
            "partition": "0|1|2",
            "actions": ["HT"[x], "HT"[y], "HT"[z]],
            "payoff": [1 if x == y else -1, 1 if y == z else -1, 1 if z != x else -1],
        }
        for x in (0, 1) for y in (0, 1) for z in (0, 1)
    ]
    return _write_spec(directory / "pennies3.spec", ["a", "b", "c"], 1, payoffs, "HT")


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    """The bundled specs, plus ``pennies3.spec``."""
    target = tmp_path_factory.mktemp("specs")
    code, _, _ = _run("examples", "--out", str(target))
    assert code == 0
    _write_three_player_pennies(target)
    return target


def test_partitions_lists_and_counts():
    code, out, _ = _run("partitions", "4", "2")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 11
    assert lines[-1] == "count=10"
    assert "0,1|2,3" in lines


def test_module_entry_point_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "coalgame.cli", "partitions", "4", "2"],
        capture_output=True, text=True, env=_subprocess_env(), timeout=120,
    )
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0
    assert len(set(lines[:-1])) == 10
    assert lines[-1] == "count=10"


def test_partitions_bad_parameters_exit_two():
    code, _, err = _run("partitions", "4", "9")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("n", ["16", "100000"])
def test_partitions_over_the_budget_exit_three(n):
    # The count stops at P(12, 12) = 4 213 597 partitions, over the budget,
    # before any is built: Bell(16) is 10 480 142 147, Bell(100000) far more.
    code, out, err = _run("partitions", n, n)
    assert code == 3
    assert out == "" and "at least 4213597" in err


def test_partitions_of_many_players_into_singletons():
    code, out, _ = _run("partitions", "2000", "1")
    assert code == 0
    assert out.splitlines() == ["|".join(map(str, range(2000))), "count=1"]


def test_examples_lists_bundled_names():
    code, out, _ = _run("examples")
    assert code == 0
    assert set(out.split()) == set(cg.BUNDLED_SPECS)


def test_examples_emits_parseable_specs():
    for name in cg.BUNDLED_SPECS:
        code, out, _ = _run("examples", name)
        assert code == 0
        assert cg.parse_spec(out).players


def test_validate_dinner_passes(spec_dir):
    code, out, _ = _run("validate", str(spec_dir / "dinner.spec"))
    assert code == 0
    assert "validate: ok" in out


def test_validate_json_format(spec_dir):
    code, out, _ = _run("validate", str(spec_dir / "pd.spec"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["axioms"]["2"]["domain_sizes"] == {"0,1": 4, "0|1": 12}


def test_solve_pd_reports_four_pure_equilibria(spec_dir):
    code, out, _ = _run("solve", str(spec_dir / "pd.spec"), "--mode", "weak",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    pure = [e for e in payload["equilibria"] if not e["degenerate"]]
    assert len(pure) == 4
    assert all(e["payoffs"] == [-2.0, -2.0] for e in pure)
    realized = sorted(
        key for e in pure for key in e["partition_distribution"]
    )
    assert realized == ["0,1", "0|1", "0|1", "0|1"]


def test_solve_dinner_contains_two_table_equilibrium(spec_dir):
    code, out, _ = _run("solve", str(spec_dir / "dinner.spec"))
    assert code == 0
    assert "0,1|2,3" in out
    assert "(8, 8, 5, 5)" in out


def test_solve_report_revalidates(spec_dir):
    code, out, _ = _run("solve", str(spec_dir / "pd.spec"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    game = cg.pd_game(2)
    profiles = cg.profiles_from_report(payload)
    assert profiles
    for profile in profiles:
        assert cg.is_equilibrium(game, profile).ok


def test_solve_report_json_round_trips(spec_dir):
    code, out, _ = _run("solve", str(spec_dir / "pd.spec"), "--format", "json")
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload


def test_epsilon_flag_turns_pd_into_the_extrovert_game(spec_dir):
    code, out, _ = _run("solve", str(spec_dir / "pd.spec"), "--epsilon", "1",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    strict = [e for e in payload["equilibria"] if e["strict"] and not e["degenerate"]]
    assert len(strict) == 1
    assert strict[0]["payoffs"] == [-1.0, -1.0]
    assert list(strict[0]["partition_distribution"]) == ["0,1"]
    assert any("uniqueness caveat" in note for note in payload["notes"])


def test_strict_mode_filters(spec_dir):
    code, out, _ = _run("solve", str(spec_dir / "pd_extrovert.spec"),
                        "--mode", "strict", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(e["strict"] for e in payload["equilibria"])
    assert any(e["payoffs"] == [-1.0, -1.0] for e in payload["equilibria"])


def test_family_strict_mode_keeps_only_strict_equilibria(spec_dir):
    spec = str(spec_dir / "pd.spec")
    code, out, _ = _run("family", spec, "--mode", "strict", "--format", "json")
    assert code == 0
    by_k = {entry["K"]: entry for entry in json.loads(out)["per_k"]}
    assert all(e["strict"] for entry in by_k.values() for e in entry["equilibria"])
    code, out, _ = _run("solve", spec, "--K", "2", "--mode", "strict",
                        "--format", "json")
    assert code == 0
    assert by_k[2]["equilibrium_count"] == json.loads(out)["equilibrium_count"]


def test_strict_runs_label_every_result_strict(spec_dir):
    code, out, _ = _run("solve", str(spec_dir / "matching_pennies.spec"),
                        "--mode", "strict", "--format", "json")
    assert code == 0
    results = json.loads(out)["equilibria"]
    code, out, _ = _run("family", str(spec_dir / "pd.spec"), "--mode", "strict",
                        "--format", "json")
    assert code == 0
    results += [e for entry in json.loads(out)["per_k"] for e in entry["equilibria"]]
    assert any(len(support) > 1 for e in results for support in e["support"])
    assert all(e["mode"] == "strict" and e["strict"] for e in results)


@pytest.mark.parametrize("spec", ["dinner", "matching_pennies"])
@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--tol", "-1"),
        ("solve", "--tol", "0"),
        ("solve", "--tol", "nan"),
        ("solve", "--tol", "inf"),
        ("solve", "--max-support", "0"),
        ("solve", "--budget", "-5"),
        ("family", "--tol", "0"),
        ("family", "--max-support", "0", "--budget", "10"),
        ("family", "--budget", "-5"),
        ("validate", "--budget", "-5"),
    ],
    ids=" ".join,
)
def test_invalid_solve_options_exit_two(spec_dir, spec, argv):
    command, *flags = argv
    code, out, err = _run(command, str(spec_dir / f"{spec}.spec"), *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_budget_comes_only_from_the_flag(spec_dir, monkeypatch):
    monkeypatch.setenv("COALGAME_BUDGET", "10")
    code, out, _ = _run("solve", str(spec_dir / "pd.spec"), "--format", "json")
    assert code == 0
    assert json.loads(out)["tol"] == cg.DEFAULT_TOL


def test_family_report_for_pd(spec_dir):
    code, out, _ = _run("family", str(spec_dir / "pd.spec"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    by_k = {entry["K"]: entry for entry in payload["per_k"]}
    assert by_k[1]["equilibrium_partitions"] == ["0|1"]
    assert by_k[2]["equilibrium_partitions"] == ["0,1", "0|1"]
    assert payload["diffs"][0]["partitions_gained"] == ["0,1"]


def test_family_respects_k_range_flags(spec_dir):
    code, out, _ = _run("family", str(spec_dir / "dinner.spec"),
                        "--k-max", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [entry["K"] for entry in payload["per_k"]] == [2, 3]


def test_budget_exhaustion_exits_three(spec_dir):
    code, _, err = _run("solve", str(spec_dir / "dinner.spec"), "--budget", "10")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_unaddressable_game_exits_three_without_a_traceback(tmp_path, command):
    spec = _write_spec(
        tmp_path / "seven.spec", [f"p{i}" for i in range(7)], 7,
        [{"partition": "0,1,2,3,4,5,6", "payoff": list(range(1, 8))}],
    )
    proc = subprocess.run(
        [sys.executable, "-m", "coalgame.cli", command, str(spec),
         "--budget", str(10**24)],
        capture_output=True, text=True, env=_subprocess_env(), timeout=120,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "more than numpy can address" in proc.stderr


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_more_players_than_numpy_axes_exits_two(tmp_path, command):
    players = [f"p{i}" for i in range(2000)]
    spec = _write_spec(tmp_path / "many.spec", players, 1, [])
    code, _, err = _run(command, str(spec))
    assert code == 2
    assert err.startswith("error: ") and "2000 axes" in err


def test_bad_spec_file_exits_two(tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("{ nope", encoding="utf-8")
    code, _, err = _run("solve", str(bad))
    assert code == 2
    assert "error" in err
    code, _, _ = _run("solve", str(tmp_path / "missing.spec"))
    assert code == 2
    # Partition strings take ASCII digits only; payoffs must fit a float.
    for payoff in (
        {"partition": "0|\u00b2", "payoff": [1, 1]},
        {"partition": "0|\u0661", "payoff": [1, 1]},
        {"partition": "0|1", "payoff": [10**400, 1]},
    ):
        spec = _write_spec(tmp_path / "bad.spec", ["a", "b"], 1, [payoff])
        code, out, err = _run("solve", str(spec))
        assert (code, out) == (2, "")
        assert err.startswith("error: $.payoffs[0].")


def test_examples_out_that_cannot_be_written_exits_two(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    code, out, err = _run("examples", "pd", "--out", str(blocker))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write ")
    # The directory exists, but the spec's own path is a directory.
    (tmp_path / "dir" / "pd.spec").mkdir(parents=True)
    code, out, err = _run("examples", "pd", "--out", str(tmp_path / "dir"))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write ")


def test_missing_subcommand_exits_two():
    code, _, _ = _run()
    assert code == 2


# --- what each command loads and writes --------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "pd.spec"),
        ("solve", "matching_pennies.spec"),
        ("solve", "pennies3.spec"),
        ("family", "dinner.spec", "--k-min", "1", "--k-max", "2"),
        ("validate", "dinner.spec"),
    ],
    ids=" ".join,
)
def test_no_command_loads_scipy(spec_dir, argv):
    command, spec, *flags = argv
    probe = _probe(command, str(spec_dir / spec), *flags, "--format", "json")
    assert probe["code"] == 0
    assert json.loads(probe["out"])
    assert probe["scipy"] is False


def test_a_two_player_mixed_solve_does_not_load_numpy_random(spec_dir):
    probe = _probe("solve", str(spec_dir / "matching_pennies.spec"), "--format", "json")
    assert probe["code"] == 0
    # One mixed equilibrium, merged with the (empty) pure list by ``_distinct``.
    assert json.loads(probe["out"])["equilibrium_count"] == 1
    assert probe["numpy_random"] is False


def test_json_family_report_builds_no_result_objects(spec_dir, monkeypatch):
    built = []
    init = cg.EquilibriumResult.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cg.EquilibriumResult, "__init__", counted)
    code, out, _ = _run(
        "family", str(spec_dir / "dinner.spec"), "--k-min", "1", "--k-max", "2",
        "--format", "json",
    )
    assert code == 0
    assert [entry["equilibrium_count"] for entry in json.loads(out)["per_k"]] == [1, 2736]
    assert built == []
    # The spy sees the results the public functions build.
    assert len(cg.enumerate_pure_equilibria(cg.pd_game(2))) == len(built) > 0


def test_three_player_mixed_solve_finds_the_same_results_in_a_fresh_process(spec_dir):
    spec = spec_dir / "pennies3.spec"
    probe = _probe("solve", str(spec), "--format", "json")
    assert probe["code"] == 0
    assert probe["scipy"] is False
    code, out, _ = _run("solve", str(spec), "--format", "json")
    assert code == 0
    assert probe["out"] == out
    (equilibrium,) = json.loads(out)["equilibria"]
    assert equilibrium["support"] == [[0, 1]] * 3
    assert np.allclose(equilibrium["profile"], 0.5, atol=1e-9)


_IN_PROCESS = {
    "solve": lambda spec: cg.build_solve_report(cg.build_game(spec)),
    "family": lambda spec: cg.equilibria_across_k(cg.build_family(spec)),
    "validate": lambda spec: cg.build_validate_report(cg.build_family(spec)),
}


@pytest.mark.parametrize("command", ["solve", "family", "validate"])
def test_json_output_is_one_compact_line(spec_dir, command):
    for name in cg.BUNDLED_SPECS:
        code, out, _ = _run(command, str(spec_dir / f"{name}.spec"), "--format", "json")
        assert code == 0
        assert out.endswith("\n") and out.count("\n") == 1
        # Written as ``json.dumps`` writes the parsed value, default separators.
        payload = json.loads(out)
        assert out == json.dumps(payload) + "\n"
        assert payload == _IN_PROCESS[command](cg.bundled_spec(name)).to_dict()


#: The key sequence of each JSON object the commands write. The output is
#: compared byte for byte across changes, so the order is part of it.
_JSON_KEYS = {
    "solve": ["kind", "game", "mode", "tol", "equilibrium_count", "equilibria", "notes"],
    "game": ["name", "players", "K", "rule", "partition_count", "strategy_counts",
             "profile_count"],
    "equilibrium": ["profile", "support", "strategy_labels", "payoffs",
                    "partition_distribution", "max_regret", "mode", "strict",
                    "degenerate"],
    "family": ["kind", "game", "per_k", "diffs"],
    "per_k": ["K", "error", "notes", "equilibrium_count", "equilibrium_partitions",
              "equilibria"],
    "diff": ["from_K", "to_K", "partitions_gained", "partitions_lost"],
    "validate": ["kind", "ok", "axioms", "nesting"],
    "axioms": ["ok", "maps_into_family", "domains_disjoint", "domains_cover",
               "domain_sizes"],
    "nesting": ["ok", "pairs"],
    "pair": ["k_small", "k_large", "partition_nesting", "strategy_nesting",
             "payoff_consistency", "rule_consistency"],
}


@pytest.mark.parametrize("name", ["pd", "dinner"])
def test_json_key_order_is_pinned(tmp_path, name):
    spec = replace(cg.bundled_spec(name), k_min=1, k_max=2)
    path = tmp_path / f"{name}.spec"
    path.write_text(cg.serialize_spec(spec), encoding="utf-8")
    payloads = {}
    for command in ("solve", "family", "validate"):
        code, out, _ = _run(command, str(path), "--format", "json")
        assert code == 0
        payloads[command] = json.loads(out)
        assert list(payloads[command]) == _JSON_KEYS[command]
    solve, family, validate = payloads["solve"], payloads["family"], payloads["validate"]
    assert list(solve["game"]) == _JSON_KEYS["game"]
    assert list(solve["equilibria"][0]) == _JSON_KEYS["equilibrium"]
    assert [entry["K"] for entry in family["per_k"]] == [1, 2]
    for entry in family["per_k"]:
        assert list(entry) == _JSON_KEYS["per_k"]
        assert list(entry["equilibria"][0]) == _JSON_KEYS["equilibrium"]
    (diff,) = family["diffs"]
    assert list(diff) == _JSON_KEYS["diff"]
    assert list(validate["axioms"]) == ["1", "2"]
    for entry in validate["axioms"].values():
        assert list(entry) == _JSON_KEYS["axioms"]
    assert list(validate["nesting"]) == _JSON_KEYS["nesting"]
    (pair,) = validate["nesting"]["pairs"]
    assert list(pair) == _JSON_KEYS["pair"]
    assert all(list(check) == ["ok", "detail"] for check in list(pair.values())[2:])


#: SHA-256 of stdout for commands in which every equilibrium is pure, so no
#: BLAS call can move a bit: a change to the solver, the reports or the JSON
#: writer must keep these bytes.
_PURE_OUTPUT_DIGESTS = [
    (("family", "dinner", "--k-min", "1", "--k-max", "4", "--format", "json"),
     "704595ee76c17ef61c4a672423c44ebf5f8e73e916d776b196eb41aa9d88b5b6"),
    (("family", "dinner", "--k-min", "1", "--k-max", "4", "--format", "json",
      "--mode", "strict"),
     "1fbef0c3fa4fd10bc902aacd8f733d394fbfe2b2223587c2c2f97593b1a0adce"),
    (("family", "dinner", "--k-min", "1", "--k-max", "4", "--format", "text"),
     "2a53eba0e5df8d307a9f7ab9fd30d2e45cc20ad8820521e654148506f4dfab73"),
    # At this budget K = 2 skips the mixed search and K = 3 and 4 fail, so
    # no diff follows K = 2.
    (("family", "dinner", "--k-min", "1", "--k-max", "4", "--budget", "20000",
      "--format", "json"),
     "4ffd8d0fe46af99c26bd4e04d40a4b8b61f4d36e1c86a279c6c0f09ff560549d"),
    (("family", "dinner", "--k-min", "1", "--k-max", "4", "--budget", "20000",
      "--format", "text"),
     "664c41f896b410ef3afef2672eb03e00c708838a4eb784899ad8f72a07f664af"),
    (("solve", "dinner", "--format", "json"),
     "2c9bc327ccb35657e9437c322f67b9a834a46738d6628349f5aec7f056ad242d"),
    (("validate", "dinner", "--format", "json"),
     "8eba7cd293c5291727aaf5ad7071f9d50024b684a10c1ec1dc7f8350ae2ad352"),
    (("solve", "pd_extrovert", "--format", "json"),
     "0a120e9fac234bd127f9c38cf39547c21eba0bd1feb15ca73bd09c5446edb898"),
    (("solve", "pd_extrovert", "--format", "json", "--mode", "strict"),
     "c1057ab5e1cf7edea04f910329057fb614e9e750a290955181d701d131c5f820"),
    (("family", "pd_extrovert", "--format", "json"),
     "f7cae09004a67be4d8ddb648264bef02c084d985eb556e5327f10900b0fb784f"),
    (("solve", "pd", "--K", "1", "--format", "json"),
     "e280af4dd2a8879538420cc5c88f648d466bd8dca5ab6a4f3266f8c3f1793f7e"),
    (("validate", "pd", "--format", "json"),
     "e71c87ab7978ee7cb8c13c8bed05632083857d6b332d358f15e8ebf2d664dc8d"),
    # The benchmark's dinner_family command.
    (("family", "dinner", "--k-min", "1", "--k-max", "2", "--format", "json"),
     "f1736dd7d37f1e5d1ed67b954be7e16fe8459bbced653ccfc3b355e36407f2d9"),
    # No pure equilibrium and no mixed search: an empty list.
    (("solve", "matching_pennies", "--max-support", "1", "--format", "json"),
     "dc0b431164f74f790ab1cbf14ab791a379d399956e1f734646860f61a82a3b0f"),
    # Text renderings: strategy labels, pretty partitions and profiles.
    (("solve", "dinner", "--format", "text"),
     "62a2dc855ca9eabf7788dec83d4650056f637c7426a84fc43d679a611ea4e15b"),
    (("solve", "pd_extrovert", "--format", "text"),
     "1440e9a4ab7a5e2d2e22cee97d4edb41971f223b76e030fd770149262f60cc2b"),
    (("validate", "dinner", "--format", "text"),
     "e51bb873a9ac8b5ab239df8a471254186913a3c4dd8e468bd3d7bdf57b81fe22"),
    (("solve", "pd", "--K", "1", "--format", "text"),
     "72056839477e0d179e8c4f10e91a1cb99eaf5ca658d398dee0413c8108417be9"),
]


@pytest.mark.parametrize(
    "argv, digest", _PURE_OUTPUT_DIGESTS, ids=[" ".join(a) for a, _ in _PURE_OUTPUT_DIGESTS]
)
def test_pure_outputs_keep_their_bytes(spec_dir, argv, digest):
    command, name, *flags = argv
    code, out, err = _run(command, str(spec_dir / f"{name}.spec"), *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_PARTITION_LISTING_DIGESTS = [
    (("5", "2"), "a45ea49939bce72afb23211a178e1161d08ab8c150b4104f7570cd2dbd084609"),
    (("6", "3"), "4defe7019891e2cbe6c45c247eaa4884caa8cd5555724ac12a5ad73295057bed"),
]


@pytest.mark.parametrize(
    "argv, digest", _PARTITION_LISTING_DIGESTS,
    ids=[" ".join(a) for a, _ in _PARTITION_LISTING_DIGESTS],
)
def test_partition_listing_keeps_its_bytes(argv, digest):
    code, out, err = _run("partitions", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
