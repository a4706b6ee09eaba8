"""Self-tests of the benchmark's generators and correctness gate.

    python3 bench/selftest.py

Run from the root of a checkout (the program is imported from ``src``).
"""

from __future__ import annotations

import copy
import io
import json
import os
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from gate import GateError, check_output  # noqa: E402
from workloads import DINNER_SPEC, TOL, WORKLOADS  # noqa: E402

from coalgame.builtin_games import bundled_spec_text  # noqa: E402
from coalgame.cli import run_cli  # noqa: E402
from coalgame.gamespec import parse_spec, serialize_spec  # noqa: E402

GENERATED = [w for w in WORKLOADS.values() if w.generate is not None]


def cli_json(args: list[str]) -> bytes:
    out = io.StringIO()
    code = run_cli(args, out=out, err=io.StringIO())
    if code != 0:
        raise RuntimeError(f"coalgame {args} exited {code}")
    return out.getvalue().encode()


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for w in GENERATED:
            for seed in (0, 1, 12345):
                self.assertEqual(w.generate(seed), w.generate(seed), w.name)

    def test_seed_changes_the_spec(self):
        for w in GENERATED:
            self.assertGreater(len({w.generate(seed) for seed in range(6)}), 1, w.name)

    def test_specs_are_canonical(self):
        for w in GENERATED:
            for seed in (0, 1, 12345):
                text = w.generate(seed)
                self.assertEqual(serialize_spec(parse_spec(text)), text, w.name)

    def test_payoffs_are_continuous_in_random_games(self):
        for name in ("random_2p", "random_3p"):
            spec = parse_spec(WORKLOADS[name].generate(3))
            values = [v for row in spec.payoff_rows for v in row.payoff]
            self.assertEqual(len(set(values)), len(values), name)
            self.assertTrue(all(0.0 <= v < 1.0 for v in values), name)


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.work = HERE.parent / ".bench_work" / f"selftest-{os.getpid()}"
        cls.work.mkdir(parents=True, exist_ok=True)
        cls.pennies_spec = cls.work / "selftest_pennies.spec"
        cls.pennies_spec.write_text(bundled_spec_text("matching_pennies"), encoding="utf-8")
        cls.pennies = cli_json(["solve", str(cls.pennies_spec), "--format", "json"])
        dinner = WORKLOADS["dinner_family"]
        cls.dinner = cli_json(dinner.argv(DINNER_SPEC))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def solve_gate(self, output: bytes, returncode: int = 0, expected=None) -> int:
        return check_output(
            returncode,
            output,
            self.pennies_spec.read_text(encoding="utf-8"),
            "solve",
            TOL,
            expected,
        )

    def dinner_gate(self, report: dict) -> int:
        w = WORKLOADS["dinner_family"]
        return check_output(
            0,
            json.dumps(report).encode(),
            DINNER_SPEC.read_text(encoding="utf-8"),
            w.command,
            TOL,
            w.expected,
            w.k_range,
        )

    def tampered(self, edit) -> bytes:
        report = json.loads(self.pennies)
        edit(report)
        return json.dumps(report).encode()

    def test_untouched_reports_pass(self):
        self.assertEqual(self.solve_gate(self.pennies, expected={1: 1}), 1)
        self.assertEqual(self.dinner_gate(json.loads(self.dinner)), 2737)

    def test_profile_that_is_no_equilibrium_is_rejected(self):
        def edit(report):
            report["equilibria"][0]["profile"][0] = [1.0, 0.0]

        with self.assertRaisesRegex(GateError, "fails is_equilibrium"):
            self.solve_gate(self.tampered(edit))

    def test_duplicate_profile_is_rejected(self):
        def edit(report):
            report["equilibria"].append(copy.deepcopy(report["equilibria"][0]))
            report["equilibrium_count"] += 1

        with self.assertRaisesRegex(GateError, "duplicate"):
            self.solve_gate(self.tampered(edit))

    def test_count_that_disagrees_with_the_list_is_rejected(self):
        def edit(report):
            report["equilibrium_count"] += 1

        with self.assertRaisesRegex(GateError, "equilibrium_count"):
            self.solve_gate(self.tampered(edit))

    def test_dropped_dinner_equilibrium_is_rejected(self):
        report = json.loads(self.dinner)
        entry = report["per_k"][1]
        entry["equilibria"].pop()
        entry["equilibrium_count"] -= 1
        with self.assertRaisesRegex(GateError, "expected"):
            self.dinner_gate(report)

    def test_failed_process_is_rejected(self):
        with self.assertRaisesRegex(GateError, "exit code"):
            self.solve_gate(self.pennies, returncode=1)
        with self.assertRaisesRegex(GateError, "empty"):
            self.solve_gate(b"\n")
        with self.assertRaisesRegex(GateError, "not JSON"):
            self.solve_gate(self.pennies[:-20])
        with self.assertRaisesRegex(GateError, "malformed"):
            self.solve_gate(self.tampered(lambda r: r.pop("equilibria")))


if __name__ == "__main__":
    unittest.main()
