"""Benchmark of the ``coalgame`` CLI: one client in a closed loop, one CLI
process at a time, each in a fresh interpreter.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src`` with ``PYTHONPATH``. With ``--trace 0`` the last line of stdout is
the end-to-end result; with ``--trace 1`` traced and untraced processes
alternate and the last line carries the per-layer metrics. The line before
it records the environment and the sample counts. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import ROOT, SRC, TOL, WORKLOADS  # noqa: E402

#: Scratch files of this run; removed when it ends.
WORK = ROOT / ".bench_work" / f"run-{os.getpid()}"
#: Set-up-only processes per run; setup_s is their median.
SETUP_RUNS = 5
#: The loop always measures this many CLI processes (per kind when tracing),
#: even past the end of --seconds.
MIN_SAMPLES = 3
#: No child process is started after this many seconds into the run, and
#: running ones are killed then, so the run ends well within 180 s.
RUN_LIMIT_S = 150.0

CLI_CODE = "from coalgame.cli import main; main()"
# Import, parse and build exactly as the CLI does, up to the first tensor.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
from pathlib import Path
from coalgame.cli import build_family, build_game, parse_spec
spec = parse_spec(Path(sys.argv[1]).read_text(encoding="utf-8"))
if len(sys.argv) > 2:
    build_family(spec, (int(sys.argv[2]), int(sys.argv[3])))
else:
    build_game(spec)
print(repr(time.perf_counter() - t0))
"""
TRACE_CHILD = Path(__file__).resolve().parent / "trace_child.py"


class Child(NamedTuple):
    """Outcome of one child process."""

    returncode: int
    wall: float
    cpu: float
    rss_mb: float
    out: Path


def run_child(argv: list[str], out: Path, timeout: float) -> Child:
    """Run one process to its end with stdout in ``out``; kill it after
    ``timeout`` seconds. Resource use comes from wait4 for this child only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    with open(out, "wb") as stdout, open(WORK / "stderr.txt", "ab") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        out,
    )


class Run:
    """One benchmark run: the children it started and their verdicts."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.started = time.perf_counter()
        self.spec = workload.spec_path(seed, WORK)
        self.spec_text = self.spec.read_text(encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._verdicts: dict[tuple[int, str], tuple[int | None, str | None]] = {}

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def child(self, argv: list[str], out: Path) -> Child:
        if self.remaining() <= 0:
            raise TimeoutError(f"run passed {RUN_LIMIT_S} s")
        self.attempted += 1
        return run_child(argv, out, self.remaining())

    def fail(self, message: str) -> None:
        self.failed += 1
        if message not in self.errors:
            self.errors.append(message)

    def setup_time(self) -> float | None:
        argv = [sys.executable, "-c", SETUP_CODE, str(self.spec)]
        if self.workload.k_range is not None:
            argv += [str(k) for k in self.workload.k_range]
        child = self.child(argv, WORK / "setup.txt")
        try:
            if child.returncode != 0:
                raise ValueError(f"exit code {child.returncode}")
            return float(child.out.read_text())
        except ValueError as exc:
            self.fail(f"setup: {exc}")
            return None

    def cli(self, traced: bool) -> tuple[Child, int | None]:
        """One CLI process; returns it with its equilibrium count, which is
        None when the output fails the correctness gate."""
        cli_args = self.workload.argv(self.spec)
        if traced:
            argv = [sys.executable, str(TRACE_CHILD), str(WORK / "trace.json"), *cli_args]
            (WORK / "trace.json").unlink(missing_ok=True)
        else:
            argv = [sys.executable, "-c", CLI_CODE, *cli_args]
        child = self.child(argv, WORK / "out.json")
        found = self.check(child)
        if found is None:
            self.failed += 1
        return child, found

    def check(self, child: Child) -> int | None:
        # Outputs repeat byte for byte, so each distinct (exit code, output)
        # pair is checked once and its verdict reused.
        from gate import GateError, check_output

        data = child.out.read_bytes()
        key = (child.returncode, hashlib.sha256(data).hexdigest())
        if key not in self._verdicts:
            try:
                found = check_output(
                    child.returncode,
                    data,
                    self.spec_text,
                    self.workload.command,
                    TOL,
                    self.workload.expected,
                    self.workload.k_range,
                )
                self._verdicts[key] = (found, None)
            except GateError as exc:
                self._verdicts[key] = (None, str(exc))
        found, error = self._verdicts[key]
        if error is not None and error not in self.errors:
            self.errors.append(error)
        return found


def _loop_done(run: Run, count: int, durations: list[float], deadline: float) -> bool:
    if run.remaining() <= 0:
        return True
    return count >= MIN_SAMPLES and time.perf_counter() + statistics.median(durations) > deadline


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    setups = [t for t in (run.setup_time() for _ in range(SETUP_RUNS)) if t is not None]
    deadline = time.perf_counter() + seconds
    walls, cpus, rss, found = [], [], [], []
    while True:
        child, count = run.cli(traced=False)
        walls.append(child.wall)
        cpus.append(child.cpu)
        rss.append(child.rss_mb)
        if count is not None:
            found.append(count)
        if _loop_done(run, len(walls), walls, deadline):
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(rss),
        "equilibria_found": statistics.median(found) if found else 0,
    }
    samples = {"cli": len(walls), "setup": len(setups), "wall_s": walls, "setup_s": setups}
    return metrics, samples


def _self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float], float]:
    """Per span name: self time and inclusive time; plus the time covered by
    root spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    own: dict[str, float] = {}
    total: dict[str, float] = {}
    covered = 0.0
    for (name, start, end, parent), inner in zip(spans, child_time):
        own[name] = own.get(name, 0.0) + (end - start) - inner
        total[name] = total.get(name, 0.0) + (end - start)
        if parent < 0:
            covered += end - start
    return own, total, covered


def layer_metrics(trace: dict, wall: float, found: int, output_bytes: int) -> dict:
    own, total, covered = _self_times(trace["spans"])
    counts = trace["counts"]

    def c(key: str) -> float:
        return counts.get(key, 0)

    def s(key: str) -> float:
        return own.get(key, 0.0)

    combos = c("solver.support_combos")
    calls = c("solver.validate_calls")
    return {
        "cli.import_s": s("cli.import"),
        "gamespec.parse_s": s("gamespec.parse"),
        "gamespec.build_s": s("gamespec.build"),
        "partitions.enumerate_s": s("partitions.enumerate"),
        "partitions.count": c("partitions.count"),
        "games.realized_index_s": s("games.realized_index"),
        "games.payoff_tensor_s": s("games.payoff_tensor"),
        "games.profiles": c("games.profiles"),
        "games.tensor_mb": c("games.tensor_bytes") / 1e6,
        "solver.pure_s": s("solver.pure"),
        "solver.pure_results": c("solver.pure_results"),
        "solver.support_s": s("solver.support"),
        "solver.support_combos": combos,
        "solver.support_results": c("solver.support_results"),
        "solver.support_yield": c("solver.support_results") / combos if combos else 0.0,
        "solver.us_per_combo": total.get("solver.support", 0.0) * 1e6 / combos if combos else 0.0,
        "solver.validate_calls": calls,
        "solver.validate_s": s("solver.validate"),
        "solver.validate_accept_ratio": c("solver.validate_accepted") / calls if calls else 0.0,
        "solver.dedup_merged": c("solver.validate_accepted") - c("solver.support_results"),
        "solver.root_calls": c("solver.root_calls"),
        "solver.root_s": s("solver.root"),
        "solver.root_failures": c("solver.root_failures"),
        "families.solve_self_s": s("families.solve"),
        "families.merged": c("solver.pure_results") + c("solver.support_results") - found,
        "reports.strict_checks": c("reports.strict_checks"),
        "reports.strict_s": s("reports.strict"),
        "reports.to_dict_s": s("reports.to_dict"),
        "cli.json_s": s("cli.json"),
        "cli.output_mb": output_bytes / 1e6,
        "trace.wall_s": wall,
        "trace.untraced_s": wall - covered,
    }


def traced(run: Run, seconds: float) -> tuple[dict, dict]:
    deadline = time.perf_counter() + seconds
    per_layer: list[dict] = []
    traced_walls, plain_walls = [], []
    while True:
        child, found = run.cli(traced=True)
        traced_walls.append(child.wall)
        if found is not None:
            trace = json.loads((WORK / "trace.json").read_text(encoding="utf-8"))
            per_layer.append(
                layer_metrics(trace, child.wall, found, child.out.stat().st_size)
            )
        child, _ = run.cli(traced=False)
        plain_walls.append(child.wall)
        pair = [t + p for t, p in zip(traced_walls, plain_walls)]
        if _loop_done(run, len(pair), pair, deadline):
            break
    names = list(per_layer[0]) if per_layer else []
    metrics = {
        name: statistics.median(m[name] for m in per_layer) for name in names
    }
    if per_layer:
        metrics["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(plain_walls)
        )
    return metrics, {"traced": len(traced_walls), "untraced": len(plain_walls)}


def declared_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS", "default"),
        "seed": seed,
        "commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coalgame" / "cli.py").is_file():
        print(f"error: no coalgame sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(WORKLOADS[args.workload], args.seed)
        if args.trace:
            metrics, samples = traced(run, args.seconds)
        else:
            metrics, samples = end_to_end(run, args.seconds)
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        stderr = WORK / "stderr.txt"
        if stderr.exists():
            sys.stderr.write(stderr.read_text(errors="replace"))
        shutil.rmtree(WORK, ignore_errors=True)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        run.fail(f"metrics {sorted(set(metrics) ^ set(units))} not as declared")
    correct = run.failed == 0 and run.attempted > 0
    print(
        json.dumps(
            {
                "workload": args.workload,
                "env": environment(args.seed),
                "samples": samples,
                "errors": run.errors,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                    if name in metrics
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
