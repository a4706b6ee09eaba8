"""Run the command corpus on this checkout and on another revision, and
report every difference in stdout, stderr or exit code.

    python tools/compare_outputs.py --against HEAD~1

The other revision is extracted with ``git archive`` into a temporary
directory. Each tree runs the whole corpus, ``tools/corpus.txt``, in one
child process, in-process through ``coalgame.cli.run_cli``, on the same spec
files: the bundled specs and the benchmark's generated ones are written once,
from this checkout. One line is printed per command; when a JSON output
differs, the line also gives the largest absolute difference between the
numbers at the same place, or says that the structures differ. Exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_corpus(path: Path) -> list[str]:
    """The command lines of a corpus file, without comments and blanks."""
    lines = (line.split("#", 1)[0].strip() for line in path.read_text().splitlines())
    return [line for line in lines if line]


def write_specs(corpus: list[str], spec_dir: Path) -> dict[str, str]:
    """Write every spec the corpus names as ``@name`` (a bundled spec) or
    ``@workload:seed`` (a generated benchmark spec) into ``spec_dir``;
    return the path of each by its token."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from workloads import WORKLOADS

    paths = {}
    for token in {t for line in corpus for t in line.split() if t.startswith("@")}:
        name, _, seed = token[1:].partition(":")
        path = spec_dir / f"{name}_{seed}.spec" if seed else spec_dir / f"{name}.spec"
        if seed:
            path.write_text(WORKLOADS[name].generate(int(seed)), encoding="utf-8")
        else:
            path.write_bytes((ROOT / "src" / "coalgame" / "specs" / f"{name}.spec").read_bytes())
        paths[token] = str(path)
    return paths


def run_commands(src: str, commands: str, out_dir: str) -> None:
    """Child process: run each argv of the JSON file ``commands`` through
    ``run_cli`` of the package under ``src``; write command i's stdout and
    stderr to ``out_dir/i.out`` and ``i.err`` and the exit codes to
    ``out_dir/codes.json``."""
    sys.path.insert(0, src)
    import coalgame
    from coalgame.cli import run_cli

    if not Path(coalgame.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {coalgame.__file__}, not the package under {src}")
    codes = []
    for i, argv in enumerate(json.loads(Path(commands).read_text())):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                codes.append(run_cli(argv, out=out, err=err))
            except Exception as exc:  # compared like any output, without the traceback
                codes.append(f"raised {type(exc).__name__}")
                print(exc, file=err)
        Path(out_dir, f"{i}.out").write_text(out.getvalue(), encoding="utf-8")
        Path(out_dir, f"{i}.err").write_text(err.getvalue(), encoding="utf-8")
    Path(out_dir, "codes.json").write_text(json.dumps(codes))


def float_gap(a, b) -> float | None:
    """The largest ``|a - b|`` over the numbers at the same place in two
    JSON values; None when their structures or non-numbers differ."""
    if type(a) in (int, float) and type(b) in (int, float):  # not bool
        return abs(a - b)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        gaps = [float_gap(x, y) for x, y in zip(a, b)]
    elif isinstance(a, dict) and isinstance(b, dict) and list(a) == list(b):
        gaps = [float_gap(a[k], b[k]) for k in a]
    else:
        return 0.0 if a == b else None
    return None if None in gaps else max(gaps, default=0.0)


def describe(ours: str, theirs: str) -> str:
    """What differs between two stdouts, for the report line."""
    try:
        gap = float_gap(json.loads(ours), json.loads(theirs))
    except ValueError:
        return "stdout differs"
    if gap is None:
        return "stdout differs (JSON structure differs)"
    return f"stdout differs (JSON, largest absolute number difference {gap:.3g})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    args = parser.parse_args()
    corpus = read_corpus(ROOT / "tools" / "corpus.txt")
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "archive", args.against], cwd=ROOT, capture_output=True, check=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            # The "data" filter exists from Python 3.12 and in 3.10.12 and 3.11.4.
            safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            tar.extractall(tmp / "against", **safe)
        (tmp / "specs").mkdir()
        paths = write_specs(corpus, tmp / "specs")
        commands = tmp / "commands.json"
        commands.write_text(json.dumps([[paths.get(t, t) for t in c.split()] for c in corpus]))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        trees = {"ours": ROOT / "src", "theirs": tmp / "against" / "src"}
        children = {}
        for side, src in trees.items():
            (tmp / side).mkdir()
            children[side] = subprocess.Popen(
                [sys.executable, __file__, "--run", str(src), str(commands), str(tmp / side)],
                cwd=tmp, env=env,
            )
        if any(child.wait() for child in children.values()):
            print("a corpus run failed; see its traceback above", file=sys.stderr)
            return 2
        codes = {side: json.loads((tmp / side / "codes.json").read_text()) for side in trees}
        differ = 0
        for i, command in enumerate(corpus):
            out, err = (
                {side: (tmp / side / f"{i}.{stream}").read_text(encoding="utf-8") for side in trees}
                for stream in ("out", "err")
            )
            found = []
            if codes["ours"][i] != codes["theirs"][i]:
                found.append(f"exit code {codes['theirs'][i]} -> {codes['ours'][i]}")
            if out["ours"] != out["theirs"]:
                found.append(describe(out["ours"], out["theirs"]))
            if err["ours"] != err["theirs"]:
                found.append("stderr differs")
            differ += bool(found)
            print(f"DIFF  {command}: {'; '.join(found)}" if found else f"same  {command}")
    print(f"{len(corpus)} commands, {differ} with a difference, against {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        run_commands(*sys.argv[2:])
    else:
        sys.exit(main())
