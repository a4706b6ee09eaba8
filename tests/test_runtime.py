"""Importing the package sizes the OpenBLAS thread pool at one thread,
unless the caller sized it or loaded numpy first, and leaves the
environment as it found it. Each case runs in a fresh interpreter, since a
process loads OpenBLAS once."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coalgame

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task to count threads"
)

SIZING = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _threads_after(imports: str, **extra: str) -> tuple[int, bool]:
    """The thread count of a fresh interpreter after ``imports``, and whether
    its environment is the same afterwards, with none of ``SIZING`` set
    beyond ``extra``."""
    env = {k: v for k, v in os.environ.items() if k not in SIZING}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(coalgame.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    env.update(extra)
    script = (
        "import json, os\n"
        "before = dict(os.environ)\n"
        f"{imports}\n"
        "print(json.dumps([len(os.listdir('/proc/self/task')), dict(os.environ) == before]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    threads, unchanged = json.loads(out.stdout)
    return threads, unchanged


def test_import_leaves_one_thread_and_the_environment_as_it_was():
    threads, unchanged = _threads_after("import coalgame")
    assert threads == 1
    assert unchanged


def test_a_bare_numpy_import_starts_more_threads():
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS starts no worker thread on one CPU")
    assert _threads_after("import numpy")[0] > 1


@pytest.mark.parametrize(
    "imports, extra",
    [
        ("import coalgame", {"OPENBLAS_NUM_THREADS": "2"}),
        ("import numpy\nimport coalgame", {}),
    ],
    ids=["caller-sized-pool", "numpy-imported-first"],
)
def test_a_sized_pool_or_a_loaded_numpy_is_left_alone(imports, extra):
    threads, unchanged = _threads_after(imports, **extra)
    assert threads == _threads_after("import numpy", **extra)[0]
    assert unchanged
