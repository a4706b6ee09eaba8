"""Each module owns one decision, and its imports say which: the modules
form a stack in which each imports only from those above it, the family
model and its nesting check know nothing of solving, and the solvers know
nothing of families, specs, reports or the command line."""

import ast
from pathlib import Path

import pytest

import coalgame

PACKAGE = Path(coalgame.__file__).resolve().parent


def _package_imports(module: str) -> set[str]:
    """The sibling modules that ``coalgame.<module>`` imports from."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module or ""
                names.update([base] if base else [a.name for a in node.names])
            elif (node.module or "").startswith("coalgame"):
                names.add(node.module.partition(".")[2] or "coalgame")
        elif isinstance(node, ast.Import):
            names.update(
                a.name.partition(".")[2] for a in node.names
                if a.name.startswith("coalgame.")
            )
    return {name.partition(".")[0] for name in names}


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("families", {"solver", "reports", "cli"}),
        ("solver", {"families", "gamespec", "reports", "cli"}),
    ],
)
def test_module_imports_respect_the_layering(module, forbidden):
    imported = _package_imports(module)
    assert "games" in imported
    assert not imported & forbidden


#: The stack of README "Layout", top first.
STACK = ["partitions", "games", "gamespec", "families", "solver", "reports", "cli"]


@pytest.mark.parametrize("module", STACK)
def test_each_module_imports_only_the_modules_above_it(module):
    allowed = {"errors", *STACK[: STACK.index(module)]}
    # The bundled specs stand to the side, below every module they import.
    if _package_imports("builtin_games") <= allowed:
        allowed.add("builtin_games")
    assert _package_imports(module) <= allowed


def test_errors_and_builtin_games_stand_to_the_side():
    assert _package_imports("errors") == set()
    assert _package_imports("builtin_games") <= {"errors", "games", "gamespec", "families"}
