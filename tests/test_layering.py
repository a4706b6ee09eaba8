"""Each module owns one decision, and its imports say which: the family
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
