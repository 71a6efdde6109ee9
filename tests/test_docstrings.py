"""Docstring gate for the public API packages.

An AST-level equivalent of pydocstyle's missing-docstring rules
(D100–D104), scoped — like the ruff configuration in pyproject.toml —
to the packages whose public API the docs promise is documented:
``repro.replay``, ``repro.chaos``, ``repro.proxy``, ``repro.hierarchy``
and ``repro.sim.core``.  It runs from the source alone, so the gate
holds even where ruff is not installed.
"""

import ast
import os
from typing import Iterator, List, Tuple

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

#: Audited files: every module under these packages plus the kernel.
AUDITED = (
    os.path.join("repro", "replay"),
    os.path.join("repro", "chaos"),
    os.path.join("repro", "proxy"),
    os.path.join("repro", "hierarchy"),
    os.path.join("repro", "sim", "core.py"),
)


def audited_files() -> List[str]:
    out: List[str] = []
    for entry in AUDITED:
        path = os.path.join(SRC, entry)
        if os.path.isfile(path):
            out.append(path)
            continue
        for root, _dirs, files in os.walk(path):
            out.extend(
                os.path.join(root, name)
                for name in sorted(files)
                if name.endswith(".py")
            )
    assert out, "audited packages not found"
    return out


def _public(name: str) -> bool:
    return not name.startswith("_")


def missing_docstrings(path: str) -> Iterator[Tuple[str, str]]:
    """Yield ``(code, location)`` per missing public docstring in a file."""
    with open(path, "r") as handle:
        tree = ast.parse(handle.read(), filename=path)
    relative = os.path.relpath(path, SRC)
    if ast.get_docstring(tree) is None:
        code = "D104" if path.endswith("__init__.py") else "D100"
        yield code, f"{relative}:1 module"
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _public(node.name):
            if ast.get_docstring(node) is None:
                yield "D101", f"{relative}:{node.lineno} class {node.name}"
            for item in node.body:
                if (
                    isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                    and _public(item.name)
                    and ast.get_docstring(item) is None
                ):
                    yield (
                        "D102",
                        f"{relative}:{item.lineno} method "
                        f"{node.name}.{item.name}",
                    )
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and _public(node.name):
            if ast.get_docstring(node) is None:
                yield (
                    "D103",
                    f"{relative}:{node.lineno} function {node.name}",
                )


@pytest.mark.parametrize(
    "path", audited_files(), ids=lambda p: os.path.relpath(p, SRC)
)
def test_public_api_has_docstrings(path):
    missing = list(missing_docstrings(path))
    assert not missing, "missing docstrings:\n" + "\n".join(
        f"  {code} {where}" for code, where in missing
    )
