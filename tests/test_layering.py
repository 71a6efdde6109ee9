"""The ``repro`` package graph is layered: no cycles, no hidden edges.

Every file under ``src/repro`` is parsed with :mod:`ast` and each of its
``repro`` imports, relative or absolute, becomes an edge between *parts*:
the subpackage or top-level module it sits in (``replay``, ``chaos``,
``api``, ``cli``...) and the one it names; the root ``__init__.py`` is
the part ``repro``.  Two rules hold:

* the graph between parts has no cycle, counting imports at every
  nesting level, so a lower layer never reaches up;
* no ``repro`` import sits inside a function or class body, so every
  edge is visible at the top of its module and none is kept out of the
  import-time order to hide a cycle.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"


def _module_name(path: Path) -> tuple:
    parts = path.relative_to(SRC).with_suffix("").parts
    return parts[:-1] if parts[-1] == "__init__" else parts


def _is_module(dotted: tuple) -> bool:
    path = SRC.joinpath(*dotted)
    return path.with_suffix(".py").exists() or (path / "__init__.py").exists()


def _part(dotted: tuple) -> str:
    return dotted[1] if len(dotted) > 1 else dotted[0]


def _imports(path: Path, source=None):
    """Yield ``(target module, line, nested)`` for each ``repro`` import.

    ``source`` stands in for the file's text when given.
    """
    module = _module_name(path)
    package = module if path.name == "__init__.py" else module[:-1]

    def visit(node, nested):
        for child in ast.iter_child_nodes(node):
            inner = nested or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
            if isinstance(child, ast.Import):
                for alias in child.names:
                    dotted = tuple(alias.name.split("."))
                    if dotted[0] == "repro":
                        yield dotted, child.lineno, inner
            elif isinstance(child, ast.ImportFrom):
                if child.level:
                    base = package[: len(package) - child.level + 1]
                else:
                    base = ()
                if child.module:
                    base += tuple(child.module.split("."))
                if not base or base[0] != "repro":
                    continue
                for alias in child.names:
                    # ``from . import api`` names a module, not a value.
                    submodule = base + (alias.name,)
                    target = submodule if _is_module(submodule) else base
                    yield target, child.lineno, inner
            yield from visit(child, inner)

    yield from visit(ast.parse(source or path.read_text()), False)


def _sources():
    return sorted(PACKAGE.rglob("*.py"))


def _part_graph() -> dict:
    graph = {}
    for path in _sources():
        source = _part(_module_name(path))
        for target, _, _ in _imports(path):
            if _part(target) != source:
                graph.setdefault(source, set()).add(_part(target))
    return graph


def _reachable(graph: dict, start: str) -> set:
    seen, todo = set(), [start]
    while todo:
        for succ in graph.get(todo.pop(), ()):
            if succ not in seen:
                seen.add(succ)
                todo.append(succ)
    return seen


def _cycles(graph: dict) -> list:
    """Each set of parts that import one another, as a sorted list."""
    reach = {node: _reachable(graph, node) for node in graph}
    cycles = {
        tuple(sorted(m for m in graph if m in reach[n] and n in reach[m]))
        for n in graph
        if n in reach[n]
    }
    return sorted(list(cycle) for cycle in cycles)


def test_part_graph_has_no_cycle():
    cycles = _cycles(_part_graph())
    assert not cycles, "import cycles between parts: " + "; ".join(
        " <-> ".join(cycle) for cycle in cycles
    )


def test_no_repro_import_inside_a_function_or_class():
    nested = sorted(
        {
            (str(path.relative_to(SRC)), line)
            for path in _sources()
            for _, line, inner in _imports(path)
            if inner
        }
    )
    assert not nested, f"{len(nested)} imports inside a body: " + ", ".join(
        f"{path}:{line}" for path, line in nested
    )


def test_the_graph_sees_each_relative_import_form():
    # The rules above are only as good as the edges they are given.
    graph = _part_graph()
    assert "sim" in graph["replay"]  # from ..sim import ...
    assert "cli" in graph["__main__"]  # from .cli import main
    # No file in src/ names a module with ``from . import``, so a
    # stand-in for cli.py checks that form.
    relative = _imports(PACKAGE / "cli.py", "from . import api, __version__\n")
    assert [target for target, _, _ in relative] == [
        ("repro", "api"),
        ("repro",),
    ]
    assert _cycles({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}) == [
        ["a", "b", "c"]
    ]
