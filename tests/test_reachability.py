"""Every module under ``src/repro`` is reachable from a command or a benchmark.

The roots are ``repro.__main__`` (every CLI command) plus what the files
under ``benchmarks/`` import, and each ``repro.*`` module named in their
strings or in their non-Python files -- text, so the import that
``benchmarks/perf/run.py`` runs inside a subprocess string counts. From
the roots the test follows every ``import`` statement in the source,
function-local ones included. Importing ``a.b.c`` also runs
``a/__init__.py`` and ``a/b/__init__.py``, so those count as reached
too, with every import they make except their re-exports: a top-level
``from pkg.mod import name`` in ``pkg/__init__.py`` reaches ``pkg.mod``
only through ``from pkg import name`` or a whole-package ``import pkg``.
A module outside the closure is code that no command and no benchmark
can run; delete it with its tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCHMARKS = ROOT / "benchmarks"

#: A package reached whole follows its re-exports; one reached as the
#: parent of a submodule, or for a name it defines itself, does not.
WHOLE, PARENT = "whole", "parent"


def _all_modules() -> dict:
    """Dotted module name -> source path for every file in the package."""
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _longest_module(dotted: str, modules: dict):
    """The longest prefix of ``dotted`` that names a module, or None."""
    parts = dotted.split(".")
    for end in range(len(parts), 0, -1):
        name = ".".join(parts[:end])
        if name in modules:
            return name
    return None


def _from_base(node: ast.ImportFrom, package):
    """Absolute module of ``from ... import``; None if it leaves the tree."""
    if not node.level:
        return node.module or ""
    if package is None:
        return None
    anchor = package.split(".")
    anchor = anchor[:len(anchor) - (node.level - 1)]
    return ".".join(anchor + ([node.module] if node.module else []))


def _parse(tree: ast.Module, package, is_init: bool):
    """(imports, re-exports) of one source tree.

    ``imports`` holds ``(base, name)`` pairs, name None for a plain
    ``import base``; ``re-exports`` the pairs of the top-level
    ``from ... import`` statements of a package ``__init__``.
    """
    top = set(tree.body) if is_init else set()
    imports, reexports = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _from_base(node, package)
            if base is None:
                continue
            pairs = [(base, alias.name) for alias in node.names]
            (reexports if node in top else imports).extend(pairs)
    return imports, reexports


class _Graph:
    def __init__(self, modules: dict):
        self.modules = modules
        self.parsed = {}

    def parse(self, name: str):
        if name not in self.parsed:
            path = self.modules[name]
            is_init = path.name == "__init__.py"
            package = name if is_init else name.rpartition(".")[0]
            tree = ast.parse(path.read_text(), str(path))
            self.parsed[name] = _parse(tree, package, is_init)
        return self.parsed[name]

    def targets(self, base: str, name) -> set:
        """``(module, level)`` pairs that importing ``name`` from
        ``base`` (or ``base`` itself, for name None) reaches."""
        if name is not None and f"{base}.{name}" in self.modules:
            # ``from pkg import sub`` imports the submodule ``pkg.sub``.
            return {(f"{base}.{name}", WHOLE)}
        module = _longest_module(base, self.modules)
        if module is None:
            return set()
        if name is None or module != base:
            return {(module, WHOLE)}
        _, reexports = self.parse(module)
        for source, original in reexports:
            if original == name:
                return {(module, PARENT)} | self.targets(source, original)
        return {(module, PARENT)}

    def closure(self, roots: set) -> set:
        """Every module the ``(module, level)`` roots run."""
        reached, stack = set(), list(roots)
        while stack:
            name, level = stack.pop()
            if (name, level) in reached:
                continue
            reached.add((name, level))
            if "." in name:
                stack.append((name.rpartition(".")[0], PARENT))
            imports, reexports = self.parse(name)
            if level == WHOLE:
                imports = imports + reexports
            for base, imported in imports:
                stack.extend(self.targets(base, imported))
        return {name for name, _ in reached}


def _named(text: str, graph: _Graph) -> set:
    """Whole modules for each ``repro.*`` dotted name in ``text``."""
    roots = set()
    for dotted in re.findall(r"\brepro(?:\.\w+)+", text):
        roots |= graph.targets(dotted, None)
    return roots


def _benchmark_roots(graph: _Graph) -> set:
    roots = set()
    for path in BENCHMARKS.rglob("*"):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        text = path.read_text(errors="replace")
        if path.suffix != ".py":
            roots |= _named(text, graph)
            continue
        tree = ast.parse(text, str(path))
        imports, _ = _parse(tree, None, False)
        for base, name in imports:
            roots |= graph.targets(base, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value,
                                                             str):
                roots |= _named(node.value, graph)
    return roots


def test_every_module_is_reachable():
    modules = _all_modules()
    graph = _Graph(modules)
    roots = {("repro.__main__", WHOLE)} | _benchmark_roots(graph)
    unreached = sorted(set(modules) - graph.closure(roots))
    assert not unreached, (
        "modules no command or benchmark reaches: " + ", ".join(unreached))
