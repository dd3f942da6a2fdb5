"""Every module under ``src/repro`` is reachable from a command or a benchmark.

The roots are ``repro.__main__`` (every CLI command) plus each
``repro.*`` module named anywhere in the text of a file under
``benchmarks/`` -- text, not imports, so the import that
``benchmarks/perf/run.py`` runs inside a subprocess string counts.
From the roots the test follows every ``import`` statement in the
source, function-local ones included. Importing ``a.b.c`` also runs
``a/__init__.py`` and ``a/b/__init__.py``, so those count as reached
too. A module outside the closure is code that no command and no
benchmark can run; delete it with its tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCHMARKS = ROOT / "benchmarks"


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


def _imports(name: str, path: Path, modules: dict) -> set:
    """Modules that the source of ``name`` imports."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            # ``from pkg import sub`` imports the submodule ``pkg.sub``.
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(filter(None, (_longest_module(target, modules)
                                   for target in targets)))
    return found


def _benchmark_roots(modules: dict) -> set:
    roots = set()
    for path in BENCHMARKS.rglob("*"):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        text = path.read_text(errors="replace")
        for dotted in re.findall(r"\brepro(?:\.\w+)+", text):
            module = _longest_module(dotted, modules)
            if module:
                roots.add(module)
    return roots


def _closure(roots: set, modules: dict) -> set:
    """Every module importing ``roots`` runs, parent packages included."""
    reached, stack = set(), list(roots)
    while stack:
        name = stack.pop()
        if name in reached:
            continue
        reached.add(name)
        if "." in name:
            stack.append(name.rpartition(".")[0])
        stack.extend(_imports(name, modules[name], modules) - reached)
    return reached


def test_every_module_is_reachable():
    modules = _all_modules()
    roots = {"repro.__main__"} | _benchmark_roots(modules)
    unreached = sorted(set(modules) - _closure(roots, modules))
    assert not unreached, (
        "modules no command or benchmark reaches: " + ", ".join(unreached))
