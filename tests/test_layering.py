"""Imports inside the package run one way, and the package runs without numpy.

Every ``blockcase`` module is read with ``ast``. The imports between package
modules, function-level ones included, must form an acyclic graph, and no
package module may be imported from inside a function. The root
``blockcase/__init__`` is left out of the graph: it aggregates the package,
and submodules may read ``__version__`` from it.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import blockcase
from blockcase.cli import main

PACKAGE_DIR = Path(blockcase.__file__).parent
ROOT = "blockcase"


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE_DIR.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _modules() -> dict[str, tuple[Path, ast.Module]]:
    return {
        _module_name(path): (path, ast.parse(path.read_text(encoding="utf-8"), str(path)))
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
    }


def _imported(node: ast.Import | ast.ImportFrom, name: str, path: Path, known) -> list[str]:
    """The package modules that one import statement in module ``name`` names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names if alias.name.split(".")[0] == ROOT]
    if node.level:
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        base = package.rsplit(".", node.level - 1)[0] if node.level > 1 else package
        base = f"{base}.{node.module}" if node.module else base
    else:
        base = node.module or ""
    if base.split(".")[0] != ROOT:
        return []
    return [f"{base}.{alias.name}" if f"{base}.{alias.name}" in known else base for alias in node.names]


def _import_graph():
    modules = _modules()
    graph: dict[str, set[str]] = {name: set() for name in modules if name != ROOT}
    in_functions: list[str] = []
    for name, (path, tree) in modules.items():
        if name == ROOT:
            continue
        functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        nested = {id(n) for f in functions for n in ast.walk(f) if n is not f}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            targets = _imported(node, name, path, modules)
            graph[name].update(t for t in targets if t != ROOT)
            if targets and id(node) in nested:
                in_functions.append(f"{name} line {node.lineno}: {', '.join(targets)}")
    return graph, in_functions


def _find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    done: set[str] = set()
    path: list[str] = []

    def visit(node: str) -> list[str] | None:
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        path.append(node)
        for target in sorted(graph.get(node, ())):
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(node)
        return None

    for start in sorted(graph):
        cycle = visit(start)
        if cycle:
            return cycle
    return None


def test_relative_imports_resolve_to_package_modules():
    graph, _ = _import_graph()
    assert "blockcase.eov_sim.scenario" in graph["blockcase.eov_sim.engine"]  # from .scenario import ...
    assert "blockcase.determinism" in graph["blockcase.eov_sim.state"]  # from ..determinism import ...
    assert "blockcase.eov_sim" in graph["blockcase.policy_analysis"]  # from . import eov_sim


def test_package_imports_are_acyclic():
    graph, _ = _import_graph()
    cycle = _find_cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_no_package_module_is_imported_inside_a_function():
    _, in_functions = _import_graph()
    assert in_functions == []


def test_the_cycle_finder_names_a_cycle():
    graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}
    assert _find_cycle(graph) == ["a", "b", "c", "a"]
    assert _find_cycle({"a": {"b"}, "b": set()}) is None


def _python(tmp_path, code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's ``blockcase``."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, cwd=tmp_path, env=env, timeout=60)


def test_the_package_runs_with_numpy_blocked(tmp_path, capsys):
    policy = tmp_path / "policy.txt"
    policy.write_text("or(outof(2,E1,E2,E3),and(E4,outof(2,E5,E5,E6)))\n")
    assert main(["policy", "tolerance", str(policy)]) == 0
    in_process = capsys.readouterr().out.encode("utf-8")
    blocked = _python(tmp_path, (
        "import sys\n"
        "sys.modules['numpy'] = None  # any import of numpy now raises ImportError\n"
        "import blockcase, blockcase.cli\n"
        "sys.exit(blockcase.cli.main(['policy', 'tolerance', sys.argv[1]]))\n"
    ), str(policy))
    assert (blocked.returncode, blocked.stderr, blocked.stdout) == (0, b"", in_process)


def test_importing_the_package_does_not_load_numpy(tmp_path):
    plain = _python(tmp_path, "import sys, blockcase, blockcase.cli; print('numpy' in sys.modules)")
    assert (plain.returncode, plain.stdout) == (0, b"False\n")
