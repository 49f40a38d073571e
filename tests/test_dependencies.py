"""src/ccsp imports only itself, the standard library and the dependencies
pyproject.toml declares, so test-only packages stay out of the program;
the benchmark runs beside it, never inside it."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def declared_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].replace("-", "_")
            .lower() for dep in project["dependencies"]}


def imported_roots(source: str) -> list[str]:
    """The top-level packages of the absolute imports in `source`."""
    roots = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append(node.module.split(".")[0])
    return roots


def foreign_imports(source: str, allowed: set[str]) -> list[str]:
    """The absolute imports in `source` whose top-level package is neither
    in the standard library nor in `allowed`."""
    return [r for r in imported_roots(source)
            if r not in sys.stdlib_module_names and r not in allowed]


def test_declared_python_floor_has_tomllib():
    # this module reads pyproject.toml with tomllib, new in Python 3.11
    floor = tomllib.loads((ROOT / "pyproject.toml").read_text())[
        "project"]["requires-python"]
    minor = re.fullmatch(r">=\s*3\.(\d+)", floor)
    assert minor and int(minor[1]) >= 11, floor


def test_numpy_is_the_only_declared_dependency():
    assert declared_dependencies() == {"numpy"}


def test_guard_flags_an_undeclared_package():
    source = "import json\nimport scipy.optimize\nfrom . import model\n" \
             "def f():\n    from networkx import Graph\n"
    assert foreign_imports(source, {"numpy"}) == ["scipy", "networkx"]


def test_src_imports_only_declared_dependencies():
    allowed = declared_dependencies()
    files = sorted((ROOT / "src" / "ccsp").glob("*.py"))
    assert files
    for path in files:
        assert foreign_imports(path.read_text(), allowed) == [], path.name


def test_src_starts_the_benchmark_only_as_a_child_process():
    """`ccsp bench` runs perfbench/run.py as a child process, so no module
    under src/ccsp imports perfbench or a module of it, or loads a file
    in-process by its path (runpy, importlib)."""
    banned = {"perfbench", "runpy", "importlib"} | {
        path.stem for path in (ROOT / "perfbench").glob("*.py")}
    assert {"run", "tracing", "workloads"} <= banned
    assert imported_roots("import runpy\nfrom perfbench.run import main\n"
                          "from . import model\n") == ["runpy", "perfbench"]
    for path in sorted((ROOT / "src" / "ccsp").glob("*.py")):
        assert banned.isdisjoint(imported_roots(path.read_text())), path.name
