"""Every name a module of the package imports is used in that module, and
every function and class the package defines is named somewhere else.

The checks read each module's syntax tree with the standard library's `ast`.
A name bound by an import must occur as a name somewhere else in the module.
`__init__` is skipped, because it imports names to re-export them, and so are
`from __future__` imports, which bind no name.  A `def` or `class` name must
occur as a word in the Python files of the source, tests, demos or benchmark
more often than it is defined.  No function imports anything: every import
sits at the top of its module, where the import graph shows it, and only
`cli` imports `gc`, the process-wide collector switch.  Only the
three partition functions whose `cache_info()` the benchmark's tracer reads
are cached, and no package function calls one of them, so only their direct
callers fill those caches and the engine keeps no form alive in them."""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pentaform"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def local_imports(module: str, source: str) -> list[tuple[str, str, str]]:
    """(module, function, imported module) for each import inside a function."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    found += [(module, func.name, alias.name) for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    found.append((module, func.name, node.module or "."))
    return found


def test_no_function_imports_anything():
    found = [hit for module in MODULES for hit in local_imports(module, (PACKAGE / module).read_text(encoding="utf-8"))]
    assert found == []


def test_only_the_cli_imports_gc():
    """The collector's setting is process-wide and belongs to the host
    application: only `cli.main` pauses it, for one command, and gives it back."""
    importers = [module for module in MODULES
                 for node in ast.walk(ast.parse((PACKAGE / module).read_text(encoding="utf-8")))
                 if isinstance(node, ast.Import) and any(alias.name == "gc" for alias in node.names)
                 or isinstance(node, ast.ImportFrom) and node.module == "gc"]
    assert importers == ["cli.py"]


def _is_dispatched(module: str, name: str) -> bool:
    """Python's data model calls the dunder methods, and `cli.main` calls
    each `cmd_*` function by its subcommand's name."""
    return (name.startswith("__") and name.endswith("__")) or (module == "cli.py" and name.startswith("cmd_"))


def test_every_definition_is_named_elsewhere():
    words = Counter(word for folder in ("src", "tests", "demos", "perfbench")
                    for path in sorted((ROOT / folder).rglob("*.py"))
                    for word in re.findall(r"\w+", path.read_text(encoding="utf-8")))
    defined = [(path.name, node.name) for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    definitions = Counter(name for _, name in defined)
    unnamed = [f"{module}: {name}" for module, name in defined
               if words[name] <= definitions[name] and not _is_dispatched(module, name)]
    assert unnamed == []


CACHED = {"subroots", "subform", "piece_partition"}


def _name(node: ast.expr) -> str | None:
    """The name that a call, a decorator or a reference goes through."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def _functions(module: str) -> list[ast.FunctionDef]:
    return [node for node in ast.walk(ast.parse((PACKAGE / module).read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_only_the_traced_partition_functions_are_cached():
    cached = [(module, func.name) for module in MODULES for func in _functions(module)
              if any(_name(decorator) in ("lru_cache", "cache") for decorator in func.decorator_list)]
    assert sorted(cached) == [("partition.py", name) for name in sorted(CACHED)]


def test_no_package_function_calls_a_cached_function():
    callers = {(module, func.name, _name(node)) for module in MODULES for func in _functions(module)
               for node in ast.walk(func) if isinstance(node, ast.Call) and _name(node) in CACHED}
    assert callers == set()
