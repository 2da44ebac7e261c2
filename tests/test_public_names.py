"""Every public top-level function or class of `gradevade` is used in
`src/` outside its own definition and the package's `__init__.py`: a name
that only the tests call belongs in the tests. Every name a module imports
is used in that module. Every name the package's `__init__.py` binds is
imported from the package by the benchmarks."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gradevade"


def _modules() -> dict:
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _used_names(tree: ast.AST) -> set:
    """Names that `tree` loads or reads as attributes. Imports do not
    count: an unused import keeps no name alive."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def unused_public_names(modules: dict) -> list:
    """(module, name) of each public top-level function or class that no
    top-level statement of any module uses, its own definition left out."""
    uses = [(node, _used_names(node)) for tree in modules.values() for node in tree.body]
    return [(module, node.name)
            for module, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            and not any(node.name in names for other, names in uses if other is not node)]


def test_every_public_name_has_a_caller_in_src():
    assert unused_public_names(_modules()) == []


def test_a_public_name_called_only_from_its_own_body_or_the_tests_is_found():
    modules = _modules()
    modules["extra.py"] = ast.parse(
        "def only_tests_call_me(x):\n    return only_tests_call_me(x - 1) if x else 0\n"
        "class Unused:\n    pass\n"
        "def _private():\n    pass\n"
    )
    assert unused_public_names(modules) == [("extra.py", "only_tests_call_me"), ("extra.py", "Unused")]


# Tracer.install (benchmarks/tracing.py) wraps these two names where scenario.py
# imports them; ROADMAP item 2 removes them with the tracer's need for them
ALLOWED_UNUSED_IMPORTS = [("scenario.py", "train_kernel_svm"), ("scenario.py", "train_mlp")]


def unused_imports(modules: dict) -> list:
    """(module, name) of each name that a module imports, `__future__`
    features aside, and never uses."""
    found = []
    for module, tree in modules.items():
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                found += [(module, name) for name in bound if name not in used]
    return found


def test_every_imported_name_is_used_in_its_module():
    assert unused_imports(_modules()) == ALLOWED_UNUSED_IMPORTS


def test_an_import_the_module_never_uses_is_found():
    modules = _modules()
    modules["extra.py"] = ast.parse(
        "from __future__ import annotations\n"
        "import json\nimport os.path\nfrom math import sqrt, pi as PI\n"
        "def used():\n    return os.sep, PI\n"
    )
    assert unused_imports(modules) == [*ALLOWED_UNUSED_IMPORTS, ("extra.py", "json"), ("extra.py", "sqrt")]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def reexports_without_a_caller(init: ast.Module, callers: list) -> list:
    """Each name that `init` binds at top level, dunder names such as
    `__version__` aside, that no tree of `callers` imports with
    `from gradevade import ...`."""
    bound = []
    for node in init.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.Assign):
            bound += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.append(node.name)
    imported = {alias.name for tree in callers for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "gradevade" and not node.level
                for alias in node.names}
    return [name for name in bound if not name.startswith("__") and name not in imported]


def _benchmark_files() -> list:
    return [_parse(path) for path in sorted((ROOT / "benchmarks").rglob("*.py"))]


def test_every_name_the_package_binds_is_imported_by_the_benchmarks():
    assert reexports_without_a_caller(_parse(SRC / "__init__.py"), _benchmark_files()) == []


def test_a_name_the_package_binds_that_no_benchmark_imports_is_found():
    init = _parse(SRC / "__init__.py")
    init.body += ast.parse("from .models import predict\nfrom . import cli\nDEFAULTS = {}\ndef helper():\n    pass\n").body
    callers = [*_benchmark_files(), ast.parse("import gradevade\nfrom gradevade.models import predict\n")]
    assert reexports_without_a_caller(init, callers) == ["predict", "cli", "DEFAULTS", "helper"]
