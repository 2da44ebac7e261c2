"""Every public top-level function or class of `gradevade` is used in
`src/` outside its own definition and the package's `__init__.py`: a name
that only the tests call belongs in the tests. Every name a module imports
is used in that module."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gradevade"


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
