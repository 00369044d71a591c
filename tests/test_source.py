"""Guards on the package source, read with ast: every public function and
class has a user in the package, no module imports a name it never uses,
and theorems.py reads no chunk's layout.  One guard reads the imported
modules: every annotation resolves.

Functions that only the tests call, and exception classes that only they
raise, belong in tests/conftest.py, next to the other oracles, so the
package answers each question one way.
"""

import ast
import importlib
import inspect
import typing
from pathlib import Path

import domrec

PACKAGE = Path(domrec.__file__).resolve().parent
MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}

#: Public functions kept for library callers, with no caller in the package.
ENTRY_POINTS = {"verify_mixed_parity_lemma", "verify_product_decomposition"}


def _referenced(tree) -> set[str]:
    """The names tree reads, as a bare name or as an attribute."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def test_every_public_function_and_class_has_a_user_in_the_package():
    referenced = set().union(*(_referenced(tree) for name, tree in MODULES.items()
                               if name != "__init__.py"))
    unused = [f"{name}: {node.name}" for name, tree in MODULES.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in referenced | ENTRY_POINTS]
    assert unused == []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__.py":  # its imports are the package's exports
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            unused += [f"{name}: {alias.name}" for alias in node.names
                       if (alias.asname or alias.name).split(".")[0] not in read]
    assert unused == []


def test_theorems_reads_no_chunk_layout():
    """The claims read a LabeledChunk through its methods: which bits of
    edges hold which graphs, and which edge mask graph i has, are known to
    domination.py alone."""
    read = {node.attr for node in ast.walk(MODULES["theorems.py"])
            if isinstance(node, ast.Attribute)}
    assert read & {"edges", "first"} == set()


def test_every_annotation_resolves():
    """typing.get_type_hints resolves for every function and method of the
    package: an annotation that names a module imported only inside a
    function raises NameError."""
    unresolved = []
    for name in MODULES:
        module = importlib.import_module(f"domrec.{name.removesuffix('.py')}")
        for obj in map(inspect.unwrap, filter(callable, vars(module).values())):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for f in (getattr(m, "__func__", m) for m in members):
                if inspect.isfunction(f):
                    try:
                        typing.get_type_hints(f)
                    except NameError as exc:
                        unresolved.append(f"{name}: {f.__qualname__}: {exc}")
    assert unresolved == []
