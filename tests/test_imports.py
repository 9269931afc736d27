"""Import hygiene of the package and its callers, read from the syntax tree.

Six checks, with the standard-library ``ast`` module only:

* every name that the library, the tests, the demos and the benchmark
  import from ``bnls`` exists (the demos are never run by the suite, so a
  deleted name they import would otherwise go unseen);
* no library module other than ``__init__`` imports a name it never uses;
* no library module imports an underscore name from another library
  module, so what one module reaches of another is its public surface;
* every ``__all__`` entry is defined in its module;
* a library module imports another library module inside a function only
  when that module imports it at its top, so the import breaks a cycle;
* the table-sum linearisation (``gamma_sum_linearized`` and
  ``linearized_rhs_array``) is named by no library module other than
  ``dynamics``: it is kept there as an oracle for the tests and the
  benchmark's tracer, and the library's tangent flow goes through
  ``tangent_matrices``.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bnls"
LIBRARY = sorted(PACKAGE.glob("*.py"))
CALLERS = LIBRARY + sorted(p for d in ("tests", "demos", "perfbench") for p in (ROOT / d).glob("*.py"))


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def _bnls_imports(path: Path):
    """(module, name) of each ``from bnls... import name`` in the file, relative ones resolved."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:  # only the package itself imports relatively
            module = ".".join(["bnls"] + ([node.module] if node.module else []))
        else:
            module = node.module
        if module == "bnls" or module.startswith("bnls."):
            for alias in node.names:
                yield module, alias.name


@pytest.mark.parametrize("path", CALLERS, ids=_rel)
def test_every_name_imported_from_bnls_exists(path):
    missing = []
    for module, name in _bnls_imports(path):
        owner = importlib.import_module(module)
        if not hasattr(owner, name) and importlib.util.find_spec(f"{module}.{name}") is None:
            missing.append(f"{module}.{name}")
    assert not missing, missing


@pytest.mark.parametrize("path", [p for p in LIBRARY if p.name != "__init__.py"], ids=_rel)
def test_library_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, sorted(imported - used)


@pytest.mark.parametrize("path", LIBRARY, ids=_rel)
def test_library_module_imports_no_private_name(path):
    private = [f"{module}.{name}" for module, name in _bnls_imports(path) if name.startswith("_")]
    assert not private, private


def _library_path(module: str) -> Path:
    return PACKAGE / ("__init__.py" if module == "bnls" else f"{module.split('.')[-1]}.py")


def _named_modules(node):
    """The library modules that one import statement imports from or imports."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names if alias.name.split(".")[0] == "bnls"}
    if node.level:
        module = ".".join(["bnls"] + ([node.module] if node.module else []))
    else:
        module = node.module or ""
    if module != "bnls":
        return {module} if module.startswith("bnls.") else set()
    # ``from . import m`` imports the submodule m; any other name comes from the package
    return {f"bnls.{a.name}" if _library_path(f"bnls.{a.name}").exists() else "bnls" for a in node.names}


def _top_level_modules(module: str) -> set:
    body = ast.parse(_library_path(module).read_text()).body
    return {m for node in body if isinstance(node, (ast.Import, ast.ImportFrom)) for m in _named_modules(node)}


@pytest.mark.parametrize("path", LIBRARY, ids=_rel)
def test_function_level_library_imports_break_a_cycle(path):
    tree = ast.parse(path.read_text())
    me = "bnls" if path.name == "__init__.py" else f"bnls.{path.stem}"
    top = set(tree.body)
    needless = sorted(
        module
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in top
        for module in _named_modules(node)
        if me not in _top_level_modules(module)
    )
    assert not needless, needless


@pytest.mark.parametrize("path", LIBRARY, ids=_rel)
def test_every_all_entry_is_defined(path):
    module = importlib.import_module(f"bnls.{path.stem}" if path.stem != "__init__" else "bnls")
    undefined = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not undefined, undefined


ORACLES = {"gamma_sum_linearized", "linearized_rhs_array"}


@pytest.mark.parametrize("path", [p for p in LIBRARY if p.name != "dynamics.py"], ids=_rel)
def test_library_module_names_no_oracle(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert not names & ORACLES, sorted(names & ORACLES)
