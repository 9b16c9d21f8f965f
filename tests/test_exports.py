"""Every public name the package promises still exists.

Deleting a module or class must not leave a dangling re-export in some
``__init__``'s ``__all__``, nor break an example that the smoke tests
skip for time.  This test imports every ``repro`` module and resolves
each name in its ``__all__``; for each slow example it compiles the
script and resolves every name it imports from ``repro``.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import repro
from tests.test_examples_smoke import SLOW

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.name != "repro.__main__"
)


def _resolves(module: str, name: str) -> bool:
    """True if ``from module import name`` would succeed."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{module}.__all__ lists undefined names {missing}"


@pytest.mark.parametrize("name", sorted(SLOW))
def test_slow_example_imports_resolve(name):
    path = EXAMPLES_DIR / name
    tree = ast.parse(path.read_text(), filename=str(path))
    compile(tree, str(path), "exec")
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            imported += [(node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("repro"):
                    importlib.import_module(a.name)
    assert imported, f"{name} imports nothing from repro"
    missing = [f"{m}.{n}" for m, n in imported if not _resolves(m, n)]
    assert not missing, f"{name} imports missing names {missing}"
