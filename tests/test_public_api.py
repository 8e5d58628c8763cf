"""Star imports of the package and of each module: a stale ``__all__`` entry fails here."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import lsdfem
from lsdfem.pipeline import SolverConfig

MODULES = sorted(info.name for info in pkgutil.iter_modules(lsdfem.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_of_each_module(name):
    namespace = {}
    exec(f"from lsdfem.{name} import *", namespace)
    module = importlib.import_module(f"lsdfem.{name}")
    assert set(getattr(module, "__all__", ())) <= set(namespace)


def test_package_all_resolves():
    namespace = {}
    exec("from lsdfem import *", namespace)
    assert [name for name in lsdfem.__all__ if name not in namespace] == []
    assert len(set(lsdfem.__all__)) == len(lsdfem.__all__)


def test_readme_config_table_names_every_config_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Configuration reference", 1)[1].split("\n\n")[1]
    named = []
    for row in table.splitlines()[2:]:   # past the header and its rule
        named += [key.strip(" `") for key in row.split("|")[1].split(",")]
    assert sorted(named) == sorted(SolverConfig.__dataclass_fields__)


def test_every_private_helper_is_referenced():
    # A single-underscore name defined at module or class level that no code
    # in the package reads (as a name, an attribute or an import) is dead.
    defined, used = set(), set()
    for path in sorted(Path(lsdfem.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bodies = [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        for node in (stmt for body in bodies for stmt in body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert sorted(private - used) == []
