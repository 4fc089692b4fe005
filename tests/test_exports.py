"""The package's export lists name only what exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pxbiharm

MODULES = sorted(m.name for m in pkgutil.iter_modules(pxbiharm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"pxbiharm.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing
    namespace = {}
    exec(f"from pxbiharm.{name} import *", namespace)


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(pxbiharm.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"pxbiharm.{module}")
        assert getattr(pxbiharm, name) is getattr(source, name)
