import ast
import importlib
from pathlib import Path

import pytest

import hn4walk

MODULES = ["topology", "engine", "experiments", "fitting", "reporting"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"hn4walk.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_public_names():
    # every name hn4walk/__init__.py re-exports is in its module's __all__
    tree = ast.parse(Path(hn4walk.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} == set(MODULES)
    for node in imports:
        module = importlib.import_module(f"hn4walk.{node.module}")
        assert [a.name for a in node.names if a.name not in module.__all__] == []
