import ast
import importlib
from pathlib import Path

import pytest

import hn4walk
from hn4walk import engine, experiments, reporting, topology

MODULES = ["topology", "engine", "experiments", "fitting", "reporting"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"hn4walk.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_public_names():
    # the package loads only its version, a public name of reporting; the start-up
    # test in test_cli.py checks that importing it loads no numpy
    tree = ast.parse(Path(hn4walk.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert [(node.module, [a.name for a in node.names]) for node in imports] == [
        ("reporting", ["ENGINE_VERSION"])
    ]
    assert hn4walk.__version__ == reporting.ENGINE_VERSION
    assert "ENGINE_VERSION" in reporting.__all__


def test_moved_names_stay_importable_from_their_old_modules():
    assert engine.EdgeMode is topology.EdgeMode
    assert engine.available_cores is reporting.available_cores
    assert experiments.ScalingRecord is reporting.ScalingRecord
