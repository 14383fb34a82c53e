import ast
import dataclasses
import importlib
import re
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


def test_experiments_names_one_job_result():
    assert "JobResult" in experiments.__all__
    assert "sweep_result" not in experiments.__all__
    assert not hasattr(experiments, "sweep_result")


def test_experiments_protocols_are_the_job_builders():
    # a protocol is its job builder run through run_jobs; the list-returning
    # wrappers are gone, and the peak rule's thresholds are module constants
    # equal to the ones the independent benchmark reference states
    for name in ("sweep_self_loop", "scaling_experiment", "density_experiment"):
        assert name not in experiments.__all__
        assert not hasattr(experiments, name)
    assert [field.name for field in dataclasses.fields(experiments.PeakRule)] == ["stride"]
    reference = ast.parse((Path(__file__).parents[1] / "bench" / "reference.py").read_text())
    stated = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in reference.body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("MIN_GAIN", "DECLINE_RUN")
    }
    assert stated == {"MIN_GAIN": experiments.MIN_GAIN, "DECLINE_RUN": experiments.DECLINE_RUN}
    assert {"MIN_GAIN", "DECLINE_RUN"} <= set(experiments.__all__)


#: A Sphinx cross-reference to a Python object, with an optional leading ``~``.
CROSS_REFERENCE = re.compile(r":(?:func|class|meth|attr|data|exc):`~?([\w.]+)`")


def _resolves(module, target: str) -> bool:
    """Whether ``target`` names an object: a full ``hn4walk.<module>.<name>``
    path, or a name in ``module`` or in one of the classes it defines."""

    def lookup(scope, path):
        for part in path.split("."):
            fields = getattr(scope, "__dataclass_fields__", {})
            if hasattr(scope, part):
                scope = getattr(scope, part)
            elif part in fields:  # a dataclass field without a default
                scope = fields[part]
            else:
                return False
        return True

    if target.startswith("hn4walk."):
        _, name, rest = target.split(".", 2)
        return lookup(importlib.import_module(f"hn4walk.{name}"), rest)
    own = [value for value in vars(module).values()
           if isinstance(value, type) and value.__module__ == module.__name__]
    return any(lookup(scope, target) for scope in [module, *own])


def test_docstring_cross_references_resolve():
    references = []
    for path in sorted(Path(hn4walk.__file__).parent.glob("*.py")):
        targets = CROSS_REFERENCE.findall(path.read_text())
        if targets:  # __main__ runs the CLI when imported, and has none
            module = importlib.import_module(f"hn4walk.{path.stem}")
            references += [(path.name, target, _resolves(module, target)) for target in targets]
    assert references
    assert [(name, target) for name, target, ok in references if not ok] == []
    assert not _resolves(experiments, "sweep_result")
    assert not _resolves(engine, "hn4walk.engine.step_threads")
    assert not _resolves(engine, "WalkEngine.reset")


#: A row of README's library layout: the package or module, and its contents.
LAYOUT_ROW = re.compile(r"^\| `(hn4walk(?:\.\w+)?)` *\|(.*)\|$", re.MULTILINE)


def test_readme_layout_names_resolve():
    # every backticked identifier with an underscore in a module's row names an
    # attribute of that module or of one of its classes
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    names = [
        (module, name)
        for module, contents in LAYOUT_ROW.findall(readme)
        for name in re.findall(r"`(\w*_\w*)`", contents)
    ]
    assert len(names) >= 20
    stale = [(module, name) for module, name in names
             if not _resolves(importlib.import_module(module), name)]
    assert stale == []
    assert not _resolves(topology, "long_range_lines")
    assert not _resolves(topology, "exceptional_vertices")
    assert not _resolves(engine, "flip")


def test_no_module_reads_another_objects_private_attribute():
    # a module reads only its own objects' private state, through self or cls;
    # os._exit, which a forked helper leaves by, is the one allowed exception
    reads = []
    for path in sorted(Path(hn4walk.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and not node.attr.endswith("__")):
                owner = ast.unparse(node.value)
                if owner not in ("self", "cls"):
                    reads.append((path.name, f"{owner}.{node.attr}"))
    assert [read for read in reads if read[1] != "os._exit"] == []
    assert ("engine.py", "os._exit") in reads


def test_experiments_builds_engines_only_in_walk():
    # every walk of the protocols is built by _walk, after its targets pass
    tree = ast.parse(Path(experiments.__file__).read_text())
    builders = [
        function.name
        for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "WalkEngine"
    ]
    assert builders == ["_walk"]
