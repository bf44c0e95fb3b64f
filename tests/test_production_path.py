"""The commands run without the reference routes, and the dependency on them
is one way: ``pencilspec.reference`` imports the production modules, and no
production module imports it or resolves names from it."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pencilspec
from pencilspec import reference
from pencilspec.errors import SpectralError

MOVED = {
    "charpoly": ("UniPoly", "MultiPoly", "coefficient_distance", "pencil_charpoly",
                 "restrict_pencil_to_line", "cluster_roots", "transform_tuple_vars",
                 "branch_derivative", "axis_derivative_closed_form"),
    "linalg": ("as_complex_matrix", "norm_scale", "eigendecompose_clustered",
               "projection_by_interpolation", "shift_to_invertible", "apply_tuple_map"),
    "conditions": ("realize_word", "verify_first_order_identity"),
    "decomposer": ("verify_cycle_identity",),
}
MOVED_ERRORS = ("SeparationTooSmall", "GridTooLarge", "DegenerateDirection",
                "SingularTransform", "BranchTrackingLost", "IndexOutOfRange",
                "ZeroCoefficientOnCycle")

PRODUCTION = sorted(p for p in Path(pencilspec.__file__).parent.glob("*.py")
                    if p.name != "reference.py")

COMMANDS_WITHOUT_REFERENCE = """
import sys
from pencilspec import charpoly, conditions, linalg
from pencilspec.cli import main

assert main(["generate", "--family", "decomposable", "--n", "2", "--k", "2", "--m", "2",
             "--out", "t.json"]) == 0
for command in ("analyze", "decompose", "corollary"):
    assert main([command, "t.json", "--k", "2", "--out", command + ".json"]) == 0, command
for module in (charpoly, conditions, linalg):
    assert getattr(module, "worker_count", None) is None
assert "pencilspec.reference" not in sys.modules
"""


def test_commands_never_load_reference(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    subprocess.run([sys.executable, "-c", COMMANDS_WITHOUT_REFERENCE], cwd=tmp_path, env=env,
                   check=True, timeout=120)


def _imported_modules(tree):
    """Every module a file imports, anywhere in it, relative imports resolved
    in the package; ``from M import x`` counts both ``M`` and ``M.x``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (("pencilspec." if node.level else "") + (node.module or "")).rstrip(".")
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("path", PRODUCTION, ids=lambda p: p.name)
def test_production_module_does_not_depend_on_reference(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set(_imported_modules(tree))
    assert "pencilspec.reference" not in imported
    assert not any(isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
                   for node in tree.body)
    if path.name == "conditions.py":
        assert "pencilspec.decomposer" not in imported


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in MOVED.items() for name in names]
    + [("errors", name) for name in MOVED_ERRORS],
)
def test_moved_name_lives_only_in_reference(module, name):
    assert not hasattr(importlib.import_module(f"pencilspec.{module}"), name)
    assert not hasattr(pencilspec, name)
    assert hasattr(reference, name)


@pytest.mark.parametrize("name", MOVED_ERRORS)
def test_moved_error_is_a_spectral_error(name):
    assert issubclass(getattr(reference, name), SpectralError)


@pytest.mark.parametrize("module", sorted(MOVED))
def test_unknown_attribute_raises(module):
    with pytest.raises(AttributeError, match=f"'pencilspec.{module}' has no attribute 'nope'"):
        importlib.import_module(f"pencilspec.{module}").nope

