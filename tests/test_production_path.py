"""The commands run without the reference routes, which stay importable from
the modules they came from."""

import importlib
import os
import subprocess
import sys

import pytest

from pencilspec import reference

MOVED = {
    "charpoly": ("UniPoly", "MultiPoly", "coefficient_distance", "pencil_charpoly",
                 "restrict_pencil_to_line", "cluster_roots", "transform_tuple_vars",
                 "branch_derivative", "axis_derivative_closed_form"),
    "linalg": ("norm_scale", "eigendecompose_clustered", "projection_by_interpolation",
               "shift_to_invertible", "apply_tuple_map"),
    "conditions": ("realize_word", "verify_first_order_identity"),
}

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


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in MOVED.items() for name in names]
)
def test_moved_name_resolves_to_reference(module, name):
    moved = getattr(importlib.import_module(f"pencilspec.{module}"), name)
    assert moved is getattr(reference, name)


@pytest.mark.parametrize("module", sorted(MOVED))
def test_unknown_attribute_raises(module):
    with pytest.raises(AttributeError, match=f"'pencilspec.{module}' has no attribute 'nope'"):
        importlib.import_module(f"pencilspec.{module}").nope
