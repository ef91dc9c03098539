"""The public surface that outside tools reach by name: every exported
name resolves, and the cyclic-reduction call reports its sweep count."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import qbdshift

MODULES = ("cli", "kernel", "matpoly", "model", "shift", "solvers", "verify")


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(f"qbdshift.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing, missing


def test_package_reexports_resolve():
    tree = ast.parse(Path(qbdshift.__file__).read_text(encoding="utf-8"))
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    missing = [n for n in names if not hasattr(qbdshift, n)]
    assert not missing, missing


def test_pipeline_entry_points_exist():
    from qbdshift import cli, shift

    assert callable(cli.solve_report)
    assert callable(shift.pick_kind)


def test_cyclic_reduction_reports_iterations():
    from qbdshift import solvers

    out = solvers.cyclic_reduction(np.array([[0.5]]), np.array([[-0.8]]), np.array([[0.3]]))
    assert isinstance(out.iterations, int) and out.iterations > 0
