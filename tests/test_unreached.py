"""The trace of ``tools/unreached.py``: on one op check, the functions the
command enters are not listed, and one it never enters is listed with the
line count of its source."""
from __future__ import annotations

import importlib.util
import inspect
import sys
from pathlib import Path

import noc.cli
import noc.dynamics
import noc.optproblem

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "unreached", ROOT / "tools" / "unreached.py")
unreached = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unreached)


def _key(fn) -> tuple:
    path = str(Path(inspect.getsourcefile(fn)).resolve().relative_to(ROOT))
    return path, fn.__code__.co_firstlineno, fn.__qualname__


def test_one_op_check_enters_the_op_path_and_no_dynamics():
    runs = [(["check", "docs/conformance/valid/op-halfspace-box.noc"], True)]
    missed = unreached.unreached(unreached.entered(runs))
    listed = {(path, line, name): count for path, line, name, count in missed}
    for fn in (noc.cli.main, noc.optproblem.op_first_order):
        assert _key(fn) not in listed
    # the file has no grid resolution, and an op check integrates nothing
    for fn in (noc.optproblem.op_bruteforce, noc.dynamics.integrate_state):
        assert listed[_key(fn)] == len(inspect.getsourcelines(fn)[0])
    assert sys.getprofile() is None


def test_the_reference_evaluators_are_not_package_functions():
    names = {name.rsplit(".", 1)[-1]
             for name, _ in unreached.definitions().values()}
    assert "integrate_state" in names
    for moved in ("hamiltonian", "hamiltonian_blocks", "curvature_pairing",
                  "second_order_lhs", "stationarity_residual",
                  "_probe_points", "sphere_tangent_to_embedding"):
        assert moved not in names
    # callback models, their central differences and the trajectory CSV
    # left the package
    for deleted in ("dynamics_from_callbacks", "builtin_dynamics",
                    "endpoint_map", "_fd_block", "_fd_endpoint", "_fd_rounding",
                    "trajectory_to_csv", "trajectory_from_csv"):
        assert deleted not in names
    # so did callback op rows and metrics with their differences; the
    # flattened control problem and the difference Christoffel symbols
    # moved to the tests' reference module
    for deleted in ("opt_scalar", "_fd_grad", "_fd_second",
                    "control_problem_as_op", "christoffel_fd", "_fd_step"):
        assert deleted not in names
    # curvature from the Christoffel symbols is the custom-chart path
    assert "curvature_fd" in names
