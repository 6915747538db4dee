"""Command-line behavior: exit codes, report determinism, sweeps, oracles.

Most tests invoke ``main`` in-process for speed; one subprocess check
confirms the installed entry point carries the exit code through.
"""
from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from noc.cli import VERDICT_EXIT, main
from noc.polyhedral import MultiplierVector
from noc.problemfile import parse_problem_file

DISC_OP = """\
noc 1
kind op
dim 2
domain {
  ball 0.0 0.0 1.0
}
point -1.0 0.0
cost x1 + 1
direction {
  y 0.0 1.0
}
"""

PARABOLA_OP = """\
noc 1
kind op
dim 2
domain {
  box -1.0 -1.0 1.0 1.0
}
point 0.0 0.0
cost x2
equality x2 + x1^2
direction {
  y 1.0 0.0
}
"""

TILTED_OP = """\
noc 1
kind op
dim 2
domain {
  ball 0.0 0.0 1.0
}
point -1.0 0.0
cost x1 + 0.1*x2
"""


def _write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _check(args):
    return main(["check"] + args)


# ----------------------------------------------------------------------------
# exit codes and verdicts
# ----------------------------------------------------------------------------

def test_refuted_preset_exits_3(capsys):
    code = _check(["preset:ccs126", "--grid", "200"])
    out = capsys.readouterr().out
    assert code == 3
    assert "verdict: refuted" in out
    assert "ray 0: -4/11 -1 4/11" in out
    # the certified value of the quadratic form at the defaults
    lhs = [ln for ln in out.splitlines() if ln.startswith("second-order")]
    assert abs(float(lhs[0].split(": ")[1]) - 13.0 / 12.0) < 1e-3


def test_consistent_preset_exits_0(capsys):
    code = _check(["preset:linear-lq-euclid"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: consistent" in out
    assert "ray 0: -1 -1 1 1" in out


def test_margin_override_downgrades_to_inconclusive(capsys):
    code = _check(["preset:ccs126", "--grid", "200", "--tol", "margin=0.5"])
    assert code == 4
    assert "verdict: inconclusive" in capsys.readouterr().out


def test_missing_direction_runs_first_order_only(tmp_path, capsys):
    from noc.presets import preset_text
    text = preset_text("ccs126")
    text = text[:text.index("direction {")]
    path = _write(tmp_path, "nodir.noc", text)
    code = _check([path, "--grid", "100"])
    out = capsys.readouterr().out
    assert code == 0
    assert "first-order check only" in out


def test_hypothesis_boundary_still_evaluated(capsys):
    code = _check(["preset:ccs126", "--grid", "200", "--set", "theta=2",
                   "--set", "T=0.3"])
    out = capsys.readouterr().out
    assert code == 3
    assert "hypothesis violation theta>2" in out
    # at theta = 2 the formula reduces to T(-T^2/3 + 5T/2), still positive
    lhs = [ln for ln in out.splitlines()
           if ln.startswith("second-order value")]
    expected = 0.3 * (-0.09 / 3 + 2.5 * 0.3)
    assert abs(float(lhs[0].split(": ")[1]) - expected) < 1e-3


def test_op_consistent_and_refuted(tmp_path, capsys):
    assert _check([_write(tmp_path, "disc.noc", DISC_OP)]) == 0
    assert "worst values: -0.5" in capsys.readouterr().out
    assert _check([_write(tmp_path, "par.noc", PARABOLA_OP)]) == 3
    assert "verdict: refuted" in capsys.readouterr().out
    assert _check([_write(tmp_path, "tilt.noc", TILTED_OP)]) == 3
    assert "multiplier rays: 0" in capsys.readouterr().out


@pytest.mark.parametrize("offset", ["1e8", "1e12"])
def test_an_op_cost_offset_keeps_the_verdict_rays_and_worst_values(tmp_path, offset):
    # the cost's gradient is exact, so it meets no central differences,
    # whose rounding at a value of 1e8 or 1e12 exceeded their 1e-4 bound
    def run(name, text):
        report = tmp_path / f"{name}.json"
        code = _check([_write(tmp_path, f"{name}.noc", text), "--report", str(report)])
        return code, json.loads(report.read_text())

    plain_code, plain = run("plain", PARABOLA_OP)
    moved_code, moved = run("moved", PARABOLA_OP.replace("cost x2\n",
                                                         f"cost x2 + {offset}\n"))
    assert moved_code == plain_code == 3
    assert moved["verdict"] == plain["verdict"] == "refuted"
    assert moved["multipliers"] == plain["multipliers"]
    assert moved["second_order"]["worst_values"] == plain["second_order"]["worst_values"]


def test_op_grid_search_agreement_and_coarse_note(tmp_path, capsys):
    path = _write(tmp_path, "disc.noc", DISC_OP + "resolution 0.01\n")
    assert _check([path]) == 0
    assert "grid search: confirmed" in capsys.readouterr().out
    # a grid too coarse to certify the improvement it sees says so:
    # the candidate sits off-grid and the nearest sample wins by exactly
    # the Lipschitz slack
    coarse = ("noc 1\nkind op\ndim 1\ndomain {\n  box -1.0 1.0\n}\n"
              "point -0.75\ncost x1\nresolution 0.5\n")
    path = _write(tmp_path, "coarse.noc", coarse)
    assert _check([path]) == 3  # first-order cone is empty at an interior point
    assert "grid search inconclusive" in capsys.readouterr().out


def test_absurd_grid_resolution_exits_2_with_one_line(tmp_path, capsys):
    # 2,000,001^2 lattice points: refused by count instead of allocated
    path = _write(tmp_path, "fine.noc", DISC_OP + "resolution 1e-6\n")
    assert _check([path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "4000004000001 points" in err and "coarser resolution" in err


def test_grid_search_skips_non_finite_costs(tmp_path, capsys):
    # sqrt(x1) is NaN on the left half of the box; the NaNs must neither
    # become the grid's best value nor hide x1 = 0, which refutes the
    # candidate x1 = 1 as the first-order test does
    nan_op = ("noc 1\nkind op\ndim 1\ndomain {\n  box -1.0 1.0\n}\n"
              "point 1.0\ncost sqrt(x1)\nresolution 0.01\n")
    assert _check([_write(tmp_path, "nan.noc", nan_op)]) == 3
    out = capsys.readouterr().out
    assert "grid search: refuted (best 0.0," in out
    assert "grid search skipped 100 feasible points whose cost is not " \
        "finite" in out
    assert "verdict: refuted" in out
    # the cost overflows at every lattice point but not at the off-lattice
    # candidate: the grid search is empty for that reason, and the notes
    # say so without contradicting each other
    all_inf = nan_op.replace("point 1.0", "point 0.005").replace(
        "sqrt(x1)", "x1 + exp(1e8*(x1 - 0.005)^2)")
    assert _check([_write(tmp_path, "all-inf.noc", all_inf)]) == 3
    out = capsys.readouterr().out
    assert "grid search: empty" in out
    assert "grid search skipped 201 feasible points whose cost is not " \
        "finite" in out
    assert "grid search found no feasible sample with a finite cost at " \
        "this resolution" in out
    assert "found no feasible sample at" not in out


NAN_COST_DISC_OP = """\
noc 1
kind op
dim 2
domain {
  ball 0.0 0.0 1.0
}
point 0.0 -0.5
cost x2 + sqrt(x1 + 0.5)
resolution 0.005
"""


def test_grid_search_warns_once_for_a_cost_nan_on_the_domain(tmp_path, capsys):
    # sqrt is NaN on the feasible points with x1 < -0.5: one warning line
    # and the count of skipped points, however the slabs are scanned
    assert _check([_write(tmp_path, "sqrt.noc", NAN_COST_DISC_OP)]) == 3
    out, err = capsys.readouterr()
    assert "note: grid search skipped 24384 feasible points whose cost is " \
        "not finite" in out
    assert [line for line in err.splitlines()
            if not line.startswith("elapsed:")] == \
        ["warning: invalid value encountered in sqrt"]


def test_grid_search_does_not_warn_for_a_cost_nan_off_the_domain(tmp_path, capsys):
    # the log is NaN only in the corners of the disc's bounding box, which
    # are never feasible, so nothing is skipped and nothing is warned
    text = NAN_COST_DISC_OP.replace("point 0.0 -0.5", "point -1.0 0.0").replace(
        "x2 + sqrt(x1 + 0.5)", "x1 + 0.001*log(1.5 - x1^2 - x2^2)")
    assert _check([_write(tmp_path, "log.noc", text)]) == 0
    out, err = capsys.readouterr()
    assert "grid search: confirmed" in out and "skipped" not in out
    assert "warning:" not in err


def test_a_non_finite_slab_best_exits_2_with_one_line(tmp_path, capsys,
                                                     monkeypatch):
    import noc.optproblem

    scan_chunk = noc.optproblem._scan_chunk

    def planted(problem, slabs, chunk, bound):
        count, skipped, _, where = scan_chunk(problem, slabs, chunk, bound)
        return count, skipped, float("nan"), where

    monkeypatch.setattr(noc.optproblem, "_scan_chunk", planted)
    path = _write(tmp_path, "disc.noc", DISC_OP + "resolution 0.01\n")
    assert _check([path, "--report", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: grid search: the best cost of a lattice "
                          "slab is nan at (")
    assert not (tmp_path / "r.json").exists()


def test_an_empty_grid_search_writes_a_valid_json_report(tmp_path, capsys):
    # the empty search has no best value and an overflowed slack: both
    # are written as null, not as the NaN and Infinity that JSON lacks
    text = ("noc 1\nkind op\ndim 1\ndomain {\n  box -1.0 1.0\n}\n"
            "point 0.005\ncost x1 + exp(1e8*(x1 - 0.005)^2)\nresolution 0.01\n")
    report = tmp_path / "empty.json"
    assert _check([_write(tmp_path, "empty.noc", text), "--report", str(report)]) == 3
    assert "grid search: empty (best nan, slack inf)" in capsys.readouterr().out

    def refuse(name):
        raise AssertionError(f"report holds {name}")

    grid = json.loads(report.read_text(), parse_constant=refuse)["grid_search"]
    assert grid["verdict"] == "empty"
    assert grid["best_value"] is None and grid["slack"] is None
    assert grid["reference_value"] == 1.005


def test_non_finite_grid_slack_is_inconclusive_not_nan(tmp_path, capsys):
    # no sampled gradient of the cost is finite on the disc's bounding box:
    # the slack behind the grid verdict would be NaN, and NaN is not JSON
    text = ("noc 1\nkind op\ndim 2\ndomain {\n  ball 0.0 0.0 1.0\n}\n"
            "point 1.0 0.0\ncost 0 - sqrt(x1 - 0.999)\nresolution 0.01\n")
    report = tmp_path / "nan-slack.json"
    assert _check([_write(tmp_path, "nan-slack.noc", text),
                   "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "note: grid search inconclusive: row 'cost' has no finite " \
        "gradient bound" in out
    assert "grid search: confirmed" not in out

    def refuse(name):
        raise AssertionError(f"report holds {name}")

    data = json.loads(report.read_text(), parse_constant=refuse)
    assert "grid_search" not in data
    assert data["verdict"] == "consistent"


@pytest.mark.parametrize("dim, box, point, cost, fragment", [
    (1, "-1.0 1.0", "-1.0", "log(x1 + 1)",
     "row 'cost' is not finite at the point (-1.0): value -inf"),
    (2, "-1.0 -1.0 1.0 1.0", "-1.0 0.0", "x1 + 1 + sqrt(x2)",
     "row 'cost' is not finite at the point (-1.0, 0.0): value 0.0, "
     "gradient (1.0, inf)"),
], ids=["log", "sqrt"])
def test_non_finite_op_candidate_data_exits_2_naming_the_row(
        tmp_path, capsys, dim, box, point, cost, fragment):
    text = (f"noc 1\nkind op\ndim {dim}\ndomain {{\n  box {box}\n}}\n"
            f"point {point}\ncost {cost}\n")
    assert _check([_write(tmp_path, "inf.noc", text)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert fragment in err


def test_a_nan_second_derivative_exits_2_not_refuted(tmp_path, capsys):
    # every term of the cost is >= 0 on the box and 0 at the origin, but
    # x2^1.5 has an infinite second derivative there, so y H y is NaN
    text = ("noc 1\nkind op\ndim 2\ndomain {\n  box 0.0 0.0 1.0 1.0\n}\n"
            "point 0.0 0.0\ncost x1^2 + x2 + x2^1.5\n"
            "direction {\n  y 1.0 0.0\n}\n")
    assert _check([_write(tmp_path, "nan-second.noc", text)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: row 'cost' has second derivative nan")


def test_input_errors_exit_2(tmp_path, capsys):
    bad = DISC_OP.replace("ball 0.0 0.0 1.0", "ball 0.0 0.0")
    assert _check([_write(tmp_path, "bad.noc", bad)]) == 2
    assert "domain: ball radius" in capsys.readouterr().err
    assert _check([str(tmp_path / "missing.noc")]) == 2
    assert "cannot read" in capsys.readouterr().err
    assert _check(["preset:nope"]) == 2
    assert "unknown preset" in capsys.readouterr().err
    assert _check(["preset:ccs126", "--set", "bogus=1"]) == 2
    assert "unknown parameter" in capsys.readouterr().err
    assert _check(["preset:ccs126", "--set", "theta=abc"]) == 2
    assert "must be a number" in capsys.readouterr().err


def test_non_finite_overrides_exit_2_with_one_line(capsys):
    for flags, fragment in ((["--set", "T=nan"], "horizon must be finite"),
                            (["--set", "theta=inf"], "param theta"),
                            (["--tol", "margin=nan"], "margin must be finite"),
                            (["--tol", "row=0"], "row must be positive")):
        assert _check(["preset:ccs126"] + flags) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert fragment in err


_SPHERE = """\
noc 1
kind ocp
chart {
  type sphere
  radius RADIUS
}
grid {
  cells 10
  horizon 0.4
}
start 0.1 0.0
dynamics {
  u1 - y2
  u2 + y1
}
endpoint {
  cost yT1 + yT2
}
control_set {
  box -1.0 -1.0 1.0 1.0
}
control {
  0.2
  0.1*t
}
"""


@pytest.mark.parametrize("radius", ["nan", "inf", "1e200", "1e-200", "0", "-1"])
def test_a_sphere_radius_out_of_range_exits_2_with_one_line(tmp_path, capsys,
                                                            radius):
    # the radius and its square must be positive and finite: 1e200 squares
    # to inf and 1e-200 to 0
    path = _write(tmp_path, "sphere.noc", _SPHERE.replace("RADIUS", radius))
    assert _check([path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 5: chart.radius must be positive and finite\n"


def test_bad_magnitude_overrides_exit_2_with_one_line(capsys):
    # T=1e300 overflows the state in the first cell, and the overflow
    # warning is folded into the error line instead of printed before it
    assert _check(["preset:ccs126", "--set", "T=1e300"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "state became non-finite" in err and "overflow" in err, err


def _theta_check(tmp_path, theta: str):
    """(exit code, chosen_lhs) of ccs126 at this theta and 100 cells."""
    report = str(tmp_path / "theta.json")
    code = _check(["preset:ccs126", "--grid", "100", "--set", f"theta={theta}",
                   "--report", report])
    with open(report) as fh:
        return code, json.load(fh)["second_order"]["chosen_lhs"]


@pytest.mark.parametrize("theta", ["1e5", "1e6", "1e300"])
def test_large_theta_is_refuted_with_the_exact_form_value(tmp_path, capsys, theta):
    # the ccs126 blocks are exact at any theta, so a large rhs is no reason
    # to stop; the chosen form value lies (theta - 3)/2 above theta = 3's
    code, lhs = _theta_check(tmp_path, theta)
    _, base = _theta_check(tmp_path, "3")
    capsys.readouterr()
    assert code == 3
    assert lhs - base == pytest.approx((float(theta) - 3.0) / 2.0, rel=1e-9)


def test_a_non_finite_endpoint_map_exits_2_with_one_line(tmp_path, capsys):
    text = (Path(__file__).resolve().parent.parent / "docs" / "conformance"
            / "valid" / "ccs126.noc").read_text()
    # probed near the origin, the cost is NaN at pairs with a negative coordinate
    text = text.replace("start 1.0 0.0", "start 0.0 0.0")
    text = text.replace("cost yT2", "cost sqrt(yT1) + log(y01)")
    assert "start 0.0 0.0" in text and "cost sqrt" in text
    path = _write(tmp_path, "nan-cost.noc", text)
    assert _check([path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "endpoint map 'cost' is not finite" in err, err


_BLOWUP = """\
noc 1
kind ocp
chart {
  type euclidean
  dim 1
}
grid {
  cells CELLS
  horizon 1
}
start 5
dynamics {
  RHS
}
endpoint {
  cost yT1
}
control_set {
  box -1 1
}
control {
  0
}
"""


@pytest.mark.parametrize("rhs, cells, err", [
    ("exp(y1) + u1", 1, "error: state became non-finite in cell 0 "
                        "(numerical warning: overflow encountered in exp)\n"),
    ("y1^2 + u1", 20, "error: state became non-finite in cell 6 "
                      "(numerical warning: overflow encountered in scalar power)\n"),
])
def test_state_overflow_names_its_cell_and_numpy_warning(tmp_path, capsys, rhs, cells,
                                                         err):
    # the float RK4 cell raises OverflowError; the cell is redone on numpy,
    # whose warning and cell index the line reports
    text = _BLOWUP.replace("CELLS", str(cells)).replace("RHS", rhs)
    assert _check([_write(tmp_path, "blowup.noc", text)]) == 2
    assert capsys.readouterr().err == err


def test_a_vanishing_float_overflow_keeps_the_numpy_warnings(tmp_path, capsys,
                                                            monkeypatch):
    # y1^8 overflows to inf in a float cell and 1/(1 + inf) = 0 would hide
    # it: the guarded division raises instead, so the cell is redone on numpy
    # and stderr is the numpy path's, line for line
    import noc.dynamics

    text = (_BLOWUP.replace("CELLS", "1000").replace("horizon 1\n", "horizon 100\n")
            .replace("start 5", "start 1")
            .replace("RHS", "y1 + 1/(1 + y1*y1*y1*y1*y1*y1*y1*y1) + u1"))
    path = _write(tmp_path, "vanishing.noc", text)

    def stderr_lines():
        _check([path])
        return [line for line in capsys.readouterr().err.splitlines(keepends=True)
                if not line.startswith("elapsed: ")]

    got = stderr_lines()
    monkeypatch.setattr(noc.dynamics, "_compile_rk4_cell", lambda *args: None)
    assert got == stderr_lines()
    assert got[0] == "warning: overflow encountered in scalar multiply\n"


def _count_calls(monkeypatch, module, name: str, counts) -> None:
    """Count the calls of module.name under ``name``, wherever a noc
    module binds that function."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod.__name__.split(".")[0] == "noc" and vars(mod).get(name) is fn:
            monkeypatch.setattr(mod, name, counted)


def test_check_does_its_per_cell_work_once_per_distinct_row(monkeypatch, capsys):
    # preset:ccs126 holds one control and one direction on all 400 cells,
    # so every per-cell loop meets one row group; the dynamics blocks are
    # evaluated four times for the shared cell propagators, once for the jet
    import collections

    import noc.cones
    import noc.conditions
    import noc.dynamics

    counts = collections.Counter()
    _count_calls(monkeypatch, noc.dynamics, "_blocks_along", counts)
    loops = {"verify_singular_direction": "adjacent_cone_member",
             "_multiplier_cone_rows": "tangent_cone_vrep",
             "_check_sigma_membership": "second_adjacent_member",
             "default_sigma_candidates": "second_cone_vrep",
             "quadratic_distance_bound": "contains"}
    for loop, routine in loops.items():
        _count_calls(monkeypatch, noc.conditions, loop, counts)
        _count_calls(monkeypatch, noc.cones, routine, counts)
    assert _check(["preset:ccs126", "--grid", "400"]) == 3
    assert "verdict: refuted" in capsys.readouterr().out
    assert counts["_blocks_along"] <= 5
    for loop, routine in loops.items():
        assert counts[loop] >= 1
        assert counts[routine] == counts[loop], (loop, routine, counts)


def test_a_check_makes_no_per_cell_call_into_the_float_cell(capsys):
    # the state pass runs the float cells in one compiled loop; the only
    # calls of the one-cell function are make_problem's 20 validation probes
    calls = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and (code.co_name, code.co_filename) == ("cell", "<string>"):
            calls.append(code)

    sys.setprofile(profile)
    try:
        code = _check(["preset:ccs126", "--grid", "400"])
    finally:
        sys.setprofile(None)
    assert code == 3
    assert "verdict: refuted" in capsys.readouterr().out
    assert len(calls) == 20


def test_numerical_warnings_become_one_line_each(monkeypatch, capsys):
    import warnings

    import noc.cli
    from noc.errors import NocError

    def warns_then(outcome):
        def dispatch(args):
            warnings.warn("overflow encountered in multiply", RuntimeWarning)
            warnings.warn("overflow encountered in multiply", RuntimeWarning)
            if outcome is None:
                raise NocError("it failed")
            return outcome
        return dispatch

    monkeypatch.setattr(noc.cli, "_dispatch", warns_then(None))
    assert _check(["preset:ccs126"]) == 2
    assert capsys.readouterr().err == (
        "error: it failed (numerical warning: overflow encountered in "
        "multiply)\n")
    monkeypatch.setattr(noc.cli, "_dispatch", warns_then(0))
    assert _check(["preset:ccs126"]) == 0
    assert capsys.readouterr().err == (
        "warning: overflow encountered in multiply\n")


def test_unexpected_failure_exits_2_with_one_line(monkeypatch, capsys):
    import noc.cli

    def broken(pf, preset_name):
        raise RuntimeError("internal\nfailure")

    monkeypatch.setattr(noc.cli, "_run", broken)
    assert _check(["preset:ccs126"]) == 2
    err = capsys.readouterr().err
    assert err == "error: unexpected RuntimeError: internal failure\n"


def test_sweep_survives_a_failing_cell(capsys):
    code = main(["sweep", "preset:ccs126", "--grid", "100",
                 "--param", "T=0.2,0.0,0.4"])
    captured = capsys.readouterr()
    assert code == 2
    rows = captured.out.splitlines()[1:]
    assert len(rows) == 3
    assert [row.split(",")[1] for row in rows] == ["refuted", "error",
                                                   "refuted"]
    assert "horizon must be positive" in rows[1]
    assert captured.err.strip() == "error: 1 of 3 cells failed"


def test_inadmissible_direction_is_an_input_error(tmp_path, capsys):
    from noc.presets import preset_text
    text = preset_text("ccs126").replace("v 1 ; 0", "v 0 ; 1")
    assert _check([_write(tmp_path, "up.noc", text), "--grid", "100"]) == 2
    assert "increases along the direction" in capsys.readouterr().err


# ----------------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------------

def test_report_is_byte_identical_and_self_describing(tmp_path, capsys):
    r1, r2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert _check(["preset:ccs126", "--grid", "150", "--report", r1]) == 3
    assert _check(["preset:ccs126", "--grid", "150", "--report", r2]) == 3
    capsys.readouterr()
    b1, b2 = open(r1, "rb").read(), open(r2, "rb").read()
    assert b1 == b2

    report = json.loads(b1)
    assert report["verdict"] == "refuted"
    assert report["exit_code"] == 3
    # the echoed problem text re-parses to the problem that actually ran
    pf = parse_problem_file(report["problem"])
    assert pf.cells == 150 and pf.horizon == 0.5
    assert pf.param_dict() == {"theta": 3.0}
    digest = hashlib.sha256(report["problem"].encode()).hexdigest()
    assert report["digest"] == digest

    ray = report["multipliers"][0]
    np.testing.assert_allclose(ray["weights"], [-4 / 11, -1.0, 4 / 11],
                               atol=1e-9)
    assert ray["display"] == ["-4/11", "-1", "4/11"]
    terms = report["second_order"]["terms"]
    assert set(terms) == {"sigma_integral", "state_state", "state_control",
                          "control_control", "curvature", "start_start",
                          "start_end", "end_end"}
    assert abs(sum(terms.values()) - report["second_order"]["chosen_lhs"]) \
        < 1e-9

    # timing lives in a sibling file so the report itself stays stable
    timing = json.load(open(r1 + ".timing.json"))
    assert timing["elapsed_seconds"] > 0.0


def test_index_sets_reported_with_critical_rows(tmp_path, capsys):
    path = str(tmp_path / "r.json")
    assert _check(["preset:ccs126", "--grid", "100", "--report", path]) == 3
    capsys.readouterr()
    report = json.load(open(path))
    sets = report["index_sets"]
    assert sets["active"] == [0] and sets["inactive"] == []
    assert sets["critical"] == [0] and sets["relaxed"] == []
    np.testing.assert_allclose(
        report["direction"]["endpoint_rates"], [0.0], atol=1e-8)
    np.testing.assert_allclose(
        report["direction"]["equality_residuals"], [0.0, 0.0], atol=1e-8)


SPHERE_CHECK = """\
noc 1
kind ocp
chart {{
  type sphere
  radius {radius!r}
}}
grid {{
  cells 1000
  horizon 0.5
}}
start 0.0 0.0
dynamics {{
  u1
  1 + y1^2
}}
endpoint {{
  cost yT2
  equality y01
  equality y02
}}
control_set {{
  box -1 1
}}
control {{
  0
}}
direction {{
  v 1
}}
"""


@pytest.mark.parametrize("radius", [0.5, 1.0, 4.0])
def test_curvature_term_matches_its_closed_form(tmp_path, capsys, radius):
    """The curvature term of the sphere check, against its closed form.

    On the stereographic chart of the sphere of radius R the metric is
    g = 4R⁴/(R² + |y|²)²·δ and the curvature K = 1/R². Along the nominal
    y = (0, t) the direction's field is X = (t, 0), f = (0, 1), and the
    adjoint of the cost yT2 is p ≡ (0, −1). X and f are g-orthogonal, so
    R(X, f)X = −K·g(X, X)·f and

        ⟨p, R(X, f)X⟩ = K·g(X, X) = 4R²t²/(R² + t²)².

    The curvature term −½∫₀ᵀ⟨p, R(X, f)X⟩ dt is therefore
    −R·(arctan(T/R) − RT/(R² + T²)), and the whole form is −T³/3 at every
    radius (the flow is y₁ = εt, y₂(T) = T + ε²T³/3 whatever the metric).
    The trapezoid rule on N cells is O(h²), h = T/N.
    """
    T, N = 0.5, 1000
    h = T / N
    path = _write(tmp_path, "sphere.noc", SPHERE_CHECK.format(radius=radius))
    report = tmp_path / "report.json"
    assert _check([path, "--report", str(report)]) == 0
    assert "verdict: consistent" in capsys.readouterr().out
    data = json.loads(report.read_text())
    assert data["verdict"] == "consistent"
    second = data["second_order"]
    chosen, terms = second["chosen_lhs"], second["terms"]
    assert abs(chosen + T ** 3 / 3) <= 4 * h * h
    assert abs(sum(terms.values()) - chosen) <= 1e-12
    closed = -radius * (np.arctan(T / radius)
                        - radius * T / (radius ** 2 + T ** 2))
    assert abs(terms["curvature"] - closed) <= h * h


# ----------------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------------

def test_sweep_csv_matches_closed_form(tmp_path, capsys):
    out = str(tmp_path / "table.csv")
    code = main(["sweep", "preset:ccs126", "--grid", "200",
                 "--param", "T=0.1:0.7:4", "--param", "theta=2.5,3",
                 "--out", out])
    capsys.readouterr()
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "T,theta,verdict,lhs,notes"
    assert len(lines) == 9
    for line in lines[1:]:
        t_str, theta_str, verdict, lhs_str, note = line.split(",")
        t, theta, lhs = float(t_str), float(theta_str), float(lhs_str)
        assert verdict == "refuted"
        closed_form = t * (-t * t / 3 + 2.5 * t + theta - 2)
        assert abs(lhs - closed_form) < 1e-3
        assert note == ""


def test_sweep_compiles_once_and_each_cell_matches_a_check(
        monkeypatch, tmp_path, capsys):
    import noc.problemfile

    compiled = []
    original = noc.problemfile._compile_control_problem

    def counted(pf, values):
        compiled.append(dict(values))
        return original(pf, values)

    monkeypatch.setattr(noc.problemfile, "_compile_control_problem", counted)
    code = main(["sweep", "preset:ccs126", "--grid", "100",
                 "--param", "T=0.2,0.45", "--param", "theta=2.5,4"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert code == 0 and len(rows) == 4
    # compiled and probed once, at the first cell
    assert compiled == [{"theta": 2.5, "T": 0.2}]
    for row in rows:
        T, theta, verdict, lhs, _ = row.split(",")
        report = str(tmp_path / "r.json")
        assert _check(["preset:ccs126", "--grid", "100", "--set", f"T={T}",
                       "--set", f"theta={theta}", "--report", report]) == 3
        capsys.readouterr()
        with open(report) as fh:
            second = json.load(fh)["second_order"]
        assert verdict == "refuted"
        assert float(lhs) == second["chosen_lhs"]


@pytest.mark.parametrize("thetas", ["3,1e300,1e6", "1e6,1e300,3"])
def test_sweep_cells_do_not_depend_on_cell_order(tmp_path, capsys, thetas):
    # each row equals its own check, whether its cell is compiled or
    # rebound, and the large thetas lie (theta - 3)/2 above theta = 3
    import csv

    assert main(["sweep", "preset:ccs126", "--grid", "100", "--param",
                 f"theta={thetas}"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
    assert len(rows) == 3
    lhs = {}
    for theta, verdict, value, notes in rows:
        code, want = _theta_check(tmp_path, theta)
        capsys.readouterr()
        assert (code, verdict, notes) == (3, "refuted", "")
        assert float(value) == want
        lhs[float(theta)] = want
    for theta in (1e6, 1e300):
        assert lhs[theta] - lhs[3.0] == pytest.approx((theta - 3.0) / 2.0, rel=1e-9)


@pytest.mark.parametrize("grid, times, chains", [
    ("400", "T=0.1:0.7:13", 2),     # the benchmark sweep: 39 cells
    ("20", "T=0.1:0.7:35", 4),      # 105 cells, stacked as 64 and 41
])
def test_a_sweep_runs_one_stacked_chain_per_pass(monkeypatch, capsys, grid,
                                                 times, chains):
    # cells of one grid size: the variational and adjoint passes of every
    # cell of a stack run as two chains, not two per cell
    import collections

    import noc.dynamics

    counts = collections.Counter()
    _count_calls(monkeypatch, noc.dynamics, "_chain", counts)
    assert main(["sweep", "preset:ccs126", "--grid", grid, "--param", times,
                 "--param", "theta=2.5,3,4"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 3 * int(times.split(":")[-1])
    assert all(",refuted," in row for row in rows)
    assert counts["_chain"] == chains


def test_each_sweep_row_matches_its_own_check(capsys):
    # rows that fail keep the message of their own check (less the numerical
    # warning it names, which the sweep prints once on stderr at the end)
    import csv

    code = main(["sweep", "preset:ccs126", "--grid", "50", "--param",
                 "T=0.1,1e300,0.5", "--param", "theta=3,nan"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ("error: 4 of 6 cells failed\n"
                            "warning: overflow encountered in scalar power\n")
    rows = list(csv.reader(captured.out.splitlines()))[1:]
    assert [row[2] for row in rows] == ["refuted", "error", "error", "error",
                                        "refuted", "error"]
    for T, theta, verdict, lhs, notes in rows:
        code = _check(["preset:ccs126", "--grid", "50", "--set", f"T={T}",
                       "--set", f"theta={theta}"])
        out, err = capsys.readouterr()
        if verdict == "error":
            assert code == 2
            message = err.splitlines()[0].removeprefix("error: ")
            assert message.split(" (numerical warning: ")[0] == notes
        else:
            assert code == VERDICT_EXIT[verdict]
            assert f"verdict: {verdict}" in out.splitlines()
            assert f"second-order value: {lhs}" in out.splitlines()
            assert notes == "; ".join(line.removeprefix("note: ")
                                      for line in out.splitlines()
                                      if line.startswith("note: "))


@pytest.mark.parametrize("problem, times", [
    ("docs/conformance/valid/sphere-drift.noc", "T=0.2,0.3,0.4"),  # curved chart
    ("preset:linear-lq-euclid", "T=0.5,1,2"),
])
def test_sweep_rows_with_distinct_rows_match_their_own_checks(capsys, problem,
                                                              times):
    # the controls or directions differ per cell and per point, so the
    # points of these sweeps share few rows of the per-row cone work
    import csv

    assert main(["sweep", problem, "--grid", "50", "--param", times]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
    assert len(rows) == 3
    for T, verdict, lhs, notes in rows:
        code = _check([problem, "--grid", "50", "--set", f"T={T}"])
        out = capsys.readouterr().out.splitlines()
        assert code == VERDICT_EXIT[verdict]
        assert f"verdict: {verdict}" in out
        assert (f"second-order value: {lhs}" in out) == bool(lhs)
        assert notes == "; ".join(line.removeprefix("note: ")
                                  for line in out if line.startswith("note: "))


_SWEEP_39 = ["sweep", "preset:ccs126", "--grid", "400", "--param",
             "T=0.1:0.7:13", "--param", "theta=2.5,3,4"]


def test_a_sweep_does_its_per_row_cone_work_once(monkeypatch, capsys):
    # the 39 points share the control set and its one (control, direction)
    # row: each cone routine computes once per sweep, not once per point,
    # and the second-order membership once per acceleration candidate
    import collections

    import noc.cones

    routines = ("adjacent_cone_member", "tangent_cone_vrep",
                "second_adjacent_member", "second_cone_vrep", "contains",
                "_ladder_bound")
    counts = collections.Counter()
    for routine in routines:
        _count_calls(monkeypatch, noc.cones, routine, counts)
    assert main(_SWEEP_39) == 0
    assert len(capsys.readouterr().out.splitlines()) == 40
    assert counts == {routine: 1 for routine in routines} | {
        "second_adjacent_member": 4}


def test_a_sweep_draws_compiles_and_classifies_once(monkeypatch, capsys):
    # the validation draws and the control and direction tables once per
    # sweep; the active sets once per point
    import collections

    import noc.conditions
    import noc.dynamics
    import noc.expr

    counts = collections.Counter()
    for name in ("_unit_probe_points", "_point_pairs"):
        _count_calls(monkeypatch, noc.dynamics, name, counts)
    _count_calls(monkeypatch, noc.conditions, "active_sets", counts)
    compile_expr = noc.expr.compile_expr
    tables = []

    def compiled(node, varnames):
        if varnames[0] == "t":          # an expression of a table
            tables.append(varnames)
        return compile_expr(node, varnames)

    monkeypatch.setattr(noc.expr, "compile_expr", compiled)
    assert main(_SWEEP_39) == 0
    capsys.readouterr()
    assert counts == {"_unit_probe_points": 1, "_point_pairs": 1,
                      "active_sets": 39}
    # the controls 0, -1 and the direction 1, 0: three distinct texts
    assert tables == [("t", "theta", "T")] * 3


def test_a_sphere_check_takes_christoffel_symbols_once_per_endpoint(
        monkeypatch, capsys):
    # the three unit multiplier slots share the symbols at the two
    # endpoints; the jet takes them at every node in one more call
    import collections

    import noc.geometry

    counts = collections.Counter()
    _count_calls(monkeypatch, noc.geometry, "christoffel", counts)
    sphere = Path(__file__).resolve().parent.parent / "perfbench" / "sphere.noc"
    assert _check([str(sphere)]) == 0
    assert "verdict: consistent" in capsys.readouterr().out
    assert counts == {"christoffel": 3}


@pytest.mark.parametrize("name", ["op-parabola.noc", "op-disc.noc"])
def test_an_op_check_builds_one_candidate_record(monkeypatch, capsys, name):
    # the point step (with validate_expansion) and the direction step run
    # once each; the first- and second-order tests and the separation all
    # read that one record
    import collections

    import noc.optproblem

    counts = collections.Counter()
    for step in ("_point_step", "validate_expansion", "_direction_step"):
        _count_calls(monkeypatch, noc.optproblem, step, counts)
    assert _check([f"docs/conformance/valid/{name}"]) in (0, 3)
    assert "separation skipped" not in capsys.readouterr().out
    assert counts == {"_point_step": 1, "validate_expansion": 1,
                      "_direction_step": 1}


@pytest.mark.parametrize("args, rays, note", [
    (["op-disc.noc"], [],
     "separator enumeration returned an empty cone but the LP route reaches "
     "coordinate magnitude 1.000e+00"),
    (["op-parabola.noc", "--tol", "qualify=1.5"],
     [MultiplierVector(weights=np.array([-1.0, 1.0]))],
     "separator enumeration found a ray but the LP route certifies the cone "
     "is trivial"),
], ids=["empty-enumeration", "spurious-ray"])
def test_the_lp_route_catches_a_wrong_separator_enumeration(
        monkeypatch, capsys, args, rays, note):
    # op-disc's separator cone is the ray (-1), op-parabola's is trivial;
    # an enumeration that says otherwise inside build_separation alone (the
    # first- and second-order tests enumerate for real) is caught by the
    # simplex cross-check, and the separation is skipped with a note
    import noc.optproblem

    separation = noc.optproblem.build_separation

    def misenumerated(*a, **kw):
        with monkeypatch.context() as patch:
            patch.setattr(noc.optproblem, "enumerate_normalized_rays",
                          lambda A_le, A_eq, dim: rays)
            return separation(*a, **kw)

    monkeypatch.setattr(noc.optproblem, "build_separation", misenumerated)
    path = f"docs/conformance/valid/{args[0]}"
    assert _check([path] + args[1:]) == 0
    assert f"note: separation skipped: {note}" in \
        capsys.readouterr().out.splitlines()


def test_a_nan_stationarity_residual_is_inconclusive(monkeypatch, capsys):
    import noc.conditions

    def nan_residuals(mjet, direction, W):
        return np.full(W.shape[1], np.nan)

    monkeypatch.setattr(noc.conditions, "_stationarity", nan_residuals)
    assert _check(["preset:linear-lq-euclid"]) == VERDICT_EXIT["inconclusive"]
    out = capsys.readouterr().out.splitlines()
    assert "verdict: inconclusive" in out
    notes = [line for line in out if line.startswith("note: stationarity")]
    assert len(notes) == 1
    assert notes[0].startswith("note: stationarity residual nan for ray [")
    assert notes[0].endswith("is not finite; no verdict")


def test_a_non_finite_form_value_is_noted(monkeypatch, tmp_path, capsys):
    # sphere.noc has three acceleration candidates of equal value; a -inf
    # planted at the first one's entry moves the max-min to the second,
    # which keeps the verdict, and the report names the dropped entry
    import noc.conditions

    form_values = noc.conditions._form_values

    def planted(*args):
        lhs, values = form_values(*args)
        lhs = lhs.copy()
        lhs[0, 0] = -np.inf
        return lhs, values

    monkeypatch.setattr(noc.conditions, "_form_values", planted)
    sphere = Path(__file__).resolve().parent.parent / "perfbench" / "sphere.noc"
    report = tmp_path / "report.json"
    assert _check([str(sphere), "--report", str(report)]) == VERDICT_EXIT["consistent"]
    out = capsys.readouterr().out.splitlines()
    assert "verdict: consistent" in out
    notes = [line for line in out if line.startswith("note: form value")]
    assert notes == ["note: form value -inf of acceleration candidate 0 against "
                     "ray [-1.0, 0.0, 1.0] is not finite (1 of 1 rays)"]
    second = json.loads(report.read_text())["second_order"]
    assert second["lhs"][0] == [None]
    assert second["chosen"] == [1, 0]


def test_sweep_warnings_come_in_the_order_of_cells_run_one_by_one(
        monkeypatch, capsys):
    # the first cell warns in its last stage, after the stacked passes, and
    # the second in its first; stderr lists them as a cell-by-cell run would
    import warnings

    import noc.conditions
    import noc.dynamics

    def warning_at(module, name, horizon, message):
        fn = getattr(module, name)

        def warns(problem, *args, **kwargs):
            if problem.horizon == horizon:
                warnings.warn(message, RuntimeWarning)
            return fn(problem, *args, **kwargs)

        monkeypatch.setattr(module, name, warns)

    warning_at(noc.conditions, "trajectory_jet", 0.2, "late in the first cell")
    warning_at(noc.dynamics, "integrate_state", 0.4, "early in the second cell")
    assert main(["sweep", "preset:ccs126", "--grid", "50",
                 "--param", "T=0.2,0.4"]) == 0
    assert capsys.readouterr().err == ("warning: late in the first cell\n"
                                       "warning: early in the second cell\n")


def test_sweep_single_point_emits_one_row(capsys):
    code = main(["sweep", "preset:ccs126", "--grid", "100",
                 "--param", "T=0.5"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "T,verdict,lhs,notes"
    assert len(lines) == 2 and lines[1].startswith("0.5,refuted,")


def test_sweep_flags_hypothesis_rows(capsys):
    code = main(["sweep", "preset:ccs126", "--grid", "100",
                 "--param", "theta=2,3"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert "hypothesis violation theta>2" in lines[1]
    assert lines[2].endswith(",")  # theta=3 row carries no note


def test_sweep_rejects_bad_specs(capsys):
    assert main(["sweep", "preset:ccs126", "--param", "T=1:2"]) == 2
    assert main(["sweep", "preset:ccs126", "--param", "T"]) == 2
    assert main(["sweep", "preset:ccs126", "--param", "T=a,b"]) == 2
    capsys.readouterr()


# ----------------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------------

def test_oracle_cone_memberships(capsys):
    assert main(["oracle", "cone", "ball 0 0 1", "0 -1", "1 0"]) == 0
    assert "verdict: member" in capsys.readouterr().out
    assert main(["oracle", "cone", "box -1 -1 1 1", "1 0", "1 0"]) == 3
    assert "verdict: non-member" in capsys.readouterr().out
    # second-order query: the curvature-compensating term is admissible
    assert main(["oracle", "cone", "ball 0 0 1", "0 -1", "1 0", "0 0.5"]) == 0
    out = capsys.readouterr().out
    assert "order: 2" in out
    assert main(["oracle", "cone", "ball 0 0 1", "5 0", "1 0"]) == 2
    assert "outside the set" in capsys.readouterr().err
    assert main(["oracle", "cone", "polyhedron ; row -1 0 0 ; row 0 -1 0",
                 "0 0", "1 1"]) == 0
    capsys.readouterr()


def test_a_non_finite_polyhedron_row_exits_2_with_one_line(capsys):
    assert main(["oracle", "cone", "polyhedron ; row nan 1", "0", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: polyhedron rows must be finite\n"


@pytest.mark.parametrize("ball, message", [
    ("ball nan 0 1", "ball center must be finite"),
    ("ball 0 0 inf", "ball radius must be finite")],
    ids=["nan-center", "inf-radius"])
def test_a_non_finite_ball_exits_2_with_one_line(capsys, ball, message):
    assert main(["oracle", "cone", ball, "0 0", "1 0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_a_grid_search_over_an_unbounded_polyhedron_exits_2_with_one_line(
        tmp_path, capsys):
    quadrant = ("noc 1\nkind op\ndim 2\ndomain {\n  polyhedron\n"
                "  row -1.0 0.0 0.0\n  row 0.0 -1.0 0.0\n}\n"
                "point 0.0 0.0\ncost x1 + x2\nresolution 0.01\n")
    assert _check([_write(tmp_path, "quadrant.noc", quadrant)]) == 2
    assert capsys.readouterr().err == ("error: base set is unbounded; the grid "
                                       "oracle needs a bounded set\n")


# ----------------------------------------------------------------------------
# installed entry point
# ----------------------------------------------------------------------------

def test_subprocess_carries_exit_code(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "noc", "check", "preset:ccs126",
         "--grid", "120"],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert "verdict: refuted" in proc.stdout
    assert "Traceback" not in proc.stderr
    proc = subprocess.run([sys.executable, "-m", "noc", "check",
                           str(tmp_path / "missing.noc")],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_control_checks_leave_scipy_unloaded():
    # no linear program of the package needs SciPy, so no control check may
    # import it
    code = (
        "import sys\n"
        "import noc.cli\n"
        "assert 'scipy' not in sys.modules, 'import noc.cli'\n"
        "for name in ('ccs126', 'linear-lq-euclid'):\n"
        "    assert noc.cli.main(['check', 'preset:' + name, '--grid', '100'])"
        " in (0, 3)\n"
        "    assert 'scipy' not in sys.modules, name\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def test_op_checks_leave_scipy_unloaded():
    # every linear program of an op check, polyhedron sets included, is a
    # NumPy simplex
    runs = (["op-disc.noc"], ["op-parabola.noc"],
            ["op-parabola.noc", "--tol", "qualify=1.5"],
            ["op-halfspace-box.noc"], ["ocp-rows-direction.noc"],
            ["op-triangle.noc"])
    code = ("import sys\n"
            "import noc.cli\n"
            f"for args in {runs!r}:\n"
            "    path = 'docs/conformance/valid/' + args[0]\n"
            "    assert noc.cli.main(['check', path] + args[1:]) in (0, 3)\n"
            "    assert 'scipy' not in sys.modules, args\n"
            "assert noc.cli.main(['oracle', 'cone', "
            "'polyhedron ; row -1 0 0 ; row 0 -1 0', '0 0', '1 1']) == 0\n"
            "assert 'scipy' not in sys.modules, 'oracle cone'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=Path(__file__).resolve().parent.parent)
    assert proc.returncode == 0, proc.stderr


_CONTROL_STACK = ("noc.conditions", "noc.dynamics", "noc.geometry")
# draws come from noc.draws and the digest from the interpreter's own
# SHA-256, so no command loads numpy.random or OpenSSL
_OPENSSL = ("numpy.random", "hashlib", "_hashlib", "secrets")


@pytest.mark.parametrize("argv, loaded, unloaded", [
    (["check", "docs/conformance/valid/op-parabola.noc"], ("noc.optproblem",),
     _CONTROL_STACK),
    (["check", "docs/conformance/valid/op-disc.noc", "--report", "{tmp}"],
     ("noc.optproblem",), _CONTROL_STACK + _OPENSSL),
    (["check", "preset:ccs126", "--grid", "50"], _CONTROL_STACK,
     ("noc.optproblem",) + _OPENSSL),
    (["sweep", "preset:ccs126", "--grid", "50", "--param", "T=0.3,0.5"],
     _CONTROL_STACK, ("noc.optproblem",) + _OPENSSL),
    (["oracle", "cone", "ball 0 0 1", "0 -1", "1 0"], ("noc.cones",),
     _CONTROL_STACK + ("noc.optproblem",) + _OPENSSL),
], ids=["op-check", "op-check-report", "control-check", "sweep", "oracle"])
def test_each_command_loads_only_its_own_stack(tmp_path, argv, loaded, unloaded):
    argv = [a.format(tmp=tmp_path / "report.json") for a in argv]
    code = ("import sys\n"
            "import noc.cli\n"
            f"noc.cli.main({argv!r})\n"
            "print(' '.join(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=Path(__file__).resolve().parent.parent)
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stdout.splitlines()[-1].split())
    assert set(loaded) <= modules
    assert not set(unloaded) & modules
