"""Problem-file format tests: parsing, validation, canonical round-trips,
and the builders that turn parsed files into runnable problems."""
from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from noc.cones import Ball, Box, Polyhedron, ProductSet, set_dim
from noc.errors import ProblemFileError
from noc.presets import PRESET_NAMES, load_preset, preset_notes, preset_text
from noc.problemfile import (ControlModel, build_control_problem,
                             build_direction_arrays,
                             build_nominal_controls, build_opt_problem,
                             parse_problem_file, parse_set_inline,
                             serialize_problem_file)

# ----------------------------------------------------------------------------
# fixtures: representative files exercising every block
# ----------------------------------------------------------------------------

OP_FULL = """\
# a fully decorated finite-dimensional instance
noc 1
kind op
dim 2
param a 0.25
domain {
  product {
    factor {
      box -1.0 1.0
    }
    factor {
      ball 0.0 1.5   # trailing comment
    }
  }
}
point 0.0 0.0
cost x1 + a*x2
inequality x2 - 1.0
equality x2 + -1.0*x1^2
direction {
  y 1.0 0.0
}
resolution 0.125
tolerances {
  activity 1e-7
  qualify 1e-8
}
"""

OCP_ROWS = """\
noc 1
kind ocp
chart {
  type euclidean
  dim 1
}
grid {
  cells 4
  horizon 2.0
}
start 0.0
dynamics {
  u1
}
endpoint {
  cost yT1
  inequality y01 - 1.0
}
control_set {
  polyhedron
  row -1.0 0.0
  row 1.0 1.0
}
control {
  0.5
}
direction {
  rows {
    1.0
    -1.0
    1.0
    -1.0
  }
  start_rate 0.0
  sigma 0.25
  w 0.5
}
"""


# ----------------------------------------------------------------------------
# parsing and canonical round-trips
# ----------------------------------------------------------------------------

def test_presets_parse_and_roundtrip():
    assert PRESET_NAMES == ("ccs126", "linear-lq-euclid")
    for name in PRESET_NAMES:
        pf = load_preset(name)
        text = serialize_problem_file(pf)
        again = parse_problem_file(text)
        assert again == pf
        assert serialize_problem_file(again) == text
        assert pf.digest() == hashlib.sha256(text.encode()).hexdigest()


def test_full_op_file_roundtrip():
    pf = parse_problem_file(OP_FULL)
    assert pf.kind == "op"
    assert pf.dim == 2
    assert pf.params == (("a", 0.25),)
    assert pf.domain == ProductSet((Box(lower=(-1.0,), upper=(1.0,)),
                                    Ball(center=(0.0,), radius=1.5)))
    assert pf.inequality_texts == ("x2 - 1.0",)
    assert pf.equality_texts == ("x2 + -1.0*x1^2",)
    assert pf.direction.y == (1.0, 0.0)
    assert pf.resolution == 0.125
    assert pf.tolerance_dict() == {"activity": 1e-7, "qualify": 1e-8}
    assert parse_problem_file(serialize_problem_file(pf)) == pf


def test_rows_direction_file_roundtrip():
    pf = parse_problem_file(OCP_ROWS)
    assert pf.control_set == Polyhedron(A=((-1.0,), (1.0,)), b=(0.0, 1.0))
    d = pf.direction
    assert d.rows == ((1.0,), (-1.0,), (1.0,), (-1.0,))
    assert d.start_rate == (0.0,)
    assert d.sigmas == ((0.25,),)
    assert d.ws == ((0.5,),)
    assert parse_problem_file(serialize_problem_file(pf)) == pf


def test_comments_and_blank_lines_ignored():
    text = preset_text("ccs126")
    noisy = "\n# leading comment\n\n" + text.replace(
        "kind ocp", "kind ocp   # the trajectory kind")
    assert parse_problem_file(noisy) == parse_problem_file(text)


def test_with_param_and_horizon_override():
    pf = load_preset("ccs126")
    assert pf.param_dict() == {"theta": 3.0}
    assert pf.with_param("theta", 4.0).param_dict() == {"theta": 4.0}
    assert pf.with_param("T", 0.25).horizon == 0.25
    assert pf.with_param("horizon", 0.25).horizon == 0.25
    with pytest.raises(ProblemFileError, match="unknown parameter"):
        pf.with_param("gamma", 1.0)


# ----------------------------------------------------------------------------
# diagnostics: every malformed input names the offending field
# ----------------------------------------------------------------------------

BAD_CASES = [
    ("", "empty problem file"),
    ("kind ocp\n", "must start with 'noc"),
    ("noc 2\nkind op\n", "unsupported schema version"),
    ("noc 1\n", "missing 'kind'"),
    ("noc 1\nkind foo\n", "kind: expected one of"),
    ("noc 1\nkind op\ndim 2\n}\n", "unmatched '}'"),
    ("noc 1\nkind op\ndim 2\ndomain {\n  ball 0 0 1\n", "end of file"),
    ("noc 1\nkind op\nwhatever 3\n", "unknown directive 'whatever'"),
    ("noc 1\nkind op\ndim 2\ndim 3\n", "duplicate 'dim'"),
    ("noc 1\nkind op\ndim 2\n", "missing required field 'domain'"),
    ("noc 1\nkind op\ndim 0\ndomain {\n ball 0 1\n}\npoint 0\ncost x1\n",
     "dim must be positive"),
]


@pytest.mark.parametrize("text,fragment", BAD_CASES)
def test_malformed_headers(text, fragment):
    with pytest.raises(ProblemFileError, match=fragment):
        parse_problem_file(text)


def _edit(base: str, old: str, new: str) -> str:
    assert old in base
    return base.replace(old, new)


def test_malformed_blocks_point_at_fields():
    ccs = preset_text("ccs126")
    cases = [
        (_edit(ccs, "  ball 0.0 0.0 1.0", "  ball 0.0 0.0"),
     "control_set: ball radius"),
        (_edit(ccs, "  ball 0.0 0.0 1.0", "  disk 0.0 0.0 1.0"),
         "unknown set kind 'disk'"),
        (_edit(ccs, "  type euclidean", "  type torus"), "chart.type"),
        (_edit(ccs, "  cells 1000", "  cells many"), "grid.cells"),
        (_edit(ccs, "param theta 3.0", "param u1 3.0"), "reserved"),
        (_edit(ccs, "param theta 3.0", "param theta x"), "must be a number"),
        (_edit(ccs, "start 1.0 0.0", "start 1.0"), "expected 2 coordinates"),
        (_edit(ccs, "  u2\n", ""), "dynamics: expected 2 expressions"),
        (_edit(ccs, "  cost yT2", "  price yT2"), "endpoint: unknown key"),
        (_edit(ccs, "  cost yT2\n", ""), "endpoint: missing cost"),
        (_edit(ccs, "  v 1 ; 0", "  v 1"), "direction.v: expected 2"),
        (_edit(ccs, "  v 1 ; 0", "  v 1 ; 0\n  rows {\n    1.0 0.0\n  }"),
         "exactly one of 'v' or 'rows'"),
        (_edit(ccs, "  v 1 ; 0", "  y 1.0 0.0"), "kind 'op'"),
        (ccs + "tolerances {\n  fuzz 1.0\n}\n", "unknown key 'fuzz'"),
        (ccs + "resolution 0.1\n", "does not apply"),
        (_edit(ccs, "  v 1 ; 0", "  rows {\n    1.0 0.0\n  }\n"
                                 "  rows {\n    1.0 0.0\n  }"),
         "direction: duplicate 'rows'"),
        (_edit(ccs, "  v 1 ; 0", "  v 1 ; 0\n  start_rate 0 0\n"
                                 "  start_rate 1 0"),
         "direction: duplicate 'start_rate'"),
        (_edit(ccs, "  v 1 ; 0", "  v 1 ; 0\n  y 1.0\n  y 1.0"),
         "direction: duplicate 'y'"),
        (_edit(ccs, "  dim 2", "  dim 2\n  dim 3"), "chart: duplicate 'dim'"),
        (_edit(ccs, "  dim 2", "  dim 2\n  dim {\n  }"),
         "chart: expected 'key value' lines"),
        (ccs + "tolerances {\n  margin 1e-6\n  margin 1e-3\n}\n",
         "tolerances: duplicate 'margin'"),
    ]
    for text, fragment in cases:
        with pytest.raises(ProblemFileError, match=fragment):
            parse_problem_file(text)


def test_malformed_op_fields():
    cases = [
        (_edit(OP_FULL, "point 0.0 0.0", "point 0.0"),
         "point: expected 2 coordinates"),
        (_edit(OP_FULL, "  y 1.0 0.0", "  y 1.0"), "direction.y: expected 2"),
        (_edit(OP_FULL, "resolution 0.125", "resolution -1.0"),
         "resolution must be positive"),
        (_edit(OP_FULL, "dim 2", "dim 3"), "set dimension differs"),
        (_edit(OP_FULL, "  y 1.0 0.0", "  v 1 ; 0"), "single 'y' line"),
    ]
    for text, fragment in cases:
        with pytest.raises(ProblemFileError, match=fragment):
            parse_problem_file(text)


def test_ragged_polyhedron_and_rows_rejected():
    with pytest.raises(ProblemFileError, match="equal length"):
        parse_problem_file(_edit(OCP_ROWS, "  row 1.0 1.0",
                                 "  row 1.0 1.0 1.0"))
    with pytest.raises(ProblemFileError, match="expected 4 rows"):
        parse_problem_file(_edit(OCP_ROWS, "    1.0\n    -1.0\n    1.0\n"
                                           "    -1.0", "    1.0\n    -1.0"))


def test_ocpe_requires_running_cost_and_end():
    lq = preset_text("linear-lq-euclid")
    with pytest.raises(ProblemFileError, match="'running_cost'"):
        parse_problem_file(_edit(lq, "running_cost 0.5*u1^2\n", ""))
    with pytest.raises(ProblemFileError, match="'end'"):
        parse_problem_file(_edit(lq, "end 1.0\n", ""))
    with pytest.raises(ProblemFileError, match="augmentation"):
        parse_problem_file(lq + "inequality y01\n")


# ----------------------------------------------------------------------------
# convex sets
# ----------------------------------------------------------------------------

def _op_file(set_lines: str, dim: int) -> str:
    """An op file whose domain block holds ``set_lines``."""
    return (f"noc 1\nkind op\ndim {dim}\ndomain {{\n{set_lines}\n}}\n"
            f"point {' '.join(['0.0'] * dim)}\ncost x1\n")


def test_parsing_builds_each_set_kind():
    assert parse_set_inline("ball 0 0 2") == Ball(center=(0.0, 0.0),
                                                  radius=2.0)
    assert parse_set_inline("box -1 1") == Box(lower=(-1.0,), upper=(1.0,))
    poly = parse_set_inline("polyhedron ; row -1 0 0 ; row 0 -1 0")
    assert isinstance(poly, Polyhedron) and len(poly.A) == 2
    prod = parse_problem_file(_op_file(
        "product {\nfactor {\nbox 0 1\n}\nfactor {\nball 0 0 1\n}\n}",
        3)).domain
    assert isinstance(prod, ProductSet) and set_dim(prod) == 3


def test_parse_set_inline_forms():
    assert parse_set_inline("ball 0 0 1") == Ball(center=(0.0, 0.0),
                                                  radius=1.0)
    poly = parse_set_inline("polyhedron ; row -1 0 0 ; row 0 -1 0")
    assert poly == Polyhedron(A=((-1.0, 0.0), (0.0, -1.0)), b=(0.0, 0.0))
    with pytest.raises(ProblemFileError, match="unknown set kind"):
        parse_set_inline("simplex 1 2 3")
    with pytest.raises(ProblemFileError, match="empty set"):
        parse_set_inline(" ; ")


# each kind's domain block in canonical form, its dimension and, but for the
# product, the same set written inline
SET_CASES = {
    "ball": ("  ball -0.0 0.5 2.0", 2, "ball -0 0.5 2"),
    "box": ("  box -inf 0.0 inf 1.0", 2, "box -inf 0 inf 1"),
    "polyhedron": ("  polyhedron\n  row -1.0 0.0 0.0\n  row 0.0 -1.0 -0.0", 2,
                   "polyhedron ; row -1 0 0 ; row 0 -1 -0"),
    "product": ("  product {\n    factor {\n      box -1.0 1.0\n    }\n"
                "    factor {\n      polyhedron\n      row 1.0 -1.0 0.5\n"
                "    }\n  }", 3, None),
}


@pytest.mark.parametrize("block,dim,inline", SET_CASES.values(),
                         ids=SET_CASES)
def test_each_set_kind_round_trips(block, dim, inline):
    text = _op_file(block, dim)
    pf = parse_problem_file(text)
    assert serialize_problem_file(pf) == text
    assert parse_problem_file(text).domain == pf.domain
    if inline is not None:
        U = parse_set_inline(inline)
        assert U == pf.domain
        assert serialize_problem_file(replace(pf, domain=U)) == text


# ----------------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------------

def test_nominal_controls_sampled_at_midpoints():
    pf = load_preset("ccs126").with_param("T", 0.4)
    controls = build_nominal_controls(pf)
    assert controls.shape == (1000, 2)
    np.testing.assert_allclose(controls[:, 0], 0.0)
    np.testing.assert_allclose(controls[:, 1], -1.0)


def test_direction_expressions_see_time_and_horizon():
    pf = load_preset("linear-lq-euclid").with_param("T", 2.0)
    v, start_rate, sigmas, ws, m = build_direction_arrays(pf)
    assert m == 1 and v.shape == (200, 1)
    h = 2.0 / 200
    t_mid = (np.arange(200) + 0.5) * h
    np.testing.assert_allclose(v[:, 0], np.cos(2 * np.pi * t_mid / 2.0),
                               atol=1e-12)
    # the augmented problem carries the cost accumulator as an extra state
    assert start_rate.shape == (2,)
    np.testing.assert_allclose(start_rate, 0.0)
    assert sigmas == [] and ws == []


def test_direction_rows_and_extras_pass_through():
    pf = parse_problem_file(OCP_ROWS)
    v, start_rate, sigmas, ws, m = build_direction_arrays(pf)
    np.testing.assert_allclose(v[:, 0], [1.0, -1.0, 1.0, -1.0])
    np.testing.assert_allclose(start_rate, [0.0])
    assert len(sigmas) == 1 and sigmas[0].shape == (4, 1)
    np.testing.assert_allclose(sigmas[0], 0.25)
    assert len(ws) == 1
    np.testing.assert_allclose(ws[0], [0.5])


def test_param_substitution_reaches_dynamics():
    pf = load_preset("ccs126").with_param("theta", 5.0)
    problem = build_control_problem(pf)
    # f2 = -y1^2 + 4 y1 u2 - theta u1^2 at y=(1,0), u=(1,0) is -1 - theta
    rate = problem.dynamics.rhs(0.0, np.array([1.0, 0.0]),
                                np.array([1.0, 0.0]))
    np.testing.assert_allclose(rate, [0.0, -6.0], atol=1e-12)


@pytest.mark.parametrize("name, changes", [
    ("ccs126", {"theta": 5.0, "T": 0.25}),
    ("linear-lq-euclid", {"pi": 3.0, "T": 2.0}),
])
def test_control_model_rebinds_to_a_fresh_build(name, changes):
    # one model compiled at the preset's values serves other values: the
    # rebound problem evaluates exactly like a fresh build at them
    base = load_preset(name)
    other = base
    for key, value in changes.items():
        other = other.with_param(key, value)
    model = ControlModel()
    model.problem(base)
    rebound, fresh = model.problem(other), build_control_problem(other)
    assert rebound.horizon == fresh.horizon == changes["T"]
    n, m = rebound.state_dim, rebound.control_dim
    rng = np.random.default_rng(11)
    t, y, u = rng.uniform(size=3), rng.normal(size=(3, n)), rng.normal(size=(3, m))
    for got, want in zip(rebound.dynamics.blocks_many(t, y, u),
                         fresh.dynamics.blocks_many(t, y, u)):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(rebound.endpoint_maps, fresh.endpoint_maps):
        assert got.value(y[0], y[1]) == want.value(y[0], y[1])
    with pytest.raises(ValueError, match="differs from the compiled one"):
        model.problem(replace(base, start=(0.5,) * len(base.start)))


def test_param_named_pi_shadows_the_constant():
    pf = load_preset("linear-lq-euclid").with_param("pi", 3.0)
    v, _, _, _, _ = build_direction_arrays(pf)
    t_mid = (np.arange(pf.cells) + 0.5) * pf.horizon / pf.cells
    np.testing.assert_allclose(v[:, 0], np.cos(2 * 3.0 * t_mid / pf.horizon),
                               rtol=0, atol=1e-15)


def test_build_opt_problem_rows_and_domain():
    pf = parse_problem_file(OP_FULL)
    problem = build_opt_problem(pf)
    assert problem.dim == 2
    assert problem.num_inequalities == 1 and problem.num_equalities == 1
    e = np.array([0.5, 0.25])
    # cost = x1 + a x2 with a = 0.25
    assert abs(problem.cost.value(e) - 0.5625) < 1e-12
    np.testing.assert_allclose(problem.cost.grad(e), [1.0, 0.25], atol=1e-12)
    # equality row x2 - x1^2 has gradient (-2 x1, 1)
    np.testing.assert_allclose(problem.equalities[0].grad(e), [-1.0, 1.0],
                               atol=1e-12)


def test_preset_notes_flag_hypothesis_boundaries():
    pf = load_preset("ccs126")
    assert preset_notes("ccs126", pf) == []
    assert preset_notes(None, pf) == []
    low = pf.with_param("theta", 2.0)
    notes = preset_notes("ccs126", low)
    assert len(notes) == 1 and "theta>2" in notes[0]
    long_t = pf.with_param("T", 0.8)
    notes = preset_notes("ccs126", long_t)
    assert len(notes) == 1 and "3-sqrt(5)" in notes[0]
    with pytest.raises(ProblemFileError, match="unknown preset"):
        preset_text("nope")
