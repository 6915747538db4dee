"""Shared example control problems for the test suite."""
from __future__ import annotations

import numpy as np

from noc.cones import Ball, Box
from noc.dynamics import (dynamics_from_expressions, endpoint_from_expressions,
                          make_problem)
from noc.geometry import euclidean, sphere


def _linear_text(terms) -> str:
    """The sum of the (coefficient, variable) terms with a nonzero
    coefficient, each coefficient written as its exact repr; "0.0" when
    none is."""
    return " + ".join(f"{c!r}*{v}" if v else repr(c) for c, v in terms if c) or "0.0"


def linear_endpoint(weights_start, weights_end, offset: float = 0.0,
                    label: str = "linear-endpoint"):
    """g(y0, yT) = w1 . y0 + w2 . yT + offset with exact derivatives."""
    w1 = [float(w) for w in weights_start]
    w2 = [float(w) for w in weights_end]
    terms = ([(w, f"y0{i + 1}") for i, w in enumerate(w1)]
             + [(w, f"yT{i + 1}") for i, w in enumerate(w2)] + [(float(offset), "")])
    return endpoint_from_expressions(_linear_text(terms), len(w1), label=label)


def linear_dynamics(A, B, label: str = "linear"):
    """ydot = A y + B u as an expression model."""
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    n, m = B.shape
    texts = [_linear_text([(float(a), f"y{i + 1}") for i, a in enumerate(A[k])]
                          + [(float(b), f"u{j + 1}") for j, b in enumerate(B[k])])
             for k in range(n)]
    return dynamics_from_expressions(texts, n, m, label=label)


def make_ccs126(horizon: float = 0.5, theta: float = 3.0, validate: bool = True):
    """The bundled planar counterexample problem.

    Minimize the terminal second coordinate subject to the start pinned at
    (1, 0) and controls in the closed unit disc. The nominal pair is
    u = (0, -1) with states (1 - t, -t^3/3 + 3 t^2 - 5 t).
    """
    dyn = dynamics_from_expressions(
        ("u2", f"-y1^2 + 4*y1*u2 - {float(theta)!r}*u1^2"), 2, 2, label="ccs126")
    cost = linear_endpoint((0.0, 0.0), (0.0, 1.0), label="terminal-y2")
    pin1 = linear_endpoint((1.0, 0.0), (0.0, 0.0), offset=-1.0, label="start-y1")
    pin2 = linear_endpoint((0.0, 1.0), (0.0, 0.0), label="start-y2")
    return make_problem(euclidean(2), horizon, dyn, cost,
                        equality_maps=(pin1, pin2),
                        control_set=Ball(center=(0.0, 0.0), radius=1.0),
                        validate=validate)


def ccs126_nominal_controls(num_cells: int) -> np.ndarray:
    return np.tile([0.0, -1.0], (num_cells, 1))


def ccs126_states(t):
    t = np.asarray(t, float)
    return np.stack([1.0 - t, -t**3 / 3.0 + 3.0 * t**2 - 5.0 * t], axis=-1)


def ccs126_adjoint(t, horizon: float, ell0: float):
    """Closed-form adjoint components for a multiplier with cost weight ell0."""
    t = np.asarray(t, float)
    p1 = ell0 * (6.0 * t - t**2 - 6.0 * horizon + horizon**2)
    p2 = np.full_like(t, ell0)
    return np.stack([p1, p2], axis=-1)


def ccs126_second_field(t, theta: float):
    """Closed-form Y for directions v=(1,0), accelerations (0, 1/2), W=0."""
    t = np.asarray(t, float)
    return np.stack([0.5 * t, t**3 / 3.0 - 2.5 * t**2 + (2.0 - theta) * t], axis=-1)


def make_flat_nonlinear(horizon: float = 0.8):
    """Euclidean planar system, nonlinear in state and control."""
    dyn = dynamics_from_expressions(
        ("y2 + u1^2", "sin(y1) + u1*u2"), 2, 2, label="flat-nonlinear")
    cost = linear_endpoint((0.0, 0.0), (1.0, 0.5), label="terminal-mix")
    return make_problem(euclidean(2), horizon, dyn, cost,
                        control_set=Box(lower=(-2.0, -2.0), upper=(2.0, 2.0)))


def make_sphere_nonlinear(horizon: float = 0.5):
    """Nonlinear system on the unit sphere (stereographic chart)."""
    dyn = dynamics_from_expressions(
        ("0.5*y2 + u1", "-0.4*y1*y2 + u2"), 2, 2, label="sphere-nonlinear")
    cost = linear_endpoint((0.0, 0.0), (1.0, -0.5), label="terminal-mix")
    ineq = linear_endpoint((0.0, 0.0), (0.0, 1.0), offset=-5.0, label="yT2-bound")
    return make_problem(sphere(1.0), horizon, dyn, cost,
                        inequality_maps=(ineq,),
                        control_set=Box(lower=(-1.0, -1.0), upper=(1.0, 1.0)))


def wiggly_controls(num_cells: int, scale: float = 0.1, m: int = 2) -> np.ndarray:
    """Deterministic piecewise-constant controls with jumps between cells."""
    i = np.arange(num_cells)
    cols = [np.sin(2.0 * np.pi * i / num_cells + 0.7 * a) for a in range(m)]
    return scale * np.stack(cols, axis=1)
