"""The checker's contraction kernels against the einsum formulas they replace.

The trajectory jet, the second-order form and the chart tensors are built
from broadcast products over the contracted index, added in index order
(``noc.dynamics._sum_over``).  Each kernel is held against its einsum
formula in ``tests/_reference.py`` on random inputs, with zeros, NaN or
±inf planted: bit for bit, sign of zero and non-finite pattern included.
The kernels take their operands node-innermost (component axes first, the
node axes last), the einsum formulas node-leading, so each call site moves
the node axes of the kernel's inputs last and those of its outputs first.
The kernels are also held, bit for bit and H2 included, against their
node-leading forms in ``tests/_reference.py``, the same products on arrays
whose node axes lead.

Two exceptions are compared within 8 ulp of the size of the summed terms:

* H2 of ``_covariant_blocks`` forms Γ·f once and contracts it again for
  its two ΓΓf terms, where the einsum contracts Γ, Γ and f in one pass, so
  the products are rounded in another order;
* at n = 3, a contraction over an index that is the last axis of every
  operand (Γ·f, ∂Γ·f and, at m = 1, Γ·f_u): there einsum adds the terms in
  SIMD lanes, (t0 + t2) + t1, not in index order.  At n <= 2 both orders
  are the same.  A command reaches n = 3 on a curved chart only through an
  ``ocpe`` problem on the sphere, where the third coordinate is the flat
  cost accumulator and the third term of those sums is a zero; one such
  check is run with the einsum kernels and with the new ones, and writes
  the same bytes.

Also here: ``check`` and ``sweep`` run with ``numpy.einsum`` patched to
raise, and print and write the same as without the patch; and curved-chart
checks write the same bytes with the node-leading kernels patched in.
"""
from __future__ import annotations

import importlib.util
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import noc.conditions as conditions
import noc.dynamics as dynamics
from noc.cli import main
from noc.conditions import _adjoint_pairing, _direction_pairing
from noc.dynamics import (TrajectoryJet, _covariant_blocks, _curvature_vectors,
                          lagrange_data)
from noc.geometry import (_conformal_gamma, _constant_curvature_tensor,
                          dchristoffel, sphere)

import _reference

ROOT = Path(__file__).resolve().parent.parent
# the ocpe problem on the sphere and the radius rewrite that
# tools/same_outputs.py compares between checkouts
_spec = importlib.util.spec_from_file_location(
    "same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

# the planted NaN and ±inf raise numpy's invalid-value warnings on purpose
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

N = 5
LEADS = [(2, N), (N,)]
PLANTS = [None, "zeros", np.nan, np.inf, -np.inf]
EPS = np.finfo(float).eps


def _draw(rng, shape, plant):
    """Standard normal entries; with ``plant`` "zeros" about a third are
    ±0.0, with a float one entry is that value."""
    a = rng.standard_normal(shape)
    if plant == "zeros":
        a[rng.random(shape) < 0.3] = 0.0
        a[rng.random(shape) < 0.1] = -0.0
    elif plant is not None and a.size:
        a.flat[rng.integers(a.size)] = plant
    return a


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    nan = np.isnan(want)
    assert np.array_equal(np.signbit(got) & ~nan, np.signbit(want) & ~nan)


def _assert_within_ulps(got, want, scale, ulps: int = 8):
    """Same shape and non-finite entries; finite entries within ``ulps`` of
    ``scale``, the size of the terms summed into each entry."""
    assert got.shape == want.shape
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    fin = np.isfinite(want)
    gap = np.abs(got - want)[fin]
    assert np.all(gap <= ulps * EPS * np.broadcast_to(scale, want.shape)[fin])


def _size(a, axes: int):
    """max |a| over the last ``axes`` axes, NaN ignored."""
    return np.fmax.reduce(np.abs(a).reshape(a.shape[:a.ndim - axes] + (-1,)), axis=-1)


def _rng(*key):
    return np.random.default_rng(zlib.crc32(repr(key).encode()))


def _nodes_last(a, lead):
    """``a`` (*lead, ...) with its node axes ``lead`` moved last."""
    k = len(lead)
    return np.moveaxis(a, range(k), range(a.ndim - k, a.ndim))


def _nodes_first(a, lead):
    """``a`` (..., *lead) with its node axes ``lead`` moved first."""
    k = len(lead)
    return np.moveaxis(a, range(a.ndim - k, a.ndim), range(k))


# ----------------------------------------------------------------------------
# noc.dynamics
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("plant", PLANTS)
@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_covariant_blocks_match_einsum(n, m, lead, plant):
    rng = _rng("blocks", n, m, lead, plant)
    f, fy, fu = (_draw(rng, lead + s, plant) for s in [(n,), (n, n), (n, m)])
    fyy, fyu = (_draw(rng, lead + s, plant) for s in [(n, n, n), (n, n, m)])
    gamma, dgamma = (_draw(rng, lead + (n,) * k, plant) for k in (3, 4))
    A, H2, M = (_nodes_first(a, lead) for a in _covariant_blocks(
        *(_nodes_last(a, lead) for a in (f, fy, fu, fyy, fyu, gamma, dgamma))))
    wA, wH2, wM = _reference.covariant_blocks(f, fy, fu, fyy, fyu, gamma, dgamma)
    G, D, F = _size(gamma, 3), _size(dgamma, 4), _size(f, 1)
    Y, U = _size(fy, 2), _size(fu, 2)
    _assert_within_ulps(H2, wH2, (_size(fyy, 3) + n * D * F + 3 * n * G * Y
                                  + 2 * n * n * G * G * F)[..., None, None, None])
    if n <= 2:
        _assert_same_bits(A, wA)
        _assert_same_bits(M, wM)
    else:
        _assert_within_ulps(A, wA, (Y + n * G * F)[..., None, None])
        _assert_within_ulps(M, wM, (_size(fyu, 3) + n * G * U)[..., None, None, None])


@pytest.mark.parametrize("plant", PLANTS)
@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_curvature_vectors_match_einsum(n, lead, plant):
    rng = _rng("curvature", n, lead, plant)
    R = _draw(rng, lead + (n,) * 4, plant)
    X, f = (_draw(rng, lead + (n,), plant) for _ in range(2))
    _assert_same_bits(_nodes_first(_curvature_vectors(*(_nodes_last(a, lead)
                                                        for a in (R, X, f))), lead),
                      _reference.curvature_vectors(R, X, f))


@pytest.mark.parametrize("plant", PLANTS)
@pytest.mark.parametrize("curved", [False, True])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_form_integrands_match_einsum(n, m, curved, plant):
    jet, X, v = _leading_jet(n, m, curved, plant)
    got = _moved_jet(jet).form_integrands(X, v)
    want = _reference.form_integrands(jet, X, v)
    assert list(got) == list(want)
    for name in want:
        _assert_same_bits(_nodes_first(got[name], (2, N)), want[name])


def _leading_jet(n, m, curved, plant):
    """A node-leading jet of random arrays, as ``_reference``'s forms take
    it, with first-order values X (N+1, n) and directions v (N, m)."""
    rng = _rng("integrands", n, m, curved, plant)
    side = (2, N)
    jet = SimpleNamespace(
        trajectory=None, nodes=np.stack([np.arange(N), np.arange(1, N + 1)]),
        f=_draw(rng, side + (n,), plant), fu=_draw(rng, side + (n, m), plant),
        fuu=_draw(rng, side + (n, m, m), plant),
        hess=_draw(rng, side + (n, n, n), plant),
        mixed=_draw(rng, side + (n, n, m), plant),
        riemann=_draw(rng, (N + 1,) + (n,) * 4, plant) if curved else None)
    return jet, _draw(rng, (N + 1, n), plant), _draw(rng, (N, m), plant)


def _moved_jet(jet) -> TrajectoryJet:
    """The ``TrajectoryJet`` of a node-leading jet: its axes moved."""
    return TrajectoryJet(
        trajectory=jet.trajectory, nodes=jet.nodes,
        **{name: _nodes_last(getattr(jet, name), (2, N))
           for name in ("f", "fu", "fuu", "hess", "mixed")},
        riemann=None if jet.riemann is None else _nodes_last(jet.riemann, (N + 1,)))


class _FixedMap:
    """An endpoint map whose gradients and Hessians are fixed arrays."""

    def __init__(self, grads, hessians):
        self.grads, self.hessians = grads, hessians

    def value(self, y0, yT):
        return 0.0

    def grad(self, y0, yT):
        return self.grads

    def hess(self, y0, yT):
        return self.hessians


@pytest.mark.parametrize("plant", PLANTS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lagrange_data_hessians_match_einsum(n, plant, monkeypatch):
    rng = _rng("lagrange", n, plant)
    grads = tuple(_draw(rng, (n,), plant) for _ in range(2))
    hessians = tuple(_draw(rng, (n, n), plant) for _ in range(3))
    gammas = [_draw(rng, (n, n, n), plant) for _ in range(2)]  # at y0, at yT
    monkeypatch.setattr(dynamics, "christoffel", lambda chart, y: gammas[int(y[0])])
    problem = SimpleNamespace(multiplier_dim=1, state_dim=n,
                              endpoint_maps=(_FixedMap(grads, hessians),),
                              chart=SimpleNamespace(kind="curved"))
    data = lagrange_data(problem, np.zeros(n), np.ones(n), [1.0])
    raw = []
    for a in grads + hessians:          # the weighted sums over one map
        total = np.zeros(a.shape)
        total += 1.0 * a
        raw.append(total)
    g1, g2, h11, h12, h22 = raw
    _assert_same_bits(data.hess_start_start,
                      _reference.geodesic_hessian(h11, gammas[0], g1))
    _assert_same_bits(data.hess_end_end,
                      _reference.geodesic_hessian(h22, gammas[1], g2))
    _assert_same_bits(data.hess_start_end, h12)


# ----------------------------------------------------------------------------
# noc.conditions
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("plant", PLANTS)
@pytest.mark.parametrize("m", [None, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_adjoint_pairing_matches_einsum(n, m, plant):
    rng = _rng("adjoint", n, m, plant)
    vectors = _draw(rng, (2, N, n) + (() if m is None else (m,)), plant)
    at_sides = _draw(rng, (2, N, n, 4), plant)
    _assert_same_bits(_nodes_first(_adjoint_pairing(_nodes_last(vectors, (2, N)),
                                                    _nodes_last(at_sides, (2, N))),
                                   (2, N)),
                      _reference.adjoint_pairing(vectors, at_sides))


@pytest.mark.parametrize("plant", PLANTS)
@pytest.mark.parametrize("candidates", [None, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_direction_pairing_matches_einsum(m, candidates, plant):
    rng = _rng("direction", m, candidates, plant)
    rows = _draw(rng, (() if candidates is None else (candidates,)) + (N, m), plant)
    hu = _draw(rng, (2, N, m, 4), plant)
    _assert_same_bits(np.moveaxis(_direction_pairing(rows, _nodes_last(hu, (2, N))),
                                  -3, -1),
                      _reference.direction_pairing(rows, hu))


# ----------------------------------------------------------------------------
# noc.geometry
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("plant", PLANTS)
@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_conformal_gamma_matches_einsum(n, lead, plant):
    dphi = _draw(_rng("conformal", n, lead, plant), lead + (n,), plant)
    _assert_same_bits(_nodes_first(_conformal_gamma(_nodes_last(dphi, lead)), lead),
                      _reference.conformal_gamma(dphi))


@pytest.mark.parametrize("plant", PLANTS)
@pytest.mark.parametrize("lead", LEADS)
def test_stereographic_dchristoffel_matches_einsum(lead, plant):
    pts = _draw(_rng("dchristoffel", lead, plant), lead + (2,), plant)
    want = _reference.stereographic_dchristoffel(1.5, pts.reshape(-1, 2))
    _assert_same_bits(dchristoffel(sphere(1.5), pts), want.reshape(lead + (2,) * 4))


@pytest.mark.parametrize("plant", PLANTS)
@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_constant_curvature_tensor_matches_einsum(n, lead, plant):
    g = _draw(_rng("constant", n, lead, plant), lead + (n, n), plant)
    _assert_same_bits(_nodes_first(_constant_curvature_tensor(-0.75, _nodes_last(g, lead)),
                                   lead),
                      _reference.constant_curvature_tensor(-0.75, g))


# ----------------------------------------------------------------------------
# no einsum on the check and sweep paths
# ----------------------------------------------------------------------------

RUNS = [
    (["check", "perfbench/sphere.noc"], 0),
    (["check", "docs/conformance/valid/sphere-drift.noc"], 3),
    (["check", "preset:ccs126"], 3),
    (["sweep", "docs/conformance/valid/sphere-drift.noc", "--grid", "50",
      "--param", "T=0.2,0.3,0.4"], 0),
]


def _outputs(argv, tmp_path, capsys, name):
    """Exit code, stdout and the report bytes of one in-process run."""
    report = tmp_path / f"{name}.json"
    code = main(argv + (["--report", str(report)] if argv[0] == "check" else []))
    out = "".join(line for line in capsys.readouterr().out.splitlines(True)
                  if not line.startswith("elapsed:"))
    return code, out, report.read_bytes() if report.exists() else None


def _refuse(*args, **kwargs):
    raise AssertionError("numpy.einsum called")


@pytest.mark.parametrize("argv,code", RUNS, ids=[" ".join(a[:2]) for a, _ in RUNS])
def test_check_and_sweep_call_no_einsum(argv, code, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    with monkeypatch.context() as patch:
        patch.setattr(np, "einsum", _refuse)
        guarded = _outputs(argv, tmp_path, capsys, "guarded")
    assert guarded[0] == code
    assert guarded == _outputs(argv, tmp_path, capsys, "plain")


def _einsum_blocks(f, fy, fu, fyy, fyu, gamma=None, dgamma=None):
    if gamma is None:
        return _reference.node_leading_covariant_blocks(f, fy, fu, fyy, fyu)
    return _reference.covariant_blocks(f, fy, fu, fyy, fyu, gamma, dgamma)


def _patch_node_leading(patch, blocks, form_integrands, adjoint_pairing,
                        direction_pairing):
    """Patch node-leading kernels in for the checker's node-innermost ones,
    each wrapped to move the node axes of its inputs first and those of its
    outputs last."""

    def covariant_blocks(f, *arrays):
        lead = f.shape[1:]
        return tuple(_nodes_last(b, lead) for b in blocks(
            _nodes_first(f, lead),
            *(None if a is None else _nodes_first(a, lead) for a in arrays)))

    def integrands(jet, first_values, directions):
        side = jet.nodes.shape
        leading = SimpleNamespace(
            nodes=jet.nodes,
            **{name: _nodes_first(getattr(jet, name), side)
               for name in ("f", "fu", "fuu", "hess", "mixed")},
            riemann=None if jet.riemann is None else _nodes_first(jet.riemann,
                                                                  (side[1] + 1,)))
        return {name: _nodes_last(value, side) for name, value in
                form_integrands(leading, first_values, directions).items()}

    def pair_adjoint(vectors, at_sides):
        side = at_sides.shape[-2:]
        return _nodes_last(adjoint_pairing(_nodes_first(vectors, side),
                                           _nodes_first(at_sides, side)), side)

    def pair_direction(rows, hu):
        return np.moveaxis(direction_pairing(rows, _nodes_first(hu, hu.shape[-2:])),
                           -1, -3)

    patch.setattr(dynamics, "_covariant_blocks", covariant_blocks)
    patch.setattr(TrajectoryJet, "form_integrands", integrands)
    patch.setattr(conditions, "_adjoint_pairing", pair_adjoint)
    patch.setattr(conditions, "_direction_pairing", pair_direction)


SPHERE_CASES = [(name, radius) for name in ("ocpe", "sphere") for radius in (0.5, 1.0, 2.0)]


def _sphere_problem(name: str, radius: float) -> str:
    """``same_outputs.OCPE_SPHERE``, an integral-cost problem on the sphere
    whose cost accumulator makes n = 3, or ``perfbench/sphere.noc``, on the
    sphere of ``radius``."""
    text = (same_outputs.OCPE_SPHERE if name == "ocpe" else
            (ROOT / "perfbench" / "sphere.noc").read_text(encoding="utf-8"))
    return same_outputs.on_radius(text, radius)


@pytest.mark.parametrize("name,radius", SPHERE_CASES,
                         ids=[f"{name}-{radius}" for name, radius in SPHERE_CASES])
def test_an_ocpe_check_on_the_sphere_writes_the_einsum_report(name, radius, tmp_path,
                                                               capsys, monkeypatch):
    path = tmp_path / f"{name}-sphere.noc"
    path.write_text(_sphere_problem(name, radius))
    argv = ["check", str(path)]
    with monkeypatch.context() as patch:
        patch.setattr(np, "einsum", _refuse)
        new = _outputs(argv, tmp_path, capsys, "new")
    assert new[0] == 0
    curvature = [float(line.split(":")[1]) for line in new[1].splitlines()
                 if line.strip().startswith("term curvature:")]
    assert len(curvature) == 1 and curvature[0] != 0.0
    with monkeypatch.context() as patch:
        _patch_node_leading(patch, _reference.node_leading_covariant_blocks,
                            _reference.node_leading_form_integrands,
                            _reference.node_leading_adjoint_pairing,
                            _reference.node_leading_direction_pairing)
        leading = _outputs(argv, tmp_path, capsys, "leading")
    assert new == leading
    if (name, radius) == ("ocpe", 1.0):
        assert "term state_state: -0.00" in new[1] and "term curvature: 0.00" in new[1]
        with monkeypatch.context() as patch:
            _patch_node_leading(patch, _einsum_blocks, _reference.form_integrands,
                                _reference.adjoint_pairing, _reference.direction_pairing)
            einsum = _outputs(argv, tmp_path, capsys, "einsum")
        assert new == einsum


@pytest.mark.parametrize("plant", PLANTS)
@pytest.mark.parametrize("curved", [False, True])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_jet_kernels_match_their_node_leading_forms(n, m, curved, plant):
    # the same products as before the jet became node-innermost, bit for
    # bit: H2 included, at n = 3 included
    jet, X, v = _leading_jet(n, m, curved, plant)
    rng = _rng("leading", n, m, curved, plant)
    side = (2, N)
    fy, fyy, fyu = (_draw(rng, side + s, plant) for s in [(n, n), (n, n, n), (n, n, m)])
    gamma, dgamma = (_draw(rng, side + (n,) * k, plant) for k in (3, 4))
    args = (jet.f, fy, jet.fu, fyy, fyu) + ((gamma, dgamma) if curved else ())
    got = _covariant_blocks(*(_nodes_last(a, side) for a in args))
    for a, b in zip(got, _reference.node_leading_covariant_blocks(*args)):
        _assert_same_bits(_nodes_first(a, side), b)
    got = _moved_jet(jet).form_integrands(X, v)
    want = _reference.node_leading_form_integrands(jet, X, v)
    assert list(got) == list(want)
    for name in want:
        _assert_same_bits(_nodes_first(got[name], side), want[name])
    at_sides = _draw(rng, side + (n, 3), plant)
    for vectors in [want["curvature"], jet.fu]:
        _assert_same_bits(
            _nodes_first(_adjoint_pairing(_nodes_last(vectors, side),
                                          _nodes_last(at_sides, side)), side),
            _reference.node_leading_adjoint_pairing(vectors, at_sides))
    hu = _draw(rng, side + (m, 3), plant)
    for rows in [v, np.stack([v, 2.0 * v])]:
        _assert_same_bits(np.moveaxis(_direction_pairing(rows, _nodes_last(hu, side)),
                                      -3, -1),
                          _reference.node_leading_direction_pairing(rows, hu))
