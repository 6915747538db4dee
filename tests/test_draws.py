"""``noc.draws.Stream`` against ``numpy.random``, and the problem digest
against ``hashlib``: the package imports neither, so both are oracles here.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from noc.draws import Stream
from noc.presets import PRESET_NAMES, load_preset
from noc.problemfile import parse_problem_file, serialize_problem_file

ROOT = Path(__file__).resolve().parent.parent
SEEDS = {"0": 0, "1": 1, "2^32+1": 2**32 + 1, "2^64+5": 2**64 + 5,
         "2^200+7": 2**200 + 7}


@pytest.mark.parametrize("seed", SEEDS.values(), ids=SEEDS)
def test_random_and_uniform_equal_numpy_bit_for_bit(seed):
    ours, numpy = Stream(seed), np.random.default_rng(seed)
    lo, hi = np.array([-1.0, -0.5, 2.0]), np.array([1.0, 3.5, 2.25])
    # interleaved as validation and the grid oracle call them, in the
    # (32, dim) and (256, k) shapes they draw
    for dim, k in ((1, 1), (2, 3), (3, 2)):
        assert ours.random() == numpy.random()
        got = ours.uniform(lo[:dim], hi[:dim], (32, dim))
        assert got.tobytes() == numpy.uniform(lo[:dim], hi[:dim], (32, dim)).tobytes()
        got = ours.uniform(0.0, 2.0, (256, k))
        assert got.tobytes() == numpy.uniform(0.0, 2.0, (256, k)).tobytes()
    assert [ours.random() for _ in range(50)] == [numpy.random() for _ in range(50)]


def test_a_negative_seed_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        Stream(-1)


def test_normals_are_deterministic_finite_and_standard():
    assert Stream(3).standard_normal((4, 2)).tobytes() == \
        Stream(3).standard_normal((4, 2)).tobytes()
    assert Stream(3).standard_normal(5).tobytes() != Stream(4).standard_normal(5).tobytes()
    n = 10**5
    z = Stream(0).standard_normal(n)
    assert z.shape == (n,) and np.all(np.isfinite(z))
    # the sample mean has deviation 1/sqrt(n), the sample variance sqrt(2/n)
    assert abs(z.mean()) < 5 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 5 * np.sqrt(2 / n)


def test_each_normal_takes_two_words():
    stream, words = Stream(9), Stream(9)
    stream.standard_normal(3)
    words.uniform(0.0, 1.0, 6)
    assert stream.random() == words.random()


FIXTURES = [*sorted((ROOT / "docs" / "conformance" / "valid").glob("*.noc")),
            ROOT / "perfbench" / "sphere.noc",
            *(f"preset:{name}" for name in PRESET_NAMES)]


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda f: getattr(f, "name", f))
def test_the_digest_is_the_sha256_of_the_canonical_text(fixture):
    if isinstance(fixture, Path):
        pf = parse_problem_file(fixture.read_text(encoding="utf-8"))
    else:
        pf = load_preset(fixture.removeprefix("preset:"))
    text = serialize_problem_file(pf)
    assert pf.digest() == hashlib.sha256(text.encode("utf-8")).hexdigest()
