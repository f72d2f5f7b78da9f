"""Tests for key-distribution generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import LatestGenerator, UniformGenerator, ZipfianGenerator


class TestZipfian:
    def test_keys_in_range(self):
        gen = ZipfianGenerator(1000, seed=1)
        keys = gen.sample(5000)
        assert keys.min() >= 0 and keys.max() < 1000

    def test_deterministic_by_seed(self):
        a = ZipfianGenerator(1000, seed=7).sample(100)
        b = ZipfianGenerator(1000, seed=7).sample(100)
        assert np.array_equal(a, b)

    def test_skew_increases_with_theta(self):
        def top_share(theta):
            gen = ZipfianGenerator(1000, theta=theta, seed=3, scramble=False)
            keys = gen.sample(20_000)
            _, counts = np.unique(keys, return_counts=True)
            return counts.max() / len(keys)

        assert top_share(1.2) > top_share(0.6) > top_share(0.0)

    def test_unscrambled_rank_zero_most_popular(self):
        gen = ZipfianGenerator(100, theta=0.99, seed=2, scramble=False)
        keys = gen.sample(20_000)
        values, counts = np.unique(keys, return_counts=True)
        assert values[np.argmax(counts)] == 0

    def test_scramble_spreads_popularity(self):
        gen = ZipfianGenerator(1000, theta=0.99, seed=2, scramble=True)
        keys = gen.sample(20_000)
        values, counts = np.unique(keys, return_counts=True)
        # most popular key need not be 0 once scrambled
        assert counts.max() / 20_000 > 0.01

    def test_theta_zero_is_uniform(self):
        gen = ZipfianGenerator(10, theta=0.0, seed=4)
        keys = gen.sample(50_000)
        _, counts = np.unique(keys, return_counts=True)
        assert counts.min() > 0.08 * 50_000

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=-1)


class TestUniform:
    def test_range_and_determinism(self):
        gen = UniformGenerator(50, seed=3)
        keys = gen.sample(1000)
        assert keys.min() >= 0 and keys.max() < 50
        assert np.array_equal(keys, UniformGenerator(50, seed=3).sample(1000))


class TestLatest:
    def test_skews_toward_newest(self):
        gen = LatestGenerator(10_000, seed=5)
        keys = gen.sample(10_000, newest=9_999)
        assert np.median(keys) > 8_000

    def test_in_range(self):
        gen = LatestGenerator(100, seed=5)
        keys = gen.sample(1000, newest=50)
        assert keys.min() >= 0 and keys.max() <= 50


# -- the guide-table sampler is the full binary search ----------------------

_EDGE_KEYS = sorted({
    n for k in range(18) for n in (2**k - 1, 2**k, 2**k + 1) if 1 <= n <= 2**17
})


def _adversarial(gen):
    """Every CDF value, its two float neighbours, every bucket edge of the
    guide table and 0.0 — the draws where a bucket or a comparison could
    round the wrong way — kept to [0, 1) as the generator's draws are."""
    cdf = gen._cdf
    edges = np.arange(int(gen._scale)) / gen._scale
    u = np.concatenate([
        cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0), [0.0],
    ])
    return u[(u >= 0.0) & (u < 1.0)]


@settings(max_examples=40, deadline=None)
@given(
    n_keys=st.one_of(st.sampled_from(_EDGE_KEYS), st.integers(1, 2**17)),
    theta=st.floats(0.0, 1.5),
    scramble=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_guide_table_ranks_equal_searchsorted(n_keys, theta, scramble, seed):
    gen = ZipfianGenerator(n_keys, theta=theta, seed=seed, scramble=scramble)
    size = int(gen._scale)
    assert size & (size - 1) == 0
    assert np.array_equal(
        gen._guide,
        np.searchsorted(gen._cdf, np.arange(size + 1) / size, side="right"),
    )
    draws = np.random.default_rng(seed).random(5000)
    for u in (draws, _adversarial(gen)):
        assert np.array_equal(
            gen._ranks(u), np.searchsorted(gen._cdf, u, side="right")
        )
    # The whole draw, across refinement blocks: the same uniforms through
    # the full binary search give the same keys.
    twin = ZipfianGenerator(n_keys, theta=theta, seed=seed, scramble=scramble)
    count = 70_000 if n_keys > 2**16 else 3_000
    keys = gen.sample(count)
    ranks = np.searchsorted(twin._cdf, twin.rng.random(count), side="right")
    expected = ranks if twin._permutation is None else twin._permutation[ranks]
    assert keys.dtype == np.int64
    assert np.array_equal(keys, expected)


def test_guide_table_is_capped():
    gen = ZipfianGenerator(2**20, theta=0.99, seed=1, scramble=False)
    assert gen._scale == 2**20 and gen._guide.dtype == np.int32
    u = _adversarial(gen)
    assert np.array_equal(
        gen._ranks(u), np.searchsorted(gen._cdf, u, side="right")
    )


def test_blocks_continue_one_stream():
    """``sample`` draws its uniforms a block at a time; consecutive
    ``random`` calls continue one stream, so the keys are those of a
    single ``random(count)`` through the full binary search."""
    from repro.workloads.zipf import _BLOCK

    gen = ZipfianGenerator(3000, theta=0.99, seed=8)
    twin = ZipfianGenerator(3000, theta=0.99, seed=8)
    count = 2 * _BLOCK + 5
    ranks = np.searchsorted(twin._cdf, twin.rng.random(count), side="right")
    assert np.array_equal(gen.sample(count), twin._permutation[ranks])
    assert gen.rng.bit_generator.state == twin.rng.bit_generator.state
