"""5-D embedding: worked examples, oracle distances, argmin invariance."""

import math

import numpy as np
import pytest

from portcall.embedding import FeatureWeights, embed, embed_arrays


def embed_one(lat_deg, lon_deg, bearing_deg, w):
    return embed_arrays(np.array([lat_deg]), np.array([lon_deg]), np.array([bearing_deg]), w)[0]


def test_equator_east_all_ones():
    w = FeatureWeights(1, 1, 1, 1, 1)
    v = embed_one(0.0, 0.0, 90.0, w)
    assert np.allclose(v, [1.0, 0.0, 0.0, 1.0, 0.0], atol=1e-12)


def test_all_zero_magnitudes():
    w = FeatureWeights(0, 0, 0, 0, 0)
    v = embed_one(12.0, 34.0, 56.0, w)
    assert np.allclose(v, np.zeros(5), atol=0.0)


def test_north_pole_heading_north():
    w = FeatureWeights(1, 1, 1, 1, 1)
    v = embed_one(90.0, 123.0, 0.0, w)
    assert np.allclose(v, [0.0, 0.0, 1.0, 0.0, 1.0], atol=1e-12)


def test_default_magnitudes():
    w = FeatureWeights()
    assert (w.m_x, w.m_y, w.m_z, w.m_sin, w.m_cos) == (1.0, 1.0, 1.0, 0.25, 0.25)
    with pytest.raises(ValueError):
        FeatureWeights(m_x=1.5)
    with pytest.raises(ValueError):
        FeatureWeights(m_sin=-0.1)


def test_embed_matches_direct_formula():
    """A block of one point and a block of many against the formula written
    out with scalar math."""
    rng = np.random.default_rng(21)
    w = FeatureWeights(0.9, 0.8, 0.7, 0.6, 0.5)
    lats = rng.uniform(-90, 90, size=200)
    lons = rng.uniform(-180, 180, size=200)
    bearings = rng.uniform(0, 360, size=200)
    block = embed_arrays(lats, lons, bearings, w)
    assert block.shape == (200, 5)
    for i in range(200):
        phi, lam, beta = map(math.radians, (lats[i], lons[i], bearings[i]))
        want = [
            0.9 * math.cos(phi) * math.cos(lam),
            0.8 * math.cos(phi) * math.sin(lam),
            0.7 * math.sin(phi),
            0.6 * math.sin(beta),
            0.5 * math.cos(beta),
        ]
        assert np.allclose(embed_one(lats[i], lons[i], bearings[i], w), want, atol=1e-12)
        assert np.allclose(block[i], want, atol=1e-12)


def test_embed_arrays_matches_scalar():
    """Each row of a block depends on its own point only: embedding the
    points one at a time gives the same rows, and an empty block is (0, 5)."""
    rng = np.random.default_rng(22)
    w = FeatureWeights()
    lats = rng.uniform(-90, 90, size=100)
    lons = rng.uniform(-180, 180, size=100)
    bearings = rng.uniform(0, 360, size=100)
    block = embed_arrays(lats, lons, bearings, w)
    for i in range(100):
        assert np.allclose(block[i], embed_one(lats[i], lons[i], bearings[i], w),
                           atol=1e-12)
    empty = np.empty(0)
    assert embed_arrays(empty, empty, empty, w).shape == (0, 5)


def test_embed_is_a_block_of_one():
    """embed of one point is, bit for bit, embed_arrays of a block of one,
    at the poles, the antimeridian and random points, for several weights."""
    rng = np.random.default_rng(23)
    lats = np.concatenate([[90.0, -90.0, 0.0, 45.0], rng.uniform(-90, 90, size=60)])
    lons = np.concatenate([[0.0, 123.0, 180.0, -180.0], rng.uniform(-180, 180, size=60)])
    bearings = np.concatenate([[0.0, 90.0, 359.9, 180.0], rng.uniform(0, 360, size=60)])
    for w in (FeatureWeights(), FeatureWeights(0.9, 0.8, 0.7, 0.6, 0.5),
              FeatureWeights(0, 1, 0, 1, 0)):
        for lat, lon, bearing in zip(lats, lons, bearings):
            got, want = embed(lat, lon, bearing, w), embed_one(lat, lon, bearing, w)
            assert got.shape == (5,) and got.dtype == np.float64
            assert got.tobytes() == want.tobytes()


def test_argmin_invariant_under_uniform_scaling():
    """Scaling all five magnitudes by one constant rescales every distance
    by that constant, so nearest-neighbor identity is unchanged. Powers of
    two make the float scaling exact."""
    rng = np.random.default_rng(24)
    lats = rng.uniform(-90, 90, size=64)
    lons = rng.uniform(-180, 180, size=64)
    bearings = rng.uniform(0, 360, size=64)
    base = FeatureWeights(1.0, 1.0, 1.0, 0.25, 0.25)
    for c in (0.5, 0.25, 0.125):
        scaled = FeatureWeights(base.m_x * c, base.m_y * c, base.m_z * c,
                                base.m_sin * c, base.m_cos * c)
        pts_a = embed_arrays(lats, lons, bearings, base)
        pts_b = embed_arrays(lats, lons, bearings, scaled)
        qs_a = embed_arrays(lats[:10] + 1.0, lons[:10], bearings[:10], base)
        qs_b = embed_arrays(lats[:10] + 1.0, lons[:10], bearings[:10], scaled)
        for q_a, q_b in zip(qs_a, qs_b):
            d_a = np.linalg.norm(pts_a - q_a, axis=1)
            d_b = np.linalg.norm(pts_b - q_b, axis=1)
            assert int(np.argmin(d_a)) == int(np.argmin(d_b))
            assert np.allclose(d_b, c * d_a, rtol=1e-12)


def test_injective_on_position():
    rng = np.random.default_rng(25)
    w = FeatureWeights()
    lat, lon = np.array([(round(rng.uniform(-89, 89), 4), round(rng.uniform(-179, 179), 4))
                         for _ in range(2000)]).T
    block = embed_arrays(lat, lon, np.zeros(2000), w)
    assert len({tuple(np.round(v[:3], 12)) for v in block}) == 2000
