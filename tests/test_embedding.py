"""5-D embedding: worked examples, oracle distances, argmin invariance."""

import math

import numpy as np
import pytest

from portcall.embedding import FeatureWeights, embed, embed_arrays


def test_equator_east_all_ones():
    w = FeatureWeights(1, 1, 1, 1, 1)
    v = embed(0.0, 0.0, 90.0, w)
    assert np.allclose(v, [1.0, 0.0, 0.0, 1.0, 0.0], atol=1e-12)


def test_all_zero_magnitudes():
    w = FeatureWeights(0, 0, 0, 0, 0)
    v = embed(12.0, 34.0, 56.0, w)
    assert np.allclose(v, np.zeros(5), atol=0.0)


def test_north_pole_heading_north():
    w = FeatureWeights(1, 1, 1, 1, 1)
    v = embed(90.0, 123.0, 0.0, w)
    assert np.allclose(v, [0.0, 0.0, 1.0, 0.0, 1.0], atol=1e-12)


def test_default_magnitudes():
    w = FeatureWeights()
    assert (w.m_x, w.m_y, w.m_z, w.m_sin, w.m_cos) == (1.0, 1.0, 1.0, 0.25, 0.25)
    with pytest.raises(ValueError):
        FeatureWeights(m_x=1.5)
    with pytest.raises(ValueError):
        FeatureWeights(m_sin=-0.1)


def test_embed_matches_direct_formula():
    rng = np.random.default_rng(21)
    w = FeatureWeights(0.9, 0.8, 0.7, 0.6, 0.5)
    for _ in range(200):
        lat = rng.uniform(-90, 90)
        lon = rng.uniform(-180, 180)
        bearing = rng.uniform(0, 360)
        phi, lam, beta = map(math.radians, (lat, lon, bearing))
        want = [
            0.9 * math.cos(phi) * math.cos(lam),
            0.8 * math.cos(phi) * math.sin(lam),
            0.7 * math.sin(phi),
            0.6 * math.sin(beta),
            0.5 * math.cos(beta),
        ]
        assert np.allclose(embed(lat, lon, bearing, w), want, atol=1e-12)


def test_embed_arrays_matches_scalar():
    rng = np.random.default_rng(22)
    w = FeatureWeights()
    lats = rng.uniform(-90, 90, size=100)
    lons = rng.uniform(-180, 180, size=100)
    bearings = rng.uniform(0, 360, size=100)
    block = embed_arrays(lats, lons, bearings, w)
    for i in range(100):
        assert np.allclose(block[i], embed(lats[i], lons[i], bearings[i], w),
                           atol=1e-12)


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
        for qi in range(10):
            q_a = embed(lats[qi] + 1.0, lons[qi], bearings[qi], base)
            q_b = embed(lats[qi] + 1.0, lons[qi], bearings[qi], scaled)
            d_a = np.linalg.norm(pts_a - q_a, axis=1)
            d_b = np.linalg.norm(pts_b - q_b, axis=1)
            assert int(np.argmin(d_a)) == int(np.argmin(d_b))
            assert np.allclose(d_b, c * d_a, rtol=1e-12)


def test_injective_on_position():
    rng = np.random.default_rng(25)
    w = FeatureWeights()
    seen = set()
    for _ in range(2000):
        lat = round(rng.uniform(-89, 89), 4)
        lon = round(rng.uniform(-179, 179), 4)
        key = tuple(np.round(embed(lat, lon, 0.0, w)[:3], 12))
        assert key not in seen
        seen.add(key)
