"""Geometry primitives checked against an independent vector-based oracle."""

import math

import numpy as np
import pytest

from portcall.geo import (
    EARTH_RADIUS_KM,
    angular_diff_deg,
    great_circle_km,
    initial_bearing_deg,
    normalize_lon,
)


def oracle_great_circle_km(lat1, lon1, lat2, lon2):
    """Chord-free reference: angle between 3-D unit vectors via atan2.

    Deliberately a different formulation than the haversine under test;
    atan2(|u x v|, u . v) is numerically sound at all separations.
    """
    def unit(lat, lon):
        phi, lam = math.radians(lat), math.radians(lon)
        return np.array([math.cos(phi) * math.cos(lam),
                         math.cos(phi) * math.sin(lam),
                         math.sin(phi)])
    u, v = unit(lat1, lon1), unit(lat2, lon2)
    angle = math.atan2(np.linalg.norm(np.cross(u, v)), float(np.dot(u, v)))
    return EARTH_RADIUS_KM * angle


def test_identical_points_zero():
    assert great_circle_km(0.0, 0.0, 0.0, 0.0) == 0.0
    assert great_circle_km(47.3, -122.5, 47.3, -122.5) == 0.0


def test_one_degree_of_equator():
    expected = EARTH_RADIUS_KM * math.pi / 180.0
    got = great_circle_km(0.0, 0.0, 0.0, 1.0)
    assert got == pytest.approx(expected, abs=1e-9)
    assert got == pytest.approx(111.195, abs=0.001)


def test_antipodal():
    assert great_circle_km(90.0, 0.0, -90.0, 0.0) == pytest.approx(
        math.pi * EARTH_RADIUS_KM, abs=1e-6)


def test_against_oracle_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        lat1, lat2 = rng.uniform(-90, 90, size=2)
        lon1, lon2 = rng.uniform(-180, 180, size=2)
        got = great_circle_km(lat1, lon1, lat2, lon2)
        want = oracle_great_circle_km(lat1, lon1, lat2, lon2)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_symmetry_and_identity():
    rng = np.random.default_rng(12)
    for _ in range(200):
        lat1, lat2 = rng.uniform(-90, 90, size=2)
        lon1, lon2 = rng.uniform(-180, 180, size=2)
        assert great_circle_km(lat1, lon1, lat2, lon2) == great_circle_km(
            lat2, lon2, lat1, lon1)
        assert great_circle_km(lat1, lon1, lat1, lon1) == 0.0


def test_bearing_cardinal_directions():
    assert initial_bearing_deg(0.0, 0.0, 1.0, 0.0) == pytest.approx(0.0)
    assert initial_bearing_deg(0.0, 0.0, 0.0, 1.0) == pytest.approx(90.0)
    assert initial_bearing_deg(1.0, 0.0, 0.0, 0.0) == pytest.approx(180.0)
    assert initial_bearing_deg(0.0, 1.0, 0.0, 0.0) == pytest.approx(270.0)


def test_bearing_range_and_coincident():
    rng = np.random.default_rng(13)
    for _ in range(500):
        lat1, lat2 = rng.uniform(-89, 89, size=2)
        lon1, lon2 = rng.uniform(-180, 180, size=2)
        b = initial_bearing_deg(lat1, lon1, lat2, lon2)
        if (lat1, lon1) == (lat2, lon2):
            continue
        assert b is not None
        assert 0.0 <= b < 360.0
    # a hair west of north: the bearing's % 360 must not round up to 360
    for lat1 in (-80.0, -30.0, 0.0, 10.0, 45.0, 88.0):
        for exponent in [*rng.uniform(0.0, 300.0, size=30), 16.0, 300.0]:
            b = initial_bearing_deg(lat1, 0.0, lat1 + 1.0, -(10.0 ** -exponent))
            assert 0.0 <= b < 360.0
    assert initial_bearing_deg(10.0, 0.0, 11.0, -1e-16) == 0.0
    assert initial_bearing_deg(10.0, 20.0, 10.0, 20.0) is None


def test_bearing_known_fix():
    # Baghdad to Osaka, the classic worked example: about 60.2 degrees
    b = initial_bearing_deg(35.0, 45.0, 35.0, 135.0)
    assert b == pytest.approx(60.16, abs=0.05)


def test_angular_diff():
    assert angular_diff_deg(350.0, 10.0) == pytest.approx(20.0)
    assert angular_diff_deg(0.0, 180.0) == pytest.approx(180.0)
    assert angular_diff_deg(90.0, 90.0) == 0.0
    assert angular_diff_deg(-10.0, 10.0) == pytest.approx(20.0)
    rng = np.random.default_rng(14)
    for _ in range(300):
        a, b = rng.uniform(-720, 720, size=2)
        d = angular_diff_deg(a, b)
        assert 0.0 <= d <= 180.0
        assert d == pytest.approx(angular_diff_deg(b, a))


def test_normalize_lon():
    assert normalize_lon(190.0) == pytest.approx(-170.0)
    assert normalize_lon(-190.0) == pytest.approx(170.0)
    # values already inside the closed interval pass through untouched
    assert normalize_lon(180.0) == 180.0
    assert normalize_lon(-180.0) == -180.0
    assert normalize_lon(0.0) == 0.0
    assert normalize_lon(540.0) == pytest.approx(-180.0)

