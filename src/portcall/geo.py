"""Spherical-Earth geometry: great-circle distance, initial bearing, angle math.

All functions assume a spherical Earth of radius ``EARTH_RADIUS_KM``.
Coordinates are decimal degrees, positive north/east.
"""

from __future__ import annotations

from math import asin, atan2, cos, degrees, radians, sin, sqrt

EARTH_RADIUS_KM = 6371.0

# Two fixes closer than this (in degrees, per axis) count as coincident and
# have no defined bearing.
COINCIDENT_EPS_DEG = 1e-9


def normalize_lon(lon_deg: float) -> float:
    """Wrap a longitude into [-180, 180]. AIS feeds occasionally use 0-360."""
    if -180.0 <= lon_deg <= 180.0:
        return lon_deg
    return (lon_deg + 180.0) % 360.0 - 180.0


def great_circle_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Haversine great-circle distance between two points, in kilometers."""
    phi1 = radians(lat1)
    phi2 = radians(lat2)
    dphi = radians(lat2 - lat1)
    dlam = radians(normalize_lon(lon2) - normalize_lon(lon1))
    a = sin(dphi / 2.0) ** 2 + cos(phi1) * cos(phi2) * sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * asin(min(1.0, sqrt(a)))


def initial_bearing_deg(lat1: float, lon1: float, lat2: float, lon2: float) -> float | None:
    """Initial great-circle bearing from point 1 toward point 2.

    Returns degrees in [0, 360), measured clockwise from north, or None when
    the points coincide (duplicate AIS fixes are common; the caller decides
    the fallback).
    """
    dlon = normalize_lon(lon2) - normalize_lon(lon1)
    if abs(lat2 - lat1) < COINCIDENT_EPS_DEG and abs(normalize_lon(dlon)) < COINCIDENT_EPS_DEG:
        return None
    phi1 = radians(lat1)
    phi2 = radians(lat2)
    dlam = radians(dlon)
    y = sin(dlam) * cos(phi2)
    x = cos(phi1) * sin(phi2) - sin(phi1) * cos(phi2) * cos(dlam)
    bearing = degrees(atan2(y, x)) % 360.0
    return 0.0 if bearing == 360.0 else bearing  # a hair west of north rounds up to 360


def angular_diff_deg(a: float, b: float) -> float:
    """Minimal absolute circular difference between two angles, in [0, 180]."""
    d = abs(a - b) % 360.0
    return 360.0 - d if d > 180.0 else d
