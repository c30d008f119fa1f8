"""Five-dimensional feature embedding of route points.

A point maps to (x, y, z, sin(bearing), cos(bearing)): the position on the
unit sphere plus the travel direction as two components. Each dimension is
scaled by a magnitude in [0, 1] so the tuner can grade how much it counts in
the Euclidean metric the spatial index uses. Scaling every magnitude by the
same factor scales all pairwise distances uniformly, so nearest-neighbor
identity only depends on the magnitude ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, radians, sin

import numpy as np

N_DIMS = 5


@dataclass(frozen=True)
class FeatureWeights:
    """Per-dimension magnitudes; positions dominate before tuning."""

    m_x: float = 1.0
    m_y: float = 1.0
    m_z: float = 1.0
    m_sin: float = 0.25
    m_cos: float = 0.25

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"magnitude {name}={value} outside [0, 1]")

    def as_array(self) -> np.ndarray:
        return np.array([self.m_x, self.m_y, self.m_z, self.m_sin, self.m_cos])


def embed(lat_deg: float, lon_deg: float, bearing_deg: float,
          w: FeatureWeights) -> np.ndarray:
    """Embed one point into the magnitude-weighted 5-D feature space."""
    phi = radians(lat_deg)
    lam = radians(lon_deg)
    beta = radians(bearing_deg)
    return np.array([
        w.m_x * cos(phi) * cos(lam),
        w.m_y * cos(phi) * sin(lam),
        w.m_z * sin(phi),
        w.m_sin * sin(beta),
        w.m_cos * cos(beta),
    ])


def embed_arrays(lat_deg: np.ndarray, lon_deg: np.ndarray, bearing_deg: np.ndarray,
                 w: FeatureWeights) -> np.ndarray:
    """Vectorized embed: (n,) coordinate arrays -> (n, 5) feature matrix."""
    phi = np.radians(lat_deg)
    lam = np.radians(lon_deg)
    beta = np.radians(bearing_deg)
    out = np.empty((len(phi), N_DIMS))
    cos_phi = np.cos(phi)
    out[:, 0] = w.m_x * cos_phi * np.cos(lam)
    out[:, 1] = w.m_y * cos_phi * np.sin(lam)
    out[:, 2] = w.m_z * np.sin(phi)
    out[:, 3] = w.m_sin * np.sin(beta)
    out[:, 4] = w.m_cos * np.cos(beta)
    return out

