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

import numpy as np


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

def embed(lat_deg: float, lon_deg: float, bearing_deg: float,
          w: FeatureWeights) -> np.ndarray:
    """Embed one point: a block of one of embed_arrays. The benchmark's gate
    and trace are its last readers, until they call embed_arrays (ROADMAP.md)."""
    return embed_arrays(np.array([lat_deg]), np.array([lon_deg]), np.array([bearing_deg]), w)[0]


def embed_arrays(lat_deg: np.ndarray, lon_deg: np.ndarray, bearing_deg: np.ndarray,
                 w: FeatureWeights) -> np.ndarray:
    """Embed n points: (n,) coordinate arrays -> (n, 5) feature matrix."""
    phi = np.radians(lat_deg)
    lam = np.radians(lon_deg)
    beta = np.radians(bearing_deg)
    out = np.empty((len(phi), 5))
    cos_phi = np.cos(phi)
    out[:, 0] = w.m_x * cos_phi * np.cos(lam)
    out[:, 1] = w.m_y * cos_phi * np.sin(lam)
    out[:, 2] = w.m_z * np.sin(phi)
    out[:, 3] = w.m_sin * np.sin(beta)
    out[:, 4] = w.m_cos * np.cos(beta)
    return out
