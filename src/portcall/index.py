"""Exact nearest-neighbor search over 5-D feature vectors.

A ball tree (the structure used by the classifier) and a linear scan (the
test oracle and the brute benchmark arm) both return the exact nearest point
under the Euclidean metric, ties going to the smallest point id. Every
distance comes from one function, so the two agree bit for bit.

The tree is only its leaves: median splits on the dimension of maximum
spread until each part holds at most ``leaf_size`` points, kept as a padded
leaf table with each leaf's centroid and radius. One numpy kernel answers a
block of queries against the flat leaf list of one or many trees: it takes
every (query, leaf) centroid distance once, bounds each leaf from below by
it minus the radius and each tree from above by its least centroid distance
plus radius, then scans every leaf whose bound is ``<=`` its tree's upper
bound, so equal-distance candidates are reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_LEAF_SIZE = 32

# Query blocks are sized from this many bytes at about 48 per leaf bound and 96
# per point of 4 scanned leaves a tree. Queries scan more (8.1 leaves a port on
# canonical data, 13.6 on the batch-large slice), so a call peaks at 2.5 / 1.7 MB.
BLOCK_BYTES = 1 << 20

_NO_ID = np.iinfo(np.int64).max


@dataclass
class QueryStats:
    """Work of one nearest() call: leaf bounds computed, leaves scanned."""

    nodes_visited: int = 0
    leaves_visited: int = 0


def _check_points(points: np.ndarray, ids: Sequence[int] | None) -> tuple[np.ndarray, np.ndarray]:
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty 2-D array")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    if ids is None:
        id_arr = np.arange(pts.shape[0], dtype=np.int64)
    else:
        id_arr = np.asarray(ids, dtype=np.int64)
        if id_arr.shape != (pts.shape[0],):
            raise ValueError("ids must align with points")
    return pts, id_arr


def _distances(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``points`` and ``q``, which
    broadcast against each other. Every distance of this module comes from
    here, so each pair of vectors rounds the same way in every caller."""
    diff = points - q
    flat = diff.reshape(-1, diff.shape[-1])
    return np.sqrt(np.einsum("ij,ij->i", flat, flat)).reshape(diff.shape[:-1])


def brute_nearest(points: np.ndarray, q: np.ndarray,
                  ids: Sequence[int] | None = None) -> tuple[int, float]:
    """Linear-scan argmin; ties go to the smallest point id."""
    pts, id_arr = _check_points(points, ids)
    d = _distances(pts, np.asarray(q, dtype=np.float64))
    best = d.min()
    if not np.isfinite(best):
        raise ValueError("query must be finite")
    return int(id_arr[d == best].min()), float(best)


class LeafTable:
    """The leaves of one or more ball trees (groups), queried together.

    Leaves sit back to back, group by group: ``points`` is (L, S, 5) with
    short leaves padded by ``inf`` rows, ``ids`` is (L, S), ``centroid`` and
    ``radius`` bound each leaf's points, and ``leaf_group`` (L,) names each
    leaf's group. Every group holds at least one leaf and every leaf at least
    one point. Immutable; concurrent queries are safe.
    """

    def __init__(self, points: np.ndarray, ids: np.ndarray, centroid: np.ndarray,
                 radius: np.ndarray, counts: Sequence[int]):
        self.points, self.ids, self.centroid, self.radius = points, ids, centroid, radius
        self.counts = np.asarray(counts, dtype=np.int64)
        self.offsets = np.cumsum(self.counts) - self.counts
        self.leaf_group = np.repeat(np.arange(len(self.counts)), self.counts)
        per_query = 48 * len(radius) + 96 * 4 * len(self.counts) * points.shape[1]
        self.block = max(1, BLOCK_BYTES // per_query)

    @classmethod
    def stack(cls, tables: Sequence["LeafTable"]) -> "LeafTable":
        """One table holding the groups of every table, in order."""
        n, size = sum(len(t.radius) for t in tables), max(t.points.shape[1] for t in tables)
        points, ids = np.full((n, size, 5), np.inf), np.full((n, size), _NO_ID)
        lo = 0
        for t in tables:
            hi, width = lo + len(t.radius), t.points.shape[1]
            points[lo:hi, :width], ids[lo:hi, :width] = t.points, t.ids
            lo = hi
        return cls(points, ids, *(np.concatenate([getattr(t, name) for t in tables])
                                  for name in ("centroid", "radius", "counts")))

    def group(self, g: int) -> "LeafTable":
        """Group ``g`` alone, sharing this table's arrays."""
        lo, hi = self.offsets[g], self.offsets[g] + self.counts[g]
        return LeafTable(self.points[lo:hi], self.ids[lo:hi], self.centroid[lo:hi],
                         self.radius[lo:hi], self.counts[g:g + 1])

    def nearest(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact nearest point of every group to every query row.

        Returns (ids, distances, leaves scanned), each of shape (n, groups).
        """
        q = np.asarray(queries, dtype=np.float64)
        if q.ndim != 2 or q.shape[1] != self.points.shape[2]:
            raise ValueError("queries must be an (n, 5) array")
        if not np.isfinite(q).all():
            raise ValueError("queries must be finite")
        shape = (len(q), len(self.counts))
        ids, dist, scanned = (np.empty(shape, dtype) for dtype in (np.int64, float, np.int64))
        for lo in range(0, len(q), self.block):
            hi = lo + self.block
            ids[lo:hi], dist[lo:hi], scanned[lo:hi] = self._block(q[lo:hi])
        return ids, dist, scanned

    def _block(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n_q, n_g = len(q), len(self.counts)
        # 1. every (query, leaf) centroid distance, and each leaf's lower bound
        dc = _distances(self.centroid, q[:, None, :])
        bound = np.maximum(dc - self.radius, 0.0)
        # 2. each group's upper bound: a leaf is non-empty and inside its ball
        upper = np.minimum.reduceat(dc + self.radius, self.offsets, axis=1)
        # 3. scan every leaf within its group's upper bound; the leaf that sets
        # it always passes, as max(d - r, 0) <= d + r holds in floating point
        qi, leaf = np.nonzero(bound <= upper[:, self.leaf_group])
        d = _distances(self.points[leaf], q[qi][:, None, :])
        # 4. per (query, group): the least distance, then the least id at it;
        # nonzero lists the pairs in order and every pair scans a leaf
        pair = qi * n_g + self.leaf_group[leaf]
        start = pair.searchsorted(np.arange(n_q * n_g))
        best = np.minimum.reduceat(d.min(axis=1), start)
        cand = np.where(d == best[pair][:, None], self.ids[leaf], _NO_ID)
        best_id = np.minimum.reduceat(cand.min(axis=1), start)
        scanned = np.bincount(pair, minlength=n_q * n_g)
        return tuple(a.reshape(n_q, n_g) for a in (best_id, best, scanned))


class BallTree:
    """Exact nearest-neighbor ball tree over a fixed point set, kept as its
    leaves: ``table`` holds their points, ids, centroid and radius, which is
    all the query kernel reads. Leaves hold at most ``leaf_size`` points and
    every point lies inside its leaf's ball. Immutable; concurrent queries
    are safe.
    """

    def __init__(self, points: np.ndarray, ids: Sequence[int] | None = None,
                 leaf_size: int = DEFAULT_LEAF_SIZE):
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        pts, id_arr = _check_points(points, ids)
        if pts.shape[1] != 5:
            raise ValueError("BallTree indexes 5-D feature vectors")
        self.leaf_size = leaf_size
        self.n_points = len(pts)
        pts, id_arr = pts.copy(), id_arr.copy()
        leaves: list[tuple[int, np.ndarray, float]] = []
        self._split(pts, id_arr, 0, len(pts), leaves)

        # leaves are split off left to right, so their ranges tile the points
        end, centroid, radius = map(np.array, zip(*leaves))
        start = np.r_[0, end[:-1]]
        rows = start[:, None] + np.arange((end - start).max())
        real = rows < end[:, None]
        rows = np.where(real, rows, 0)
        self.table = LeafTable(np.where(real[:, :, None], pts[rows], np.inf),
                               np.where(real, id_arr[rows], _NO_ID),
                               centroid, radius, [len(end)])

    def _split(self, pts: np.ndarray, ids: np.ndarray, start: int, end: int,
               leaves: list[tuple[int, np.ndarray, float]]) -> None:
        """Reorder rows start:end in place into leaves, splitting at the
        median of the dimension of maximum spread; append each leaf's end
        row, centroid and radius, left to right."""
        seg = pts[start:end]
        if end - start <= self.leaf_size:
            centroid = seg.mean(axis=0)
            leaves.append((end, centroid, float(_distances(seg, centroid).max())))
            return
        dim = int(np.argmax(seg.max(axis=0) - seg.min(axis=0)))
        mid = start + (end - start) // 2
        order = np.argpartition(seg[:, dim], mid - start)
        pts[start:end] = seg[order]
        ids[start:end] = ids[start:end][order]
        self._split(pts, ids, start, mid, leaves)
        self._split(pts, ids, mid, end, leaves)

    @property
    def leaf_count(self) -> int:
        return len(self.table.radius)

    def nearest(self, q: np.ndarray) -> tuple[int, float]:
        """Exact nearest point to q: (point_id, distance)."""
        pid, dist, _ = self.nearest_with_stats(q)
        return pid, dist

    def nearest_with_stats(self, q: np.ndarray) -> tuple[int, float, QueryStats]:
        """As nearest(); the stats count the leaf bounds computed (every
        leaf) and the leaves scanned within the upper bound."""
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (5,):
            raise ValueError("query must be one 5-D feature vector")
        ids, dist, scanned = self.table.nearest(q[None])
        return (int(ids[0, 0]), float(dist[0, 0]),
                QueryStats(nodes_visited=self.leaf_count, leaves_visited=int(scanned[0, 0])))

    def containment_slack(self) -> float:
        """Max over points of (distance to its leaf's centroid - that leaf's
        radius); <= 0 when every point lies inside its leaf's ball."""
        t = self.table
        slack = _distances(t.points, t.centroid[:, None, :]) - t.radius[:, None]
        return float(slack[np.isfinite(t.points[:, :, 0])].max())
