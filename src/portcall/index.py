"""Exact nearest-neighbor search over 5-D feature vectors.

A ball tree (the structure used by the classifier) and a linear scan (the
test oracle and the brute benchmark arm) both return the exact nearest point
under the Euclidean metric, ties going to the smallest point id. Every
distance comes from one function, so the two agree bit for bit.

The tree splits the dimension of maximum spread at the median until a node
holds at most ``leaf_size`` points. Queries never walk it: one numpy kernel
answers a block of queries against the padded leaf table of one or many
trees. Per (query, tree) it bounds every leaf by centroid and radius, scans
the leaves with the smallest bounds for an upper bound, then scans every
leaf whose bound is ``<=`` it, so equal-distance candidates are reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_LEAF_SIZE = 32

# Leaves scanned per (query, tree) to set the upper bound.
FIRST_LEAVES = 4
# Temporaries of one query block stay near this many bytes: a query costs
# about 48 per leaf bound and 96 per point of its first leaves.
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
    short leaves padded by ``inf`` rows, ``ids`` is (L, S), and ``centroid``
    and ``radius`` bound each leaf's points. Immutable; concurrent queries are
    safe.
    """

    def __init__(self, points: np.ndarray, ids: np.ndarray, centroid: np.ndarray,
                 radius: np.ndarray, counts: Sequence[int]):
        self.points, self.ids, self.centroid, self.radius = points, ids, centroid, radius
        self.counts = np.asarray(counts, dtype=np.int64)
        self.offsets = np.cumsum(self.counts) - self.counts
        col = np.arange(self.counts.max())
        # slots[g, j] is leaf j of group g; a short group repeats its last
        # leaf, and the padded bounds keep such slots at inf
        self.slots = self.offsets[:, None] + np.minimum(col, self.counts[:, None] - 1)
        real = col < self.counts[:, None]
        self._centroid = np.where(real[:, :, None], centroid[self.slots], np.inf)
        self._radius = np.where(real, radius[self.slots], 0.0)
        per_query = 48 * self.slots.size + 96 * FIRST_LEAVES * len(counts) * points.shape[1]
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
        q = np.asarray(queries, dtype=np.float64).reshape(-1, self.points.shape[2])
        if not np.isfinite(q).all():
            raise ValueError("queries must be finite")
        shape = (len(q), len(self.counts))
        ids, dist, scanned = (np.empty(shape, dtype) for dtype in (np.int64, float, np.int64))
        for lo in range(0, len(q), self.block):
            hi = lo + self.block
            ids[lo:hi], dist[lo:hi], scanned[lo:hi] = self._block(q[lo:hi])
        return ids, dist, scanned

    def _block(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n_q = len(q)
        n_g, width = self.slots.shape
        # 1. the lower bound of every leaf, (query, group, slot)
        bound = np.maximum(_distances(self._centroid, q[:, None, None, :]) - self._radius, 0.0)
        # 2. the leaves with the smallest bounds set an upper bound
        k = min(FIRST_LEAVES, width)
        first = np.argpartition(bound, k - 1, axis=2)[:, :, :k]
        d_first = _distances(self.points[self.slots[np.arange(n_g)[:, None], first]],
                             q[:, None, None, None, :])
        upper = d_first.reshape(n_q, n_g, -1).min(axis=2)
        # 3. scan every leaf within the upper bound, and the least-bound leaf
        # even if rounding lifted its bound above the distance it holds
        upper = np.maximum(upper, bound.min(axis=2))
        qi, gi, si = np.nonzero(bound <= upper[:, :, None])
        leaf = self.slots[gi, si]
        d = _distances(self.points[leaf], q[qi][:, None, :])
        # 4. per (query, group): the least distance, then the least id at it;
        # nonzero lists the pairs in order and every pair scans a leaf
        pair = qi * n_g + gi
        start = pair.searchsorted(np.arange(n_q * n_g))
        best = np.minimum.reduceat(d.min(axis=1), start)
        cand = np.where(d == best[pair][:, None], self.ids[leaf], _NO_ID)
        best_id = np.minimum.reduceat(cand.min(axis=1), start)
        scanned = np.bincount(pair, minlength=n_q * n_g)
        return tuple(a.reshape(n_q, n_g) for a in (best_id, best, scanned))


class BallTree:
    """Exact nearest-neighbor ball tree over a fixed point set.

    Immutable after construction; concurrent queries are safe. Leaves hold at
    most ``leaf_size`` points and every point sits inside its node's ball.
    The leaves are stored only in ``table``, which the query kernel reads.
    """

    def __init__(self, points: np.ndarray, ids: Sequence[int] | None = None,
                 leaf_size: int = DEFAULT_LEAF_SIZE):
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        pts, id_arr = _check_points(points, ids)
        if pts.shape[1] != 5:
            raise ValueError("BallTree indexes 5-D feature vectors")
        self.leaf_size = leaf_size
        pts, id_arr = pts.copy(), id_arr.copy()
        nodes: list[tuple[int, int, np.ndarray, float]] = []
        self._leaves: list[int] = []
        self._build(pts, id_arr, 0, len(pts), nodes)
        start, end, centroid, radius = zip(*nodes)
        self._start, self._end = np.array(start), np.array(end)
        self._centroid, self._radius = np.array(centroid), np.array(radius)

        # leaves are built left to right, so their ranges tile the points
        start, end = self._start[self._leaves], self._end[self._leaves]
        rows = start[:, None] + np.arange((end - start).max())
        real = rows < end[:, None]
        rows = np.where(real, rows, 0)
        self.table = LeafTable(np.where(real[:, :, None], pts[rows], np.inf),
                               np.where(real, id_arr[rows], _NO_ID),
                               self._centroid[self._leaves], self._radius[self._leaves],
                               [len(self._leaves)])

    def _build(self, pts: np.ndarray, ids: np.ndarray, start: int, end: int,
               nodes: list[tuple[int, int, np.ndarray, float]]) -> None:
        seg = pts[start:end]
        centroid = seg.mean(axis=0)
        nodes.append((start, end, centroid, float(_distances(seg, centroid).max())))
        if end - start > self.leaf_size:
            spread = seg.max(axis=0) - seg.min(axis=0)
            dim = int(np.argmax(spread))
            mid = start + (end - start) // 2
            order = np.argpartition(seg[:, dim], mid - start)
            pts[start:end] = seg[order]
            ids[start:end] = ids[start:end][order]
            self._build(pts, ids, start, mid, nodes)
            self._build(pts, ids, mid, end, nodes)
        else:
            self._leaves.append(len(nodes) - 1)

    @property
    def n_points(self) -> int:
        return int(self._end[0])

    @property
    def node_count(self) -> int:
        return len(self._radius)

    @property
    def leaf_count(self) -> int:
        return len(self._leaves)

    def nearest(self, q: np.ndarray) -> tuple[int, float]:
        """Exact nearest point to q: (point_id, distance)."""
        pid, dist, _ = self.nearest_with_stats(q)
        return pid, dist

    def nearest_with_stats(self, q: np.ndarray) -> tuple[int, float, QueryStats]:
        """As nearest(); the stats count the leaf bounds computed (every
        leaf) and the leaves scanned within the upper bound."""
        ids, dist, scanned = self.table.nearest(q)
        return (int(ids[0, 0]), float(dist[0, 0]),
                QueryStats(nodes_visited=self.leaf_count, leaves_visited=int(scanned[0, 0])))

    def containment_slack(self) -> float:
        """Max over nodes of (point distance to centroid - radius); <= 0 when
        every point lies inside its node's ball."""
        worst = -np.inf
        leaf_start = self._start[self._leaves]
        for node in range(self.node_count):
            lo, hi = np.searchsorted(leaf_start, [self._start[node], self._end[node]])
            seg = self.table.points[lo:hi].reshape(-1, 5)
            d = _distances(seg[np.isfinite(seg[:, 0])], self._centroid[node])
            worst = max(worst, float(d.max() - self._radius[node]))
        return worst
