"""Exact nearest-neighbor search over 5-D feature vectors.

Provides a ball tree (the structure used by the classifier) and a vectorized
linear scan used as the test oracle and the brute benchmark arm. Both return
the exact nearest point under the Euclidean metric, breaking distance ties
toward the smallest point id, so they can be cross-checked for identical
results.

Storage follows the usual array-backed layout: points are permuted once at
build time so every node owns a contiguous slice, and nodes live in flat
arrays indexed by position. The tree splits the dimension of maximum spread
at the median, which is deterministic for a fixed input order. Queries walk
an explicit stack, pruning a subtree only when its lower-bound distance
strictly exceeds the current best, so equal-distance candidates are always
reached and the id tie rule matches the linear scan bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Sequence

import numpy as np

DEFAULT_LEAF_SIZE = 32


@dataclass
class QueryStats:
    """Instrumentation for one nearest() call."""

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


def _row_distances(pts: np.ndarray, q: np.ndarray) -> np.ndarray:
    diff = pts - q
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def brute_nearest(points: np.ndarray, q: np.ndarray,
                  ids: Sequence[int] | None = None) -> tuple[int, float]:
    """Linear-scan argmin; ties go to the smallest point id."""
    pts, id_arr = _check_points(points, ids)
    d = _row_distances(pts, np.asarray(q, dtype=np.float64))
    best = d.min()
    if not np.isfinite(best):
        raise ValueError("query must be finite")
    return int(id_arr[d == best].min()), float(best)


class BallTree:
    """Exact nearest-neighbor ball tree over a fixed point set.

    Immutable after construction; concurrent queries are safe. Leaves hold at
    most ``leaf_size`` points and every point sits inside its node's ball.
    """

    def __init__(self, points: np.ndarray, ids: Sequence[int] | None = None,
                 leaf_size: int = DEFAULT_LEAF_SIZE):
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        pts, id_arr = _check_points(points, ids)
        if pts.shape[1] != 5:
            raise ValueError("BallTree indexes 5-D feature vectors")
        self.leaf_size = leaf_size
        self._pts = pts.copy()
        self._ids = id_arr.copy()

        self._centroid: list[tuple[float, ...]] = []
        self._radius: list[float] = []
        self._start: list[int] = []
        self._end: list[int] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._build(0, len(self._pts))

    # -- construction ------------------------------------------------------

    def _build(self, start: int, end: int) -> int:
        node = len(self._radius)
        seg = self._pts[start:end]
        centroid = seg.mean(axis=0)
        radius = float(_row_distances(seg, centroid).max())
        self._centroid.append(tuple(centroid))
        self._radius.append(radius)
        self._start.append(start)
        self._end.append(end)
        self._left.append(-1)
        self._right.append(-1)

        if end - start > self.leaf_size:
            spread = seg.max(axis=0) - seg.min(axis=0)
            dim = int(np.argmax(spread))
            mid = start + (end - start) // 2
            order = np.argpartition(seg[:, dim], mid - start)
            self._pts[start:end] = seg[order]
            self._ids[start:end] = self._ids[start:end][order]
            self._left[node] = self._build(start, mid)
            self._right[node] = self._build(mid, end)
        return node

    # -- queries -----------------------------------------------------------

    @property
    def n_points(self) -> int:
        return len(self._pts)

    @property
    def node_count(self) -> int:
        return len(self._radius)

    @property
    def leaf_count(self) -> int:
        return sum(1 for child in self._left if child < 0)

    def nearest(self, q: np.ndarray) -> tuple[int, float]:
        """Exact nearest point to q: (point_id, distance)."""
        pid, dist, _ = self._search(q, None)
        return pid, dist

    def nearest_with_stats(self, q: np.ndarray) -> tuple[int, float, QueryStats]:
        stats = QueryStats()
        pid, dist, _ = self._search(q, stats)
        return pid, dist, stats

    def _search(self, q: np.ndarray, stats: QueryStats | None):
        qa = np.asarray(q, dtype=np.float64)
        q0, q1, q2, q3, q4 = (float(x) for x in qa)
        centroid = self._centroid
        radius = self._radius
        left = self._left
        right = self._right
        best = float("inf")
        best_id = -1

        stack = [(0, 0.0)]
        while stack:
            node, lb = stack.pop()
            if lb > best:
                continue
            if stats is not None:
                stats.nodes_visited += 1
            lchild = left[node]
            if lchild < 0:
                if stats is not None:
                    stats.leaves_visited += 1
                s, e = self._start[node], self._end[node]
                d = _row_distances(self._pts[s:e], qa)
                m = float(d.min())
                if m < best:
                    best = m
                    best_id = int(self._ids[s:e][d == m].min())
                elif m == best:
                    cand = int(self._ids[s:e][d == m].min())
                    if cand < best_id:
                        best_id = cand
                continue
            rchild = right[node]
            c = centroid[lchild]
            dl = sqrt((c[0] - q0) ** 2 + (c[1] - q1) ** 2 + (c[2] - q2) ** 2
                      + (c[3] - q3) ** 2 + (c[4] - q4) ** 2) - radius[lchild]
            c = centroid[rchild]
            dr = sqrt((c[0] - q0) ** 2 + (c[1] - q1) ** 2 + (c[2] - q2) ** 2
                      + (c[3] - q3) ** 2 + (c[4] - q4) ** 2) - radius[rchild]
            lb_l = dl if dl > 0.0 else 0.0
            lb_r = dr if dr > 0.0 else 0.0
            # push the nearer child last so it is explored first
            if lb_l <= lb_r:
                if lb_r <= best:
                    stack.append((rchild, lb_r))
                stack.append((lchild, lb_l))
            else:
                if lb_l <= best:
                    stack.append((lchild, lb_l))
                stack.append((rchild, lb_r))
        # a non-finite query has no finite distance to any point, so no leaf
        # offers a candidate
        if best_id < 0:
            raise ValueError("query must be finite")
        return best_id, best, stats

    # -- diagnostics ---------------------------------------------------------

    def containment_slack(self) -> float:
        """Max over nodes of (point distance to centroid - radius); <= 0 when
        every point lies inside its node's ball."""
        worst = -np.inf
        for node in range(self.node_count):
            seg = self._pts[self._start[node]:self._end[node]]
            d = _row_distances(seg, np.asarray(self._centroid[node]))
            worst = max(worst, float(d.max() - self._radius[node]))
        return worst
