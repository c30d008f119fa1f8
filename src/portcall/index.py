"""Exact nearest-neighbor search over 5-D feature vectors.

A ball tree (the structure used by the classifier) and a linear scan (the
test oracle and the brute benchmark arm) both return the exact nearest point
under the Euclidean metric, ties going to the smallest point id. Every
distance comes from one function, which sums the squares in one written-out
order, so the two agree bit for bit on any numpy build.

The tree is only its leaves. The build splits one level at a time, every
part at once at the median of its dimension of maximum spread, until each
part holds at most ``leaf_size`` points; one array of row edges, ``[0, ...,
n]``, holds the parts, and the first level's may be groups of rows (the
ports), so one split builds many trees. The leaves are kept as a padded
table, a group per tree, with each leaf's centroid, radius and near radius
(its farthest and nearest point's distance); each leaf's points lie
component-major and in order of id, so the scan runs along them. One numpy
kernel answers a block of queries against them all: it takes every (query,
leaf) centroid distance once, from one matrix product. It bounds each leaf
from below by its centroid distance minus its radius and each tree from
above by its least centroid distance plus near radius, widened by a slack
that covers their rounding, then scans every leaf whose bound is ``<=`` its
tree's upper bound, so equal-distance candidates are reached.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

DEFAULT_LEAF_SIZE = 32

# Query blocks are sized from this many bytes at about 28 per leaf bound and 96
# per point of 4 scanned leaves a tree: 53 queries on canonical data, 14 at
# batch-large. Queries scan more (6.0 leaves a port on canonical data, 10.4 on
# the batch-large slice), so a call on a 60-fix route peaks at 3.0 MiB on both.
BLOCK_BYTES = 3 << 20

_NO_ID = np.iinfo(np.int64).max

# Points and queries must have squared norms at most this, which keeps every
# sum the kernel forms finite: |a - b|^2 <= 2|a|^2 + 2|b|^2 <= max / 2.
MAX_SQ_NORM = np.finfo(np.float64).max / 8

# The rounding slack of a leaf bound, SLACK * (largest centroid norm + largest
# query norm), which each group's upper bound takes twice, and the floor of that
# centroid norm; _block derives both.
SLACK = 4 * math.sqrt(np.finfo(np.float64).eps)
NORM_FLOOR = 2.0 ** -500


def _sq_norms(x: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """The squared norm of every vector along x's last axis, and the largest
    of them. Raises ValueError unless that is at most MAX_SQ_NORM, which nan
    and inf fail; einsum, unlike a ufunc, raises no overflow warning."""
    sq = np.einsum("...i,...i->...", x, x)
    largest = sq.max(initial=0.0)
    if not largest <= MAX_SQ_NORM:
        raise ValueError(f"{what} must be finite with squared norms <= {MAX_SQ_NORM:.4g}")
    return sq, float(largest)


def _check_points(points: np.ndarray, ids: Sequence[int] | None) -> tuple[np.ndarray, np.ndarray]:
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] != 5:
        raise ValueError("points must be a non-empty (n, 5) array of feature vectors")
    _sq_norms(pts, "points")
    # an int64 cast would truncate floats, parse strings and wrap uint64s above its range
    id_arr = np.arange(len(pts)) if ids is None else np.asarray(ids)
    if id_arr.shape != (len(pts),) or id_arr.dtype.kind not in "iu" or id_arr.max() > _NO_ID:
        raise ValueError("ids must be integers, one per point")
    return pts, id_arr.astype(np.int64, copy=False)


def _norms(diff: np.ndarray) -> np.ndarray:
    """The Euclidean norms of differences whose 5 components lie along axis
    -2, which it squares in place. Every distance of this module comes from
    here, summed in one written-out order, ((d0^2 + d2^2) + d4^2) + (d1^2 +
    d3^2), so each pair of vectors rounds the same way in every caller."""
    diff *= diff
    s = diff[..., 0, :] + diff[..., 2, :]
    s += diff[..., 4, :]
    s += diff[..., 1, :] + diff[..., 3, :]
    return np.sqrt(s, out=s)


def brute_nearest(points: np.ndarray, q: np.ndarray,
                  ids: Sequence[int] | None = None) -> tuple[int, float]:
    """Linear-scan argmin; ties go to the smallest point id."""
    pts, id_arr = _check_points(points, ids)
    q = np.asarray(q, dtype=np.float64)
    if q.shape != pts.shape[1:]:
        raise ValueError("query must be one vector of the points' width")
    _sq_norms(q, "query")
    return _scan(np.ascontiguousarray(pts.T), id_arr, q)


def _scan(pts_t: np.ndarray, id_arr: np.ndarray, q: np.ndarray) -> tuple[int, float]:
    """brute_nearest on points (5, n), ids and a query it has already checked."""
    d = _norms(pts_t - q[:, None])
    best = d.min()
    return int(id_arr[d == best].min()), float(best)


class LeafTable:
    """The leaves of one or more ball trees (groups), queried together.

    Leaves sit back to back, group by group: ``points`` is (L, 5, S), each
    leaf's 5 components along its S point slots, and ``ids`` is (L, S). A
    leaf's slots hold its points in ascending id order, then its padding
    (``inf`` points, ``_NO_ID`` ids), so its first least distance lies at
    its least id at that distance. ``centroid`` and ``radius`` bound each
    leaf's points, ``near`` is the distance from a leaf's centroid to its
    nearest point, and ``leaf_group`` (L,) names each leaf's group. The
    bounds' centroid terms are ``m2ct``, a contiguous ``-2 * centroid.T``,
    ``c_sq``, each centroid's squared norm, and ``c_max``, the largest
    centroid norm floored at NORM_FLOOR. Every group holds at least one leaf
    and every leaf at least one point. Immutable; concurrent queries are
    safe.
    """

    def __init__(self, points: np.ndarray, ids: np.ndarray, centroid: np.ndarray,
                 radius: np.ndarray, near: np.ndarray, counts: Sequence[int]):
        self.points, self.ids, self.centroid, self.radius = points, ids, centroid, radius
        self.near = near
        self.counts = np.asarray(counts, dtype=np.int64)
        self.offsets = np.cumsum(self.counts) - self.counts
        self.leaf_group = np.repeat(np.arange(len(self.counts)), self.counts)
        per_query = 28 * len(radius) + 96 * 4 * len(self.counts) * points.shape[2]
        self.block = max(1, BLOCK_BYTES // per_query)
        self.m2ct = np.ascontiguousarray(-2.0 * centroid.T)
        self.c_sq = np.einsum("ij,ij->i", centroid, centroid)
        self.c_max = max(math.sqrt(self.c_sq.max()), NORM_FLOOR)

    def nearest(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact nearest point of every group to every query row.

        Returns (ids, distances, leaves scanned), each of shape (n, groups).
        """
        q = np.asarray(queries, dtype=np.float64)
        if q.ndim != 2 or q.shape[1] != self.points.shape[1]:
            raise ValueError("queries must be an (n, 5) array")
        q_sq, q_max = _sq_norms(q, "queries")
        slack = 2 * SLACK * (self.c_max + math.sqrt(q_max))
        if len(q) <= self.block:
            return self._block(q, q_sq, slack)
        parts = [self._block(q[lo:lo + self.block], q_sq[lo:lo + self.block], slack)
                 for lo in range(0, len(q), self.block)]
        return tuple(np.concatenate(a) for a in zip(*parts))

    def _block(self, q: np.ndarray, q_sq: np.ndarray,
               slack: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """nearest() on one block of queries, whose squared norms are q_sq,
        with the groups' upper bounds widened by slack.

        Steps 1-2 only bound, so they take every centroid distance from one
        matrix product, dc = sqrt(max(q.(-2c) + |c|^2 + |q|^2, 0)), and widen
        every group's upper bound by one slack per call, 2*delta with
        delta = K*sqrt(eps)*(C + Q), C the largest centroid norm (c_max) and
        Q the call's largest |q|. Steps 3-4 compute every returned distance
        as brute_nearest does, _norms of a scanned leaf's component-major
        points minus the query, so the answers are exact if no leaf holding a
        point at its group's least distance is pruned. With u = eps/2 and
        g(n) = n*u/(1 - n*u) (Higham, Accuracy and Stability of Numerical
        Algorithms, 2nd ed., 2002, ch. 3):

        - the 5-term dot product and the two squared norms err by at most
          g(5)*(2|q||c| + |c|^2 + |q|^2) = g(5)*(|q| + |c|)^2 (Cauchy-Schwarz),
          and the two adds lift that to g(7)*(|q| + |c|)^2; the clamp at 0
          only moves toward the true value, which is >= 0;
        - |sqrt(a) - sqrt(b)| <= sqrt(|a - b|) turns that into
          sqrt(g(7))*(|q| + |c|) < 1.88*sqrt(eps)*(Q + C) on dc, and the
          square root's own rounding adds u*dc;
        - a leaf is pruned when its lower bound dc - r exceeds its group's
          upper bound, which another leaf's dc + n sets, plus 2*delta; that
          leaf holds a point at distance n (from _norms, as r is) from its
          centroid. So two centroid distances err against each other, by
          less than 3.76*sqrt(eps)*(Q + C), and 2*delta must cover that. Such
          leaves have radii below about Q + C, so the rounding of r and n, of
          the scan distances and of the bound arithmetic (dc - r, dc + n and
          the add of 2*delta) adds a few u*(Q + C), under 1e-6 of the above.

        K = 4 covers it twice over. At the default weights delta is about
        1.2e-7 embedding units, under a metre on the globe. Products that
        underflow err absolutely instead, by at most 2^-1075 each and by
        under 2^-533 through the square roots in all; flooring C at 2^-500
        covers that. The leaf that sets its group's upper bound always
        passes, since rounding keeps dc - r <= dc <= dc + n <= (dc + n) +
        2*delta, so every group scans a leaf; as n <= r, none scans a leaf
        that a bound of dc + r would skip. delta and the matrix product's
        rounding can depend on the other queries of a call, and with them the
        leaves scanned, never the answers.
        """
        n_q, n_g = len(q), len(self.counts)
        # 1. every (query, leaf) centroid distance
        sq = q @ self.m2ct
        sq += self.c_sq
        sq += q_sq[:, None]
        dc = np.sqrt(np.maximum(sq, 0.0, out=sq), out=sq)
        # 2. each group's upper bound: every leaf holds a point at distance near
        upper = np.minimum.reduceat(dc + self.near, self.offsets, axis=1)
        upper += slack
        # 3. scan every leaf whose lower bound is within its group's upper bound
        mask = dc - self.radius <= upper.repeat(self.counts, axis=1)
        qi, leaf = np.divmod(mask.ravel().nonzero()[0], len(self.radius))
        d = self.points[leaf]  # a copy, so the difference is formed and squared in place
        d -= q[qi, :, None]
        d = _norms(d)
        # 4. per scanned leaf, its least distance at its least id (the first
        # argmin, as ids ascend along the slots); then per (query, group) the
        # least distance, then the least id at it. The flat mask lists the
        # pairs in order and every pair scans a leaf
        slot = d.argmin(axis=1)
        least = d[np.arange(len(leaf)), slot]
        least_id = self.ids[leaf, slot]
        pair = qi * n_g + self.leaf_group[leaf]
        start = pair.searchsorted(np.arange(n_q * n_g))
        best = np.minimum.reduceat(least, start)
        best_id = np.minimum.reduceat(np.where(least == best[pair], least_id, _NO_ID), start)
        scanned = np.bincount(pair, minlength=n_q * n_g)
        return tuple(a.reshape(n_q, n_g) for a in (best_id, best, scanned))


class BallTree:
    """Exact nearest-neighbor ball tree over a fixed point set, kept as its
    leaves: ``table`` holds their points, ids, centroid and radii, which is
    all the query kernel reads. The build splits level by level, from the
    consecutive row groups of ``sizes`` (by default one of every row): every
    part of more than ``leaf_size`` points is sorted, stably, on its dimension
    of maximum spread (the first on ties) and split at its median row. No
    part spans two groups, so each group holds, bit for bit, the leaves a
    tree built on its rows alone holds, only padded wider. Every point lies
    inside its leaf's ball, and each leaf's points are laid out in order of
    id. Immutable; concurrent queries are safe.
    """

    def __init__(self, points: np.ndarray, ids: Sequence[int] | None = None,
                 leaf_size: int = DEFAULT_LEAF_SIZE, sizes: Sequence[int] | None = None):
        # bools are ints, and nan, inf or 2.5 pass a `< 1` check but split oddly
        if (not isinstance(leaf_size, (int, np.integer)) or isinstance(leaf_size, bool)
                or leaf_size < 1):
            raise ValueError("leaf_size must be a positive integer")
        pts, id_arr = _check_points(points, ids)
        self.leaf_size = leaf_size
        self.n_points = n = len(pts)
        # an empty group would make the kernel's reduceat read its neighbour's leaves
        sizes = np.asarray([n] if sizes is None else sizes)
        if (sizes.ndim != 1 or sizes.dtype.kind not in "iu" or not (sizes > 0).all()
                or sizes.sum() != n):
            raise ValueError("sizes must be positive integers that sum to the number of points")
        # parts are contiguous row ranges, at first the groups; parts left whole sort on key 0
        first = edges = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
        while True:
            start, count = edges[:-1], np.diff(edges)
            split = count > leaf_size
            if not split.any():
                break
            dim = (np.maximum.reduceat(pts, start) - np.minimum.reduceat(pts, start)).argmax(axis=1)
            part = np.repeat(np.arange(len(count)), count)
            key = np.where(split[part], pts[np.arange(n), dim[part]], 0.0)
            # complex numbers sort on the real part, then the imaginary; both hold exactly
            order = np.argsort(part + 1j * key, kind="stable")
            pts, id_arr = pts[order], id_arr[order]
            del part, key, order  # so the next level and the steps below do not hold them
            edges = np.sort(np.concatenate([edges, (start + count // 2)[split]]))

        centroid = np.add.reduceat(pts, start) / count[:, None]
        dist = _norms((pts - np.repeat(centroid, count, axis=0)).T)
        radius, near = np.maximum.reduceat(dist, start), np.minimum.reduceat(dist, start)
        del dist
        # each leaf's rows in order of id, after its centroid has summed them in split order
        order = np.lexsort((id_arr, np.repeat(np.arange(len(count)), count)))
        pts, id_arr = pts[order], id_arr[order]
        real = np.arange(count.max()) < count[:, None]  # leaves are consecutive rows
        table_pts = np.full((len(count), 5, real.shape[1]), np.inf)
        table_ids = np.full(real.shape, _NO_ID)
        table_pts.transpose(0, 2, 1)[real], table_ids[real] = pts, id_arr
        self.table = LeafTable(table_pts, table_ids, centroid, radius, near,
                               np.diff(edges.searchsorted(first)))

    @property
    def leaf_count(self) -> int:
        return len(self.table.radius)

    def nearest(self, q: np.ndarray) -> tuple[int, float]:
        """Exact nearest point to q over every group: (point_id, distance)."""
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (5,):
            raise ValueError("query must be one 5-D feature vector")
        ids, dist, _ = self.table.nearest(q[None])
        best = dist.min()  # the least distance over the groups, then the least id at it
        return int(ids[dist == best].min()), float(best)

    def containment_slack(self) -> float:
        """Max over points of (distance to its leaf's centroid - that leaf's
        radius); <= 0 when every point lies inside its leaf's ball."""
        t = self.table
        slack = _norms(t.points - t.centroid[:, :, None]) - t.radius[:, None]
        return float(slack[np.isfinite(t.points[:, 0])].max())
