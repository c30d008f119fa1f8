"""Exact nearest-neighbor structures versus the brute-force oracle."""

import copy
import math
import tracemalloc

import numpy as np
import pytest

from portcall import classifier
from portcall.classifier import ModelParams, embed_points, train
from portcall.index import _NO_ID, BLOCK_BYTES, NORM_FLOOR, SLACK, BallTree, brute_nearest
from portcall.tuner import split_routes


def random_instance(rng, n):
    # half clustered, half uniform: clusters give pruning something to skip
    n_clustered = n // 2
    centers = rng.normal(0.0, 1.0, size=(max(1, n // 50), 5))
    rows = [centers[rng.integers(0, len(centers))] + rng.normal(0.0, 0.05, size=5)
            for _ in range(n_clustered)]
    rows.extend(rng.uniform(-1.5, 1.5, size=5) for _ in range(n - n_clustered))
    return np.array(rows).reshape(n, 5)


def reference_nearest(points, q):
    """Independent argmin oracle, coded apart from the library kernel."""
    best_i, best_d = 0, None
    for i, p in enumerate(points):
        d = float(np.sqrt(float(np.sum((p - q) ** 2))))
        if best_d is None or d < best_d or (d == best_d and i < best_i):
            best_i, best_d = i, d
    return best_i, best_d


def test_single_point_tree():
    pts = np.array([[0.1, 0.2, 0.3, 0.4, 0.5]])
    tree = BallTree(pts)
    q = np.zeros(5)
    pid, dist = tree.nearest(q)
    assert pid == 0
    assert dist == pytest.approx(float(np.linalg.norm(pts[0])), abs=1e-12)
    assert tree.leaf_count == 1


def test_small_instance_is_single_leaf():
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(20, 5))
    tree = BallTree(pts, leaf_size=32)
    assert tree.leaf_count == 1


def test_query_equal_to_point():
    rng = np.random.default_rng(32)
    pts = rng.normal(size=(300, 5))
    tree = BallTree(pts, leaf_size=8)
    for i in (0, 57, 299):
        pid, dist = tree.nearest(pts[i])
        assert pid == i
        assert dist == 0.0


def test_tie_breaks_to_smallest_id():
    # two points mirrored about the origin: equidistant from it
    pts = np.array([
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0, 0.0],
    ])
    q = np.zeros(5)
    assert BallTree(pts).nearest(q) == (0, 1.0)
    assert brute_nearest(pts, q) == (0, 1.0)

    # same geometry, custom ids: the smaller id must win regardless of order
    pid, _ = BallTree(pts, ids=[7, 3]).nearest(q)
    assert pid == 3


def test_agreement_with_brute_and_reference():
    rng = np.random.default_rng(33)
    for trial in range(20):
        n = int(rng.integers(1, 600))
        pts = random_instance(rng, n)
        ball = BallTree(pts, leaf_size=16)
        for _ in range(20):
            q = rng.uniform(-2, 2, size=5)
            b_id, b_d = brute_nearest(pts, q)
            t_id, t_d = ball.nearest(q)
            r_id, r_d = reference_nearest(pts, q)
            assert t_id == b_id == r_id
            assert t_d == pytest.approx(b_d, abs=1e-9)
            assert b_d == pytest.approx(r_d, abs=1e-9)


def lattice_points(rng, n):
    return rng.integers(-1, 2, size=(n, 5)).astype(float), rng.permutation(10 * n)[:n]


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_ties_and_duplicates_match_brute_sweep():
    """Lattice points make exact distance ties and duplicate points common;
    the tree, and a tree of several groups (ports), must pick the same
    smallest id at the same distance as the linear scan, for every leaf size.
    The ports differ widely in size, so short groups and short leaves are
    padded, one port is a single leaf of one point, and in one every point is
    the same point, so its leaves have radius 0 and all its points tie. Each
    group holds, bit for bit, the leaves of a tree built on its port alone,
    and the grouped tree answers over every port."""
    rng = np.random.default_rng(39)
    for _ in range(40):
        n = int(rng.integers(1, 300))
        pts, ids = lattice_points(rng, n)
        queries = rng.integers(-2, 3, size=(20, 5)) / 2.0
        for leaf_size in (1, 4, 32):
            tree = BallTree(pts, ids=ids, leaf_size=leaf_size)
            for q in queries:
                assert tree.nearest(q) == brute_nearest(pts, q, ids)
        n_same = int(rng.integers(2, 80))
        same = (np.tile(rng.integers(-1, 2, size=5).astype(float), (n_same, 1)),
                rng.permutation(10 * n_same)[:n_same])
        ports = [(pts, ids), lattice_points(rng, 1), lattice_points(rng, int(rng.integers(2, 8))),
                 lattice_points(rng, int(rng.integers(300, 600))), same]
        all_pts, all_ids = (np.concatenate(cols) for cols in zip(*ports))
        for leaf_size in (1, 4, 32):
            tree = BallTree(all_pts, ids=all_ids, leaf_size=leaf_size,
                            sizes=[len(p) for p, _ in ports])
            table = tree.table
            assert (table.radius[table.offsets[-1]:] == 0.0).all()
            assert (table.near[table.offsets[-1]:] == 0.0).all()
            got_ids, got_d, scanned = table.nearest(queries)
            for g, (p, i) in enumerate(ports):
                assert ((1 <= scanned[:, g]) & (scanned[:, g] <= table.counts[g])).all()
                for k, q in enumerate(queries):
                    assert (int(got_ids[k, g]), float(got_d[k, g])) == brute_nearest(p, q, i)
                alone = BallTree(p, ids=i, leaf_size=leaf_size)
                width = alone.table.ids.shape[1]
                group = slice(table.offsets[g], table.offsets[g] + table.counts[g])
                points, group_ids = table.points[group], table.ids[group]
                assert int(np.isfinite(points[:, 0]).sum()) == alone.n_points
                assert table.counts[g] == alone.leaf_count
                assert same_bits(points[:, :, :width], alone.table.points)
                assert same_bits(group_ids[:, :width], alone.table.ids)
                assert np.isinf(points[:, :, width:]).all()
                assert (group_ids[:, width:] == _NO_ID).all()
                assert same_bits(table.centroid[group], alone.table.centroid)
                assert same_bits(table.radius[group], alone.table.radius)
                assert same_bits(table.near[group], alone.table.near)
            for q in queries:
                assert tree.nearest(q) == brute_nearest(all_pts, q, all_ids)


def test_clustered_near_ties_match_brute_sweep():
    """Tight clusters around unit-norm centres, queried from inside them:
    centroid distances sit far below the centroid norms, so the matrix
    product that bounds the leaves keeps few of their digits, and at the
    1e-155 scale the squares underflow. The rounding slack must still keep
    every leaf that holds the nearest point, at every offset, scale and leaf
    size: with no slack 268 of these 2,700 queries go wrong, and with no
    floor under the centroid norm 15."""
    rng = np.random.default_rng(43)
    for offset in np.logspace(-12, 0, 9):
        for scale in (1e-155, 1e-3, 1.0, 1e3, 1e6):
            centres = rng.normal(size=(3, 5))
            centres /= np.linalg.norm(centres, axis=1)[:, None]
            pts = (centres[rng.integers(0, 3, size=200)]
                   + offset * rng.normal(size=(200, 5))) * scale
            ids = rng.permutation(1000)[:200]
            queries = (centres[rng.integers(0, 3, size=20)]
                       + offset * rng.normal(size=(20, 5))) * scale
            for leaf_size in (1, 4, 32):
                tree = BallTree(pts, ids=ids, leaf_size=leaf_size)
                for q in queries:
                    assert tree.nearest(q) == brute_nearest(pts, q, ids)


def test_block_invariance_sweep():
    """One nearest() call over n queries answers as n one-query calls, in
    ids, distances and leaves scanned, whatever the block size: 1, 3 or
    the table's own. The kernel takes each leaf's least id at its least
    distance as that leaf's first argmin, so every leaf's real ids ascend
    and its padding comes after them. The inputs are lattice ties and
    duplicates, and tight clusters of near-ties at scales 1e-150 to 1e6."""
    rng = np.random.default_rng(49)
    cases = []
    for _ in range(6):
        sizes = rng.integers(1, 200, size=3)
        pts, ids = lattice_points(rng, int(sizes.sum()))
        cases.append((pts, ids, sizes, rng.integers(-2, 3, size=(16, 5)) / 2.0))
    for scale in (1e-150, 1e-3, 1.0, 1e3, 1e6):
        for offset in (1e-12, 1e-6, 1e-2):
            centres = rng.normal(size=(3, 5))
            centres /= np.linalg.norm(centres, axis=1)[:, None]
            pts = (centres[rng.integers(0, 3, size=150)]
                   + offset * rng.normal(size=(150, 5))) * scale
            queries = (centres[rng.integers(0, 3, size=16)]
                       + offset * rng.normal(size=(16, 5))) * scale
            cases.append((pts, rng.permutation(1000)[:150], [60, 90], queries))
    for pts, ids, sizes, queries in cases:
        for leaf_size in (1, 4, 32):
            table = BallTree(pts, ids=ids, leaf_size=leaf_size, sizes=sizes).table
            real = np.isfinite(table.points[:, 0])
            n_real = real.sum(axis=1)
            assert (real == (np.arange(real.shape[1]) < n_real[:, None])).all()
            assert (table.ids[~real] == _NO_ID).all()
            for leaf_ids, n in zip(table.ids, n_real):
                assert (np.diff(leaf_ids[:n]) > 0).all()
            one_by_one = [np.concatenate(a) for a in zip(*(table.nearest(q[None])
                                                         for q in queries))]
            for block in (1, 3, table.block):
                blocked = copy.copy(table)
                blocked.block = block
                for got, want in zip(blocked.nearest(queries), one_by_one, strict=True):
                    assert same_bits(got, want)


def ordered_norm(d):
    """The one order in which the index sums a difference's squares."""
    return math.sqrt(((d[0] * d[0] + d[2] * d[2]) + d[4] * d[4]) + (d[1] * d[1] + d[3] * d[3]))


def test_distances_sum_in_one_written_out_order_sweep():
    """Every distance the kernel and the brute scan return, and every leaf's
    radius and near radius, is ordered_norm of the difference in Python
    floats, bit for bit, at scales from 1e-155 (whose squares are subnormal)
    to 1e150, so the two agree on any numpy build. The farthest point of each
    leaf then lies exactly on its ball, its nearest point exactly at its near
    radius, and the sweep tells that order from a left-to-right sum."""
    rng = np.random.default_rng(47)
    other_order = 0
    for scale in (1e-155, 1e-50, 1e-3, 1.0, 1e3, 1e50, 1e150):
        pts = rng.normal(size=(120, 5)) * rng.uniform(0.1, 10.0, size=(120, 1)) * scale
        ids = rng.permutation(1000)[:120]
        queries = rng.normal(size=(8, 5)) * scale
        tree = BallTree(pts, ids=ids, leaf_size=8, sizes=[50, 70])
        got_ids, got_d, _ = tree.table.nearest(queries)
        for k, q in enumerate(queries):
            diffs = [[float(a) - float(b) for a, b in zip(p, q)] for p in pts]
            dist = [ordered_norm(d) for d in diffs]
            other_order += sum(x != math.sqrt(sum(c * c for c in d)) for x, d in zip(dist, diffs))
            want = [min(zip(dist[lo:hi], ids[lo:hi].tolist())) for lo, hi in ((0, 50), (50, 120))]
            assert list(zip(got_d[k].tolist(), got_ids[k].tolist())) == want
            assert brute_nearest(pts, q, ids) == min(want)[::-1]
        table = tree.table
        leaves = [rows for g in range(2) for rows in table_rows(table, g)]
        for (_, leaf_pts), c, radius, near in zip(leaves, table.centroid, table.radius,
                                                  table.near, strict=True):
            dist = [ordered_norm([float(a) - float(b) for a, b in zip(p, c)]) for p in leaf_pts]
            assert radius == max(dist) and near == min(dist)
            assert 0.0 <= near <= radius
        assert tree.containment_slack() == 0.0
    assert other_order > 0


def radius_bound_scans(table, queries):
    """Leaves scanned per (query, group) by the kernel's rule with each
    group's upper bound taken as its least centroid distance plus radius,
    not plus near radius: the same centroid distances, slack and lower
    bounds, from the table's own arrays, for queries that fit one block."""
    assert len(queries) <= table.block
    q_sq = np.einsum("...i,...i->...", queries, queries)
    sq = queries @ table.m2ct
    sq += table.c_sq
    sq += q_sq[:, None]
    dc = np.sqrt(np.maximum(sq, 0.0))
    slack = 2 * SLACK * (table.c_max + math.sqrt(q_sq.max()))
    upper = np.minimum.reduceat(dc + table.radius, table.offsets, axis=1) + slack
    mask = dc - table.radius <= upper.repeat(table.counts, axis=1)
    return np.add.reduceat(mask.astype(np.int64), table.offsets, axis=1)


def test_near_radius_bound_scans_a_subset_sweep():
    """Bounding each group from above by its least centroid distance plus
    near radius scans at least one leaf of every (query, group), and never
    more than the radius bound would, on lattice ties and duplicates and on
    tight clusters of near-ties at scales 1e-150 to 1e6, while the answers
    stay the linear scan's."""
    rng = np.random.default_rng(53)
    cases = []
    for _ in range(8):
        sizes = rng.integers(1, 250, size=3)
        pts, ids = lattice_points(rng, int(sizes.sum()))
        cases.append((pts, ids, sizes, rng.integers(-2, 3, size=(16, 5)) / 2.0))
    for scale in (1e-150, 1e-3, 1.0, 1e6):
        for offset in (1e-12, 1e-6, 1e-2, 1.0):
            centres = rng.normal(size=(3, 5))
            centres /= np.linalg.norm(centres, axis=1)[:, None]
            pts = (centres[rng.integers(0, 3, size=180)]
                   + offset * rng.normal(size=(180, 5))) * scale
            queries = (centres[rng.integers(0, 3, size=16)]
                       + offset * rng.normal(size=(16, 5))) * scale
            cases.append((pts, rng.permutation(1000)[:180], [70, 110], queries))
    fewer = 0
    for pts, ids, sizes, queries in cases:
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        for leaf_size in (1, 4, 32):
            table = BallTree(pts, ids=ids, leaf_size=leaf_size, sizes=sizes).table
            got_ids, got_d, scanned = table.nearest(queries)
            old = radius_bound_scans(table, queries)
            assert (1 <= scanned).all() and (scanned <= old).all()
            fewer += int((scanned < old).sum())
            for g, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                for k, q in enumerate(queries):
                    assert ((int(got_ids[k, g]), float(got_d[k, g]))
                            == brute_nearest(pts[lo:hi], q, ids[lo:hi]))
    assert fewer > 0


def test_canonical_holdout_scans_fewer_leaves(canonical_routes):
    """The near-radius bound's gain, pinned: on the canonical model the
    held-out points scan about 6.03 leaves per (query, port), where the
    radius bound scanned 8.12."""
    train_part, val = split_routes(canonical_routes, 0.8, 0)
    model = train(train_part, ModelParams())
    scanned = np.concatenate([model.table.nearest(embed_points(r.points, model.params.weights))[2]
                              for r in val])
    assert scanned.shape == (1719, 5)
    assert scanned.mean() < 6.5


def test_leaf_table_rejects_block_with_one_non_finite_query():
    table = BallTree(np.concatenate([np.eye(5), -np.eye(5)]), leaf_size=2, sizes=[5, 5]).table
    for bad in (np.nan, np.inf, -np.inf):
        queries = np.zeros((7, 5))
        queries[4, 2] = bad
        with pytest.raises(ValueError):
            table.nearest(queries)


def test_group_sizes_must_be_positive_and_cover_every_point():
    # and be integers: a cast would truncate [2.5, 3.5] to groups of 2 and 3
    for sizes in ([0, 5], [6, -1], [2, 2], [3, 3], [], [[5]],
                  [2.5, 3.5], np.array([1.0, 4.0]), ["2", "3"], [True] * 5):
        with pytest.raises(ValueError, match="sizes"):
            BallTree(np.eye(5), sizes=sizes)
    assert BallTree(np.eye(5), sizes=[1, 4]).table.counts.tolist() == [1, 1]
    unsigned = np.array([1, 4], dtype=np.uint32)
    assert BallTree(np.eye(5), sizes=unsigned).table.counts.tolist() == [1, 1]


def test_grouped_tree_nearest_answers_over_every_group():
    """A tree of several groups answers over all its points, not its first
    group's: here the nearest point sits in the last group, and a tie
    across groups goes to the smaller id wherever it sits."""
    pts = np.concatenate([np.eye(5), 2 * np.eye(5), [np.zeros(5)]])
    ids = [10, 11, 12, 13, 14, 0, 1, 2, 3, 4, 20]
    tree = BallTree(pts, ids=ids, leaf_size=2, sizes=[5, 5, 1])
    assert tree.nearest(np.zeros(5)) == (20, 0.0)
    assert tree.nearest(1.5 * np.eye(5)[2]) == (2, 0.5)
    for q in np.random.default_rng(45).integers(-2, 3, size=(50, 5)) / 2.0:
        assert tree.nearest(q) == brute_nearest(pts, q, ids)


def test_single_query_counts_scanned_leaves():
    rng = np.random.default_rng(41)
    pts = random_instance(rng, 700)
    tree = BallTree(pts, leaf_size=8)
    for _ in range(20):
        q = rng.uniform(-2, 2, size=5)
        ids, dist, scanned = tree.table.nearest(q[None])
        assert (int(ids[0, 0]), float(dist[0, 0])) == tree.nearest(q) == brute_nearest(pts, q)
        assert 1 <= scanned[0, 0] <= tree.leaf_count


def lanes(rng, ports, dest, n_routes, n_points):
    """Route-like points: noisy straight runs from other ports to ports[dest],
    each fix's last two components its run's scaled heading, as embedded."""
    origin = ports[(dest + rng.integers(1, len(ports), size=n_routes)) % len(ports)]
    run = ports[dest] - origin
    pos = (origin[:, None] + rng.uniform(size=(n_routes, n_points, 1)) * run[:, None]
           + rng.normal(0.0, 1e-3, size=(n_routes, n_points, 3)))
    heading = 0.25 * run[:, :2] / np.linalg.norm(run[:, :2], axis=1, keepdims=True)
    heading = np.broadcast_to(heading[:, None], (n_routes, n_points, 2))
    return np.concatenate([pos, heading], axis=2).reshape(-1, 5)


def test_kernel_temporaries_stay_bounded(canonical_routes):
    """Blocks are sized so one nearest() call over a long route allocates
    a few BLOCK_BYTES at most, however many queries it holds: on the
    canonical model (320 leaves) and on a table shaped like the 10 x 250
    fleet's, 10 ports of 9,000 route-like points in 5,120 leaves, whose
    queries scan about 13 leaves a port."""
    train_part, val = split_routes(canonical_routes, 0.8, 0)
    model = train(train_part, ModelParams())
    longest = max(val, key=lambda r: len(r.points))
    rng = np.random.default_rng(48)
    ports = rng.normal(size=(10, 3))
    fleet = BallTree(np.concatenate([lanes(rng, ports, g, 200, 45) for g in range(10)]),
                     sizes=[9000] * 10).table
    assert len(fleet.radius) == 5120
    for table, queries in ((model.table, embed_points(longest.points, model.params.weights)),
                           (fleet, lanes(rng, ports, 0, 1, 60))):
        assert len(queries) > table.block
        tracemalloc.start()
        try:
            table.nearest(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * BLOCK_BYTES


def test_leaf_size_variations_agree():
    rng = np.random.default_rng(34)
    pts = random_instance(rng, 500)
    queries = rng.uniform(-2, 2, size=(30, 5))
    answers = None
    for leaf_size in (1, 2, 7, 32, 500):
        tree = BallTree(pts, leaf_size=leaf_size)
        got = [tree.nearest(q) for q in queries]
        if answers is None:
            answers = got
        assert got == answers


def test_ball_containment_invariant():
    rng = np.random.default_rng(35)
    for n in (1, 10, 100, 1000):
        pts = random_instance(rng, n)
        tree = BallTree(pts, leaf_size=8)
        assert tree.containment_slack() <= 0.0


def table_rows(table, g=0):
    """Group g's leaves as (ids, points) of its real rows, leaf by leaf."""
    lo, hi = table.offsets[g], table.offsets[g] + table.counts[g]
    real = np.isfinite(table.points[lo:hi, 0])
    return [(table.ids[k][real[k - lo]], table.points[k].T[real[k - lo]]) for k in range(lo, hi)]


def median_split_leaves(pts, ids, leaf_size):
    """Recursive oracle of the build: a part of more than leaf_size points
    splits at the median of its dimension of maximum spread (the first on
    ties), its len // 2 smallest keys going left. Returns the leaves' id
    sets, left part first."""
    if len(pts) <= leaf_size:
        return [set(ids.tolist())]
    dim = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
    order = np.argsort(pts[:, dim], kind="stable")
    left, right = order[:len(pts) // 2], order[len(pts) // 2:]
    return (median_split_leaves(pts[left], ids[left], leaf_size)
            + median_split_leaves(pts[right], ids[right], leaf_size))


def test_leaves_tile_the_points_sweep():
    """The leaves are the whole tree: for every size and leaf size each id
    sits in exactly one leaf, with its own point, inside that leaf's ball.
    With distinct coordinates the split is unique, so the leaves are the
    recursive oracle's, in its order: an exact search cannot see a wrong
    split dimension or median, which only makes it scan more leaves."""
    rng = np.random.default_rng(42)
    sizes = [1, 2, 3, 33, 2000] + sorted(rng.integers(4, 2000, size=6).tolist())
    for n in sizes:
        pts = random_instance(rng, n)
        ids = rng.permutation(5 * n)[:n]
        assert all(len(np.unique(col)) == n for col in pts.T)
        for leaf_size in (1, 2, 7, 32, n):
            tree = BallTree(pts, ids=ids, leaf_size=leaf_size)
            rows = table_rows(tree.table)
            assert ([set(leaf_ids.tolist()) for leaf_ids, _ in rows]
                    == median_split_leaves(pts, ids, leaf_size))
            assert tree.n_points == n
            assert tree.leaf_count == len(rows) == len(tree.table.radius)
            assert all(1 <= len(leaf_ids) <= leaf_size for leaf_ids, _ in rows)
            got_ids = np.concatenate([leaf_ids for leaf_ids, _ in rows])
            assert sorted(got_ids.tolist()) == sorted(ids.tolist())
            row_of = {pid: k for k, pid in enumerate(ids.tolist())}
            got_pts = np.concatenate([leaf_pts for _, leaf_pts in rows])
            assert np.array_equal(got_pts, pts[[row_of[pid] for pid in got_ids.tolist()]])
            assert tree.containment_slack() <= 0.0


def test_tied_lattice_splits_at_the_median_row():
    """On a 3^5 grid with repeated points every median is tied, so which
    tied point goes left is free, but each part still splits at its median
    row: the leaf sizes, in order, are the oracle's."""
    rng = np.random.default_rng(44)
    grid = np.stack(np.meshgrid(*[np.arange(3.0)] * 5, indexing="ij"), axis=-1).reshape(-1, 5)
    pts = np.concatenate([grid, grid[rng.integers(0, len(grid), size=120)]])
    pts = pts[rng.permutation(len(pts))]
    ids = rng.permutation(len(pts))
    for leaf_size in (1, 2, 7, 32):
        tree = BallTree(pts, ids=ids, leaf_size=leaf_size)
        assert ([len(leaf_ids) for leaf_ids, _ in table_rows(tree.table)]
                == [len(leaf) for leaf in median_split_leaves(pts, ids, leaf_size)])
        assert tree.containment_slack() <= 0.0


def test_model_table_groups_are_the_port_trees(canonical_routes, monkeypatch):
    """Training builds one tree whose groups are the ports, and keeps its
    table; each port's tree, which per_port builds from the port's map alone,
    holds the leaves of the port's group of that table, with the same
    centroid terms of the leaf bounds."""
    monkeypatch.setattr(classifier, "DEFAULT_LEAF_SIZE", 8)
    model = train(canonical_routes, ModelParams())
    assert len(model.per_port) > 1
    t = model.table
    assert t.m2ct.flags.c_contiguous and np.array_equal(t.m2ct, -2.0 * t.centroid.T)
    assert np.array_equal(t.c_sq, np.einsum("ij,ij->i", t.centroid, t.centroid))
    assert t.c_max == max(math.sqrt(t.c_sq.max()), NORM_FLOOR)
    for g, ix in enumerate(model.per_port.values()):
        lo, hi = t.offsets[g], t.offsets[g] + t.counts[g]
        alone = ix.tree.table
        assert ix.tree.n_points == len(ix.points) == int(np.isfinite(t.points[lo:hi, 0]).sum())
        assert ix.tree.leaf_count == t.counts[g]
        for name in ("centroid", "radius", "near", "c_sq"):
            assert np.array_equal(getattr(t, name)[lo:hi], getattr(alone, name))
        assert np.array_equal(t.m2ct[:, lo:hi], alone.m2ct)
        assert max(math.sqrt(t.c_sq[lo:hi].max()), NORM_FLOOR) == alone.c_max
        for (ids_a, pts_a), (ids_b, pts_b) in zip(table_rows(t, g), table_rows(alone),
                                                  strict=True):
            assert np.array_equal(ids_a, ids_b)
            assert np.array_equal(pts_a, pts_b)


def test_pruning_visits_fewer_leaves_than_total():
    rng = np.random.default_rng(36)
    pts = random_instance(rng, 2000)
    tree = BallTree(pts, leaf_size=8)
    assert tree.leaf_count > 10
    total_visited = 0
    for _ in range(50):
        q = rng.uniform(-2, 2, size=5)
        scanned = int(tree.table.nearest(q[None])[2][0, 0])
        assert scanned <= tree.leaf_count
        total_visited += scanned
    # pruning must actually bite on clustered data, not merely not crash
    assert total_visited < 50 * tree.leaf_count / 2


def test_custom_ids_flow_through():
    rng = np.random.default_rng(37)
    pts = random_instance(rng, 64)
    ids = [1000 + 3 * i for i in range(64)]
    tree = BallTree(pts, ids=ids, leaf_size=4)
    q = rng.uniform(-1, 1, size=5)
    pid, dist = tree.nearest(q)
    b_pid, b_dist = brute_nearest(pts, q, np.array(ids, dtype=np.uint16))
    assert pid == b_pid
    assert dist == b_dist


def test_input_validation():
    with pytest.raises(ValueError):
        BallTree(np.empty((0, 5)))
    # _norms sums 5 components, so other widths would index past or skip some
    for width in (3, 7):
        with pytest.raises(ValueError):
            BallTree(np.zeros((4, width)))
        with pytest.raises(ValueError):
            brute_nearest(np.zeros((4, width)), np.zeros(width))
    # leaf_size is a positive integer: nan and inf compare as no split or
    # always split, 2.5 and True split as 2 and 1
    for leaf_size in (0, -3, np.int64(0), math.nan, math.inf, 2.5, 32.0, True, np.bool_(True),
                      "32", None, np.array([4])):
        with pytest.raises(ValueError, match="leaf_size must be a positive integer"):
            BallTree(np.zeros((4, 5)), leaf_size=leaf_size)
    for leaf_size in (2, np.int64(2), np.uint8(2)):
        assert BallTree(np.zeros((4, 5)), leaf_size=leaf_size).leaf_count == 2
    # ids must be integers that int64 holds, which a cast would truncate
    # (floats), parse (strings) or wrap to negative ids (uint64s above its range)
    for ids in ([0.5, 1.5, 2.5, 3.5, 4.5], np.arange(5.0), list("01234"),
                [True, False, True, False, True],
                np.array([2**63 + 5, 7, 9, 1, 2], dtype=np.uint64)):
        with pytest.raises(ValueError, match="ids"):
            BallTree(np.eye(5), ids=ids)
        with pytest.raises(ValueError, match="ids"):
            brute_nearest(np.eye(5), np.zeros(5), ids=ids)
    largest = np.array([2**63 - 1, 7, 9, 1, 2], dtype=np.uint64)
    e0 = np.eye(5)[0]
    assert BallTree(np.eye(5), ids=largest).nearest(e0) == (2**63 - 1, 0.0)
    assert brute_nearest(np.eye(5), e0, largest) == (2**63 - 1, 0.0)
    pts = np.zeros((4, 5))
    pts[2, 1] = np.nan
    with pytest.raises(ValueError):
        BallTree(pts)
    tree = BallTree(np.eye(5), leaf_size=2)
    for bad in (np.nan, np.inf, -np.inf):
        q = np.zeros(5)
        q[3] = bad
        with pytest.raises(ValueError):
            tree.nearest(q)
        with pytest.raises(ValueError):
            brute_nearest(np.eye(5), q)
    # a query is one 5-vector for a tree and an (n, 5) block for a table,
    # never any array whose size happens to be a multiple of 5
    e1, e3 = np.eye(5)[1], np.eye(5)[3]
    for bad in (np.r_[e3, e1], np.zeros((2, 2, 5)), np.zeros((1, 5)), np.zeros(4)):
        with pytest.raises(ValueError):
            tree.nearest(bad)
    with pytest.raises(ValueError):
        brute_nearest(np.eye(5), np.r_[e3, e1])
    # the scan would broadcast these against the points and answer
    seven = np.arange(35.0).reshape(7, 5)
    for points, bad in ((seven, seven), (np.eye(5), np.zeros((5, 1))),
                        (np.eye(5), np.zeros((1, 5)))):
        with pytest.raises(ValueError):
            brute_nearest(points, bad)
    for bad in (np.r_[e3, e1], np.zeros((2, 2, 5)), np.zeros((2, 4))):
        with pytest.raises(ValueError):
            tree.table.nearest(bad)
    assert [a.shape for a in tree.table.nearest(np.zeros((0, 5)))] == [(0, 1)] * 3
    # a squared norm past MAX_SQ_NORM (1e200 overflows it to inf) could
    # overflow a distance or a bound: tree, table and scan all refuse it
    for big in (1e200, 3e153):
        with pytest.raises(ValueError):
            BallTree(np.eye(5)).nearest(np.full(5, big))
        with pytest.raises(ValueError):
            tree.table.nearest(np.full((2, 5), big))
        with pytest.raises(ValueError):
            brute_nearest(np.eye(5), np.full(5, big))
        with pytest.raises(ValueError):
            BallTree(np.full((3, 5), big))
        with pytest.raises(ValueError):
            brute_nearest(np.full((3, 5), big), np.zeros(5))
    edge = np.full((3, 5), 1e153)
    assert BallTree(edge).nearest(-edge[0]) == brute_nearest(edge, -edge[0])


def test_build_does_not_mutate_input():
    rng = np.random.default_rng(38)
    pts = random_instance(rng, 128)
    ids = rng.permutation(1000)[:128].astype(np.int64)
    snapshot, id_snapshot = pts.copy(), ids.copy()
    BallTree(pts, ids=ids, leaf_size=4)
    assert np.array_equal(pts, snapshot)
    assert np.array_equal(ids, id_snapshot)
    # the table owns its arrays, whether the build reordered rows or not:
    # overwriting the caller's arrays afterwards changes neither it nor an answer
    queries = rng.uniform(-1.5, 1.5, size=(20, 5))
    for leaf_size in (128, 4):
        pts, ids = snapshot.copy(), id_snapshot.copy()
        table = BallTree(pts, ids=ids, leaf_size=leaf_size).table
        arrays = [a.copy() for a in (table.points, table.ids, table.centroid, table.radius)]
        answers = table.nearest(queries)
        pts[:], ids[:] = -pts, -ids
        for a, b in zip(arrays, (table.points, table.ids, table.centroid, table.radius)):
            assert np.array_equal(a, b)
        for a, b in zip(answers, table.nearest(queries)):
            assert np.array_equal(a, b)
