"""Exact nearest-neighbor structures versus the brute-force oracle."""

import tracemalloc

import numpy as np
import pytest

from portcall import classifier
from portcall.classifier import ModelParams, embed_points, train
from portcall.index import BLOCK_BYTES, BallTree, LeafTable, brute_nearest
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


def test_ties_and_duplicates_match_brute_sweep():
    """Lattice points make exact distance ties and duplicate points common;
    the tree, and a table stacking several trees, must pick the same smallest
    id at the same distance as the linear scan, for every leaf size. The
    stacked ports differ widely in size, so short groups and short leaves are
    padded, one port is a single leaf of one point, and in one every point is
    the same point, so its leaves have radius 0 and all its points tie."""
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
        for leaf_size in (1, 4, 32):
            table = LeafTable.stack([BallTree(p, ids=i, leaf_size=leaf_size).table
                                     for p, i in ports])
            assert (table.group(len(ports) - 1).radius == 0.0).all()
            got_ids, got_d, scanned = table.nearest(queries)
            for g, (p, i) in enumerate(ports):
                assert ((1 <= scanned[:, g]) & (scanned[:, g] <= table.counts[g])).all()
                for k, q in enumerate(queries):
                    assert (int(got_ids[k, g]), float(got_d[k, g])) == brute_nearest(p, q, i)


def test_leaf_table_rejects_block_with_one_non_finite_query():
    trees = [BallTree(np.eye(5)), BallTree(-np.eye(5), leaf_size=2)]
    table = LeafTable.stack([t.table for t in trees])
    for bad in (np.nan, np.inf, -np.inf):
        queries = np.zeros((7, 5))
        queries[4, 2] = bad
        with pytest.raises(ValueError):
            table.nearest(queries)


def test_nearest_with_stats_counts_bounds_and_scans():
    rng = np.random.default_rng(41)
    tree = BallTree(random_instance(rng, 700), leaf_size=8)
    for _ in range(20):
        q = rng.uniform(-2, 2, size=5)
        pid, dist, stats = tree.nearest_with_stats(q)
        assert (pid, dist) == tree.nearest(q)
        assert stats.nodes_visited == tree.leaf_count
        assert 1 <= stats.leaves_visited <= tree.leaf_count


def test_kernel_temporaries_stay_bounded(canonical_routes):
    """Blocks are sized so one nearest() call over a long route allocates
    a few BLOCK_BYTES at most, however many queries it holds."""
    train_part, val = split_routes(canonical_routes, 0.8, 0)
    model = train(train_part, ModelParams())
    longest = max(val, key=lambda r: len(r.points))
    queries = embed_points(longest.points, model.params.weights)
    assert len(queries) > model.table.block
    tracemalloc.start()
    try:
        model.table.nearest(queries)
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
    real = np.isfinite(table.points[lo:hi, :, 0])
    return [(table.ids[k][real[k - lo]], table.points[k][real[k - lo]]) for k in range(lo, hi)]


def test_leaves_tile_the_points_sweep():
    """The leaves are the whole tree: for every size and leaf size each id
    sits in exactly one leaf, with its own point, inside that leaf's ball."""
    rng = np.random.default_rng(42)
    sizes = [1, 2, 3, 33, 2000] + sorted(rng.integers(4, 2000, size=6).tolist())
    for n in sizes:
        pts = random_instance(rng, n)
        ids = rng.permutation(5 * n)[:n]
        for leaf_size in (1, 2, 7, 32, n):
            tree = BallTree(pts, ids=ids, leaf_size=leaf_size)
            rows = table_rows(tree.table)
            assert tree.n_points == n
            assert tree.leaf_count == len(rows) == len(tree.table.radius)
            assert all(1 <= len(leaf_ids) <= leaf_size for leaf_ids, _ in rows)
            got_ids = np.concatenate([leaf_ids for leaf_ids, _ in rows])
            assert sorted(got_ids.tolist()) == sorted(ids.tolist())
            row_of = {pid: k for k, pid in enumerate(ids.tolist())}
            got_pts = np.concatenate([leaf_pts for _, leaf_pts in rows])
            assert np.array_equal(got_pts, pts[[row_of[pid] for pid in got_ids.tolist()]])
            assert tree.containment_slack() <= 0.0


def test_model_table_groups_are_the_port_trees(canonical_routes, monkeypatch):
    """Training stacks every port's leaves into one table; each port's tree
    reads its group of that table, and the group holds the leaves a tree
    built on the port's points alone holds."""
    monkeypatch.setattr(classifier, "DEFAULT_LEAF_SIZE", 8)
    model = train(canonical_routes, ModelParams())
    assert len(model.per_port) > 1
    for g, ix in enumerate(model.per_port.values()):
        group, tree_table = model.table.group(g), ix.tree.table
        assert np.shares_memory(tree_table.points, model.table.points)
        for name in ("points", "ids", "centroid", "radius"):
            assert np.array_equal(getattr(tree_table, name), getattr(group, name))
        pts = list(ix.points.values())
        alone = BallTree(embed_points(pts, model.params.weights),
                         ids=[p.point_id for p in pts], leaf_size=8).table
        assert np.array_equal(group.centroid, alone.centroid)
        assert np.array_equal(group.radius, alone.radius)
        for (ids_a, pts_a), (ids_b, pts_b) in zip(table_rows(group), table_rows(alone),
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
        _, _, stats = tree.nearest_with_stats(q)
        assert stats.leaves_visited <= tree.leaf_count
        total_visited += stats.leaves_visited
    # pruning must actually bite on clustered data, not merely not crash
    assert total_visited < 50 * tree.leaf_count / 2


def test_custom_ids_flow_through():
    rng = np.random.default_rng(37)
    pts = random_instance(rng, 64)
    ids = [1000 + 3 * i for i in range(64)]
    tree = BallTree(pts, ids=ids, leaf_size=4)
    q = rng.uniform(-1, 1, size=5)
    pid, dist = tree.nearest(q)
    b_pid, b_dist = brute_nearest(pts, q, np.array(ids))
    assert pid == b_pid
    assert dist == b_dist


def test_input_validation():
    with pytest.raises(ValueError):
        BallTree(np.empty((0, 5)))
    with pytest.raises(ValueError):
        BallTree(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        BallTree(np.zeros((4, 5)), leaf_size=0)
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
            tree.nearest_with_stats(q)
        with pytest.raises(ValueError):
            brute_nearest(np.eye(5), q)
    # a query is one 5-vector for a tree and an (n, 5) block for a table,
    # never any array whose size happens to be a multiple of 5
    e1, e3 = np.eye(5)[1], np.eye(5)[3]
    for bad in (np.r_[e3, e1], np.zeros((2, 2, 5)), np.zeros((1, 5)), np.zeros(4)):
        with pytest.raises(ValueError):
            tree.nearest(bad)
        with pytest.raises(ValueError):
            tree.nearest_with_stats(bad)
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


def test_build_does_not_mutate_input():
    rng = np.random.default_rng(38)
    pts = random_instance(rng, 128)
    snapshot = pts.copy()
    BallTree(pts, leaf_size=4)
    assert np.array_equal(pts, snapshot)
