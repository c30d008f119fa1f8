"""Exact nearest-neighbor structures versus the brute-force oracle."""

import numpy as np
import pytest

from portcall.index import BallTree, LeafTable, brute_nearest


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
    assert tree.node_count == 1


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
    padded, and one port is a single leaf of one point."""
    rng = np.random.default_rng(39)
    for _ in range(40):
        n = int(rng.integers(1, 300))
        pts, ids = lattice_points(rng, n)
        queries = rng.integers(-2, 3, size=(20, 5)) / 2.0
        for leaf_size in (1, 4, 32):
            tree = BallTree(pts, ids=ids, leaf_size=leaf_size)
            for q in queries:
                assert tree.nearest(q) == brute_nearest(pts, q, ids)
        ports = [(pts, ids), lattice_points(rng, 1), lattice_points(rng, int(rng.integers(2, 8))),
                 lattice_points(rng, int(rng.integers(300, 600)))]
        for leaf_size in (1, 4, 32):
            table = LeafTable.stack([BallTree(p, ids=i, leaf_size=leaf_size).table
                                     for p, i in ports])
            got_ids, got_d, scanned = table.nearest(queries)
            for g, (p, i) in enumerate(ports):
                assert (scanned[:, g] >= 1).all()
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


def test_build_does_not_mutate_input():
    rng = np.random.default_rng(38)
    pts = random_instance(rng, 128)
    snapshot = pts.copy()
    BallTree(pts, leaf_size=4)
    assert np.array_equal(pts, snapshot)
