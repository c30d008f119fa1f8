"""Comparing the ball tree with the brute scan on one dataset.

Both answer identically (that is checked first); the only question is
speed. The ball tree is only its leaves: it bounds each leaf from below by
its centroid distance minus its radius, the tree from above by its leaves'
centroid distances plus their near radii (the distance to each leaf's
nearest point), and scans the points of only a few leaves per query, while
the brute scan touches every point every time.
"""

import time

import numpy as np

from portcall import BallTree, SyntheticConfig, brute_nearest, synth_records
from portcall.embedding import FeatureWeights, embed_arrays


def main() -> None:
    cfg = SyntheticConfig(n_ports=8, routes_per_port=60, seed=3)
    records = synth_records(cfg)
    w = FeatureWeights()
    pts = embed_arrays(np.array([r.lat_deg for r in records]),
                       np.array([r.lon_deg for r in records]),
                       np.array([r.course_deg or 0.0 for r in records]), w)
    print(f"{len(pts)} embedded points")

    rng = np.random.default_rng(0)
    queries = pts[rng.integers(0, len(pts), size=300)] + rng.normal(
        0.0, 0.01, size=(300, 5))

    ball = BallTree(pts, leaf_size=32)
    print(f"ball tree: {ball.leaf_count} leaves of at most {ball.leaf_size} points, "
          f"containment slack {ball.containment_slack():.2e}")

    # agreement gate before any timing
    for q in queries[:50]:
        want = brute_nearest(pts, q)
        assert ball.nearest(q) == want
    print("agreement: ball == brute on 50 spot checks")

    for name, f in [("balltree", ball.nearest),
                    ("brute", lambda q: brute_nearest(pts, q))]:
        t0 = time.perf_counter()
        for q in queries:
            f(q)
        per_query = (time.perf_counter() - t0) / len(queries)
        print(f"{name:<9} {per_query * 1e6:8.1f} us/query")

    # how much work a query actually does
    visited = ball.table.nearest(queries[:100])[2]
    print(f"ball tree scans {np.mean(visited):.1f} of {ball.leaf_count} "
          f"leaves on average")


if __name__ == "__main__":
    main()
