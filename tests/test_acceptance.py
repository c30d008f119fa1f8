"""Acceptance gate: nine numbered criteria, one visible pass/fail line each.

Run with plain pytest; each criterion prints its verdict to the real
terminal even under output capture.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from portcall.classifier import ModelParams, Prediction, RouteState, train
from portcall.cli import main
from portcall.evaluation import (
    SyntheticConfig,
    earliness,
    score_dataset,
    synth_records,
)
from portcall.geo import great_circle_km
from portcall.index import BallTree, brute_nearest
from portcall.routes import enrich_route, partition_routes
from portcall.tuner import GaConfig, Genome, evolve, fitness, split_routes
from tests.test_geo import oracle_great_circle_km
from tests.test_index import random_instance

# measured once on the canonical dataset with default parameters (criterion 5),
# then regression-locked
PINNED_HOLDOUT_EARLINESS = 0.9865727628766523


@contextmanager
def verdict(capsys, number, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number} ({name}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {number} ({name}): PASS")


@pytest.fixture(scope="session")
def canonical_csv(tmp_path_factory):
    """The seed-fixed 5-port dataset written through the CLI."""
    path = tmp_path_factory.mktemp("data") / "canonical.csv"
    assert main(["gen", "--ports", "5", "--routes-per-port", "40",
                 "--seed", "0", "--out", str(path)]) == 0
    return str(path)


def test_criterion_1_nn_exactness(capsys):
    with verdict(capsys, 1, "nn exactness vs brute force"):
        rng = np.random.default_rng(100)
        started = time.perf_counter()
        for _ in range(100):
            n = int(rng.integers(1, 2001))
            pts = random_instance(rng, n)
            ball = BallTree(pts, leaf_size=16)
            for _ in range(50):
                q = rng.uniform(-2.0, 2.0, size=5)
                want_id, want_d = brute_nearest(pts, q)
                ball_id, ball_d = ball.nearest(q)
                assert ball_id == want_id
                assert abs(ball_d - want_d) <= 1e-9
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_geometry_oracle(capsys):
    with verdict(capsys, 2, "great-circle distance vs independent oracle"):
        assert great_circle_km(0.0, 0.0, 0.0, 1.0) == pytest.approx(111.195,
                                                                    abs=0.001)
        rng = np.random.default_rng(200)
        for _ in range(1000):
            lat1, lat2 = rng.uniform(-90, 90, size=2)
            lon1, lon2 = rng.uniform(-180, 180, size=2)
            got = great_circle_km(lat1, lon1, lat2, lon2)
            want = oracle_great_circle_km(lat1, lon1, lat2, lon2)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_criterion_3_self_classification(capsys, canonical_csv):
    with verdict(capsys, 3, "train == test scores perfectly"):
        assert main(["evaluate", "--train", canonical_csv,
                     "--test", canonical_csv, "--threads", "1"]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1] == "earliness=1.0 mae_minutes=0.0"


def test_criterion_4_smoothing_benefit(capsys):
    with verdict(capsys, 4, "smoothing fixes the flip-flop sequence"):
        raw = ["A", "B", "A", "A", "A"]
        state = RouteState()
        smoothed = [state.push(p) for p in raw]
        assert smoothed == ["A", "A", "A", "A", "A"]

        def preds(ports):
            return [Prediction(port=p, arrival=0, raw_port=r, chosen_point_id=0)
                    for p, r in zip(ports, raw)]

        assert earliness(preds(smoothed), "A") == 1.0
        assert earliness(preds(raw), "A") == 0.6


def test_criterion_5_holdout_quality(capsys, canonical_routes):
    with verdict(capsys, 5, "holdout earliness with default parameters"):
        train_part, val_part = split_routes(canonical_routes, 0.8, seed=0)
        model = train(train_part, ModelParams())
        scores = score_dataset(model, val_part, workers=1)
        assert scores.avg_earliness >= 0.6
        assert scores.avg_earliness == pytest.approx(PINNED_HOLDOUT_EARLINESS,
                                                     abs=0.02)


def test_criterion_6_ga_properties(capsys):
    with verdict(capsys, 6, "genetic algorithm behavior"):
        cfg_data = SyntheticConfig(n_ports=4, routes_per_port=10,
                                   points_min=20, points_max=35, seed=1)
        routes = partition_routes(synth_records(cfg_data))
        for r in routes:
            enrich_route(r)

        cfg = GaConfig(population=16, generations=20, seed=0)
        started = time.perf_counter()
        best_a, hist_a = evolve(routes, cfg)
        best_b, hist_b = evolve(routes, cfg)
        elapsed = time.perf_counter() - started

        bests = [h.best_fitness for h in hist_a]
        assert len(bests) == cfg.generations + 1
        assert all(b >= a for a, b in zip(bests, bests[1:]))

        tr, va = split_routes(routes, cfg.split_fraction, cfg.seed)
        assert hist_a[-1].best_fitness >= fitness(Genome.default(), tr, va)

        assert best_a == best_b
        assert [(h.generation, h.best_fitness, h.mean_fitness) for h in hist_a] \
            == [(h.generation, h.best_fitness, h.mean_fitness) for h in hist_b]
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_7_thread_determinism(capsys, canonical_csv):
    with verdict(capsys, 7, "evaluate output identical across thread counts"):
        assert main(["evaluate", "--train", canonical_csv,
                     "--test", canonical_csv, "--threads", "1"]) == 0
        out_1 = capsys.readouterr().out
        assert main(["evaluate", "--train", canonical_csv,
                     "--test", canonical_csv, "--threads", "8"]) == 0
        out_8 = capsys.readouterr().out
        assert out_1 == out_8


def test_criterion_8_ball_tree_beats_brute(capsys, tmp_path):
    with verdict(capsys, 8, "ball tree faster than brute force at 100k points"):
        big = tmp_path / "big.csv"
        assert main(["gen", "--ports", "10", "--routes-per-port", "250",
                     "--seed", "42", "--out", str(big)]) == 0
        header = capsys.readouterr().out
        n_points = int(header.split("points=")[1].split()[0])
        assert n_points >= 100_000

        assert main(["bench", "--train", str(big), "--queries", "150",
                     "--seed", "7"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("correctness=ok")
        latency = {}
        for line in lines[1:]:
            fields = dict(part.split("=") for part in line.split())
            latency[fields["structure"]] = float(fields["mean_query_seconds"])
        assert latency["balltree"] < latency["brute"]


def test_criterion_9_invariant_sweeps(capsys, canonical_routes):
    with verdict(capsys, 9, "dataset and index invariants"):
        for route in canonical_routes:
            dists = [p.dist_from_departure_km for p in route.points]
            assert all(b >= a for a, b in zip(dists, dists[1:]))
            remaining = [p.remaining_time_s for p in route.points]
            assert all(r is not None for r in remaining)
            assert all(b <= a for a, b in zip(remaining, remaining[1:]))

        model = train(canonical_routes, ModelParams())
        for port in model.ports:
            assert model.per_port[port].tree.containment_slack() <= 0.0

        scores = score_dataset(model, canonical_routes[:40], workers=1)
        for _, e, m in scores.per_route:
            assert 0.0 <= e <= 1.0
            assert m >= 0.0
