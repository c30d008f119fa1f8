"""Batch replay equals streaming: blocks of any size give the predictions of
per-point classify_point calls, bit for bit."""

import numpy as np
import pytest

from portcall import classifier
from portcall.classifier import (
    ModelParams,
    RouteState,
    classify_point,
    classify_points,
    train,
)
from portcall.evaluation import replay_route, score_dataset, score_route
from portcall.routes import enrich_route, partition_routes
from portcall.tuner import split_routes
from tests.test_evaluation import make_record


def streamed(model, route):
    state = RouteState()
    return [classify_point(model, state, pt) for pt in route.points]


def in_chunks(model, route, rng):
    """classify_points over seeded chunks of 1-9 points sharing one state."""
    state = RouteState()
    out = []
    i = 0
    while i < len(route.points):
        n = int(rng.integers(1, 10))
        out.extend(classify_points(model, state, route.points[i:i + n]))
        i += n
    return out


def lattice_routes(rng, ports, n_routes, label_offset=0):
    """Random walks on a 0.5-degree lattice: positions, bearings, courses and
    speeds repeat across routes and ports, so nearest-neighbor distances and
    similarities tie often."""
    records = []
    for k in range(n_routes):
        port = ports[k % len(ports)]
        i, j = (int(v) for v in rng.integers(0, 5, size=2))
        n = int(rng.integers(2, 40))
        ts0 = 1000 + 100000 * (k + label_offset)
        for step in range(n):
            records.append(make_record(
                ship=f"S{k + label_offset}", lat=0.5 * i, lon=0.5 * j, ts=ts0 + 600 * step,
                arr_time=ts0 + 600 * n, arr_port=port,
                course=float(90 * rng.integers(0, 4)), speed=float(rng.choice([10.0, 12.0]))))
            di, dj = rng.integers(-1, 2, size=2)
            i, j = min(max(i + int(di), 0), 4), min(max(j + int(dj), 0), 4)
    routes = partition_routes(records)
    for r in routes:
        enrich_route(r)
    return routes


def assert_batch_equals_stream(model, routes, rng):
    """Check every replay path against streaming; return the predictions."""
    out = []
    for route in routes:
        expected = streamed(model, route)
        assert replay_route(model, route) == expected
        assert in_chunks(model, route, rng) == expected
        out.append(expected)
    serial = score_dataset(model, routes, workers=1)
    assert serial.per_route == [score_route(model, r) for r in routes]
    assert score_dataset(model, routes, workers=4) == serial
    return out


@pytest.mark.parametrize("leaf_size", [1, 32])
def test_batch_equals_stream_canonical(canonical_routes, leaf_size, monkeypatch):
    rng = np.random.default_rng(40 + leaf_size)
    train_part, val = split_routes(canonical_routes, 0.8, 5)
    default = train(train_part, ModelParams())
    monkeypatch.setattr(classifier, "DEFAULT_LEAF_SIZE", leaf_size)
    model = train(train_part, ModelParams())
    if leaf_size == 1:
        # a tiny leaf size makes a large table, so queries run in small blocks
        assert max(len(r.points) for r in val) > model.table.block
    # the search is exact, so no leaf size changes a prediction
    assert assert_batch_equals_stream(model, val[:25], rng) == [
        replay_route(default, r) for r in val[:25]]


@pytest.mark.parametrize("seed", range(4))
def test_batch_equals_stream_lattice_ties(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    ports = ["PORTA", "PORTB", "PORTC"]
    train_routes = lattice_routes(rng, ports, 30)
    queries = lattice_routes(rng, ports, 12, label_offset=100)
    all_params = (ModelParams(), ModelParams(p_course=0.0, p_heading=0.0,
                                             p_speed=0.0, p_dist=0.0))
    by_leaf_size = []
    for leaf_size in (1, 4, 32):
        monkeypatch.setattr(classifier, "DEFAULT_LEAF_SIZE", leaf_size)
        by_leaf_size.append([assert_batch_equals_stream(train(train_routes, params),
                                                        queries, rng)
                             for params in all_params])
    # the search is exact, so no leaf size changes a prediction, even among ties
    assert by_leaf_size[0] == by_leaf_size[1] == by_leaf_size[2]


def test_empty_block_predicts_nothing(canonical_routes):
    model = train(canonical_routes[:20], ModelParams())
    state = RouteState()
    assert classify_points(model, state, []) == []
    assert state == RouteState()
