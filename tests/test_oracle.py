"""End-to-end prediction oracle: replay_route against a replay built from
the parts' oracles alone, Prediction for Prediction.

Per fix, each port's candidate is brute_nearest over that port's training
points, embedded with embed_arrays from the model's point maps; the raw port
is the candidate of least similarity, then of least point id; the emitted
port is the longest-run oracle's over the raw ports so far, or the raw port
with smoothing off; the arrival is the fix's timestamp plus the winner's
remaining time, whichever port is emitted."""

import numpy as np
import pytest

from portcall.classifier import ModelParams, Prediction, prepare, similarity, train
from portcall.embedding import embed_arrays
from portcall.evaluation import SyntheticConfig, replay_route, synth_records
from portcall.index import brute_nearest
from portcall.routes import enrich_route, partition_routes
from portcall.tuner import GENE_HIGH, GENE_LOW, Genome, split_routes
from tests.test_block_replay import lattice_routes
from tests.test_classifier import earliest_strict_longest_run
from tests.test_tuner import antimeridian_routes


def embed_route_points(points, weights):
    return embed_arrays(np.array([p.record.lat_deg for p in points]),
                        np.array([p.record.lon_deg for p in points]),
                        np.array([p.bearing_deg for p in points]), weights)


def oracle_replay(model, route):
    params = model.params
    ports = [(port, embed_route_points(list(m.values()), params.weights), np.array(list(m)), m)
             for port, m in model.points.items()]
    queries = embed_route_points(route.points, params.weights)
    raw_ports, out = [], []
    for q, qv in zip(route.points, queries):
        candidates = []
        for port, data, ids, m in ports:
            pid, _ = brute_nearest(data, qv, ids)
            candidates.append((similarity(q, m[pid], params), pid, port))
        _, pid, raw = min(candidates)  # point ids are unique, so ports never compare
        raw_ports.append(raw)
        port = earliest_strict_longest_run(raw_ports) if params.smoothing_enabled else raw
        winner = model.points[raw][pid]
        out.append(Prediction(port, q.record.timestamp + winner.remaining_time_s, raw, pid))
    return out


def synthetic_split(seed):
    routes = partition_routes(synth_records(SyntheticConfig(
        n_ports=3, routes_per_port=5, points_min=6, points_max=12, seed=seed)))
    for r in routes:
        enrich_route(r)
    return split_routes(routes, 0.7, seed=seed)


def lattice_split(seed):
    rng = np.random.default_rng(seed)
    ports = ["PORTA", "PORTB", "PORTC"]
    return lattice_routes(rng, ports, 24), lattice_routes(rng, ports, 8, label_offset=100)


DATASETS = {
    "synthetic-0": lambda: synthetic_split(0),
    "synthetic-1": lambda: synthetic_split(1),
    "synthetic-2": lambda: synthetic_split(2),
    "antimeridian": lambda: split_routes(antimeridian_routes(17, n_routes=15), 0.7, seed=3),
    "lattice-ties": lambda: lattice_split(9),
}


def oracle_params():
    """The defaults, two seeded random genomes, and zero penalties with
    smoothing off."""
    rng = np.random.default_rng(170)
    return [ModelParams(),
            *(Genome.from_array(rng.uniform(GENE_LOW, GENE_HIGH)).to_params() for _ in range(2)),
            ModelParams(p_course=0.0, p_heading=0.0, p_speed=0.0, p_dist=0.0,
                        smoothing_enabled=False)]


@pytest.mark.parametrize("dataset", DATASETS)
def test_replay_route_matches_the_oracle(dataset):
    """From routes and from a prepared set whose terms table a model of
    other parameters has already filled, as the GA's genomes share it."""
    train_routes, holdout = DATASETS[dataset]()
    assert holdout
    all_params = oracle_params()
    train_set = prepare(train_routes)
    for params, before in zip(all_params, all_params[1:] + all_params[:1]):
        model = train(train_routes, params)
        want = [oracle_replay(model, r) for r in holdout]
        assert [replay_route(model, r) for r in holdout] == want
        filler = train(train_set, before)
        for r in holdout:
            replay_route(filler, r)
        assert train_set.terms_table
        assert [replay_route(train(train_set, params), r) for r in holdout] == want
