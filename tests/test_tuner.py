"""Genetic algorithm: fitness formula, splits, evolution invariants."""

import numpy as np
import pytest

from portcall.classifier import ModelParams
from portcall.embedding import FeatureWeights
from portcall.ingest import AisRecord
from portcall.params import format_params, parse_params
from portcall.routes import enrich_route, partition_routes
from portcall.tuner import (
    ELITE_COUNT,
    GENE_HIGH,
    GENE_LOW,
    GENE_NAMES,
    GaConfig,
    Genome,
    evolve,
    fitness,
    history_csv,
    split_routes,
)


def make_routes(voyages):
    records = []
    for ship, arr_port, fixes in voyages:
        arr_time = max(ts for _, _, ts in fixes)
        for lat, lon, ts in fixes:
            records.append(AisRecord(
                ship_id=ship, ship_type=70, speed_knots=10.0, lon_deg=lon,
                lat_deg=lat, course_deg=0.0, heading_deg=None, timestamp=ts,
                departure_port="ALFA", draught=None, arrival_time=arr_time,
                arrival_port=arr_port))
    routes = partition_routes(records)
    for r in routes:
        enrich_route(r)
    return routes


def test_default_genome_matches_module_defaults():
    g = Genome.default()
    w, p = FeatureWeights(), ModelParams()
    assert (g.m_x, g.m_y, g.m_z, g.m_sin, g.m_cos) == (
        w.m_x, w.m_y, w.m_z, w.m_sin, w.m_cos)
    assert (g.p_course, g.p_heading, g.p_speed, g.p_dist) == (
        p.p_course, p.p_heading, p.p_speed, p.p_dist)
    params = g.to_params()
    assert params.weights == w
    assert params.smoothing_enabled


def test_genome_array_round_trip():
    g = Genome(0.1, 0.2, 0.3, 0.4, 0.5, 1.0, 2.0, 3.0, 4.0)
    assert Genome.from_array(g.as_array()) == g


def test_default_genome_gives_default_params():
    assert Genome.default().to_params() == ModelParams()


def test_random_genomes_round_trip_through_arrays_and_params_files():
    assert GENE_NAMES == ("m_x", "m_y", "m_z", "m_sin", "m_cos",
                          "p_course", "p_heading", "p_speed", "p_dist")
    rng = np.random.default_rng(0)
    for _ in range(250):
        g = Genome.from_array(rng.uniform(GENE_LOW, GENE_HIGH))
        assert Genome.from_array(g.as_array()) == g
        params = g.to_params()
        assert [getattr(params.weights, n) for n in GENE_NAMES[:5]] == list(g.as_array()[:5])
        assert [getattr(params, n) for n in GENE_NAMES[5:]] == list(g.as_array()[5:])
        text = format_params(params)
        assert "np." not in text
        assert parse_params(text) == params


def test_split_routes_deterministic_and_disjoint(canonical_routes):
    a_train, a_val = split_routes(canonical_routes, 0.8, seed=5)
    b_train, b_val = split_routes(canonical_routes, 0.8, seed=5)
    assert [r.route_id for r in a_train] == [r.route_id for r in b_train]
    assert [r.route_id for r in a_val] == [r.route_id for r in b_val]
    assert len(a_train) == round(0.8 * len(canonical_routes))
    train_ids = {r.route_id for r in a_train}
    val_ids = {r.route_id for r in a_val}
    assert not train_ids & val_ids
    assert len(train_ids) + len(val_ids) == len(canonical_routes)

    c_train, _ = split_routes(canonical_routes, 0.8, seed=6)
    assert [r.route_id for r in c_train] != [r.route_id for r in a_train]


def test_split_routes_always_nonempty():
    routes = make_routes([
        ("S1", "PORTA", [(0.0, 0.0, 0), (1.0, 0.0, 3600)]),
        ("S2", "PORTB", [(0.0, 5.0, 0), (1.0, 5.0, 3600)]),
    ])
    for frac in (0.0, 0.5, 1.0):
        tr, va = split_routes(routes, frac, seed=0)
        assert tr and va


def test_fitness_perfect_prediction():
    routes = make_routes([
        ("S1", "PORTA", [(0.0, 0.0, 0), (1.0, 0.0, 3600), (2.0, 0.0, 7200)]),
        ("S2", "PORTB", [(0.0, 5.0, 0), (1.0, 5.0, 3600), (2.0, 5.0, 7200)]),
    ])
    # validating on the training routes themselves: earliness 1, mae 0
    assert fitness(Genome.default(), routes, routes) == 1.5


def test_fitness_arrival_term_clamps_at_zero():
    train_part = make_routes([
        ("S1", "PORTA", [(0.0, 0.0, 0), (1.0, 0.0, 100_000), (2.0, 0.0, 200_000)]),
    ])
    val_part = make_routes([
        ("S2", "PORTA", [(0.0, 0.001, 0), (1.0, 0.001, 50), (2.0, 0.001, 100)]),
    ])
    # port is trivially right but arrivals are days off: only earliness counts
    assert fitness(Genome.default(), train_part, val_part) == 1.0


def test_fitness_deterministic(canonical_routes):
    tr, va = split_routes(canonical_routes[:30], 0.8, seed=0)
    g = Genome.default()
    assert fitness(g, tr, va) == fitness(g, tr, va)


SMALL_GA = GaConfig(population=6, generations=3, seed=2)


def test_evolve_reproducible(canonical_routes):
    routes = canonical_routes[:24]
    best_a, hist_a = evolve(routes, SMALL_GA)
    best_b, hist_b = evolve(routes, SMALL_GA)
    assert best_a == best_b
    assert [(h.generation, h.best_fitness, h.mean_fitness) for h in hist_a] == \
           [(h.generation, h.best_fitness, h.mean_fitness) for h in hist_b]


def test_evolve_invariants(canonical_routes):
    routes = canonical_routes[:24]
    best, hist = evolve(routes, SMALL_GA)
    assert len(hist) == SMALL_GA.generations + 1
    assert [h.generation for h in hist] == list(range(SMALL_GA.generations + 1))
    bests = [h.best_fitness for h in hist]
    assert all(b >= a for a, b in zip(bests, bests[1:]))
    genes = best.as_array()
    assert np.all(genes >= GENE_LOW) and np.all(genes <= GENE_HIGH)
    assert all(h.mean_fitness <= h.best_fitness for h in hist)


def test_evolve_zero_generations_returns_initial_best(canonical_routes):
    routes = canonical_routes[:24]
    cfg = GaConfig(population=5, generations=0, seed=3)
    best, hist = evolve(routes, cfg)
    assert len(hist) == 1
    tr, va = split_routes(routes, cfg.split_fraction, cfg.seed)
    assert fitness(best, tr, va) == hist[0].best_fitness
    # the default genome is seeded into generation 0
    assert hist[0].best_fitness >= fitness(Genome.default(), tr, va)


def test_evolve_thread_invariance(canonical_routes):
    routes = canonical_routes[:24]
    best_seq, hist_seq = evolve(routes, SMALL_GA, workers=1)
    best_par, hist_par = evolve(routes, SMALL_GA, workers=4)
    assert best_seq == best_par
    assert [h.best_fitness for h in hist_seq] == [h.best_fitness for h in hist_par]


def test_history_csv_shape():
    _, hist = evolve(make_routes([
        ("S1", "PORTA", [(0.0, 0.0, 0), (1.0, 0.0, 3600)]),
        ("S2", "PORTB", [(0.0, 5.0, 0), (1.0, 5.0, 3600)]),
        ("S3", "PORTA", [(0.1, 0.0, 0), (1.1, 0.0, 3600)]),
        ("S4", "PORTB", [(0.1, 5.0, 0), (1.1, 5.0, 3600)]),
    ]), GaConfig(population=4, generations=2, seed=1))
    text = history_csv(hist)
    lines = text.strip().split("\n")
    assert lines[0] == "generation,best_fitness,mean_fitness"
    assert len(lines) == 1 + 3


def test_ga_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population=1)
    with pytest.raises(ValueError):
        GaConfig(population=ELITE_COUNT)
    for bad in ({"generations": -1}, {"seed": -1}):
        with pytest.raises(ValueError, match="generations and seed must be >= 0"):
            GaConfig(**bad)


@pytest.mark.parametrize("name", ["fitness_lambda", "split_fraction"])
def test_ga_config_lambda_and_split_are_constants(name):
    assert (GaConfig.fitness_lambda, GaConfig.split_fraction) == (0.5, 0.8)
    assert getattr(GaConfig(), name) == getattr(GaConfig, name)
    with pytest.raises(TypeError):
        GaConfig(**{name: getattr(GaConfig, name)})
