"""Genetic algorithm: fitness formula, splits, evolution invariants."""

import dataclasses
import sys
import threading
import weakref

import numpy as np
import pytest

import portcall.classifier
import portcall.tuner
from portcall.classifier import Model, ModelParams, TrainingSet, prepare, train
from portcall.embedding import FeatureWeights
from portcall.evaluation import SyntheticConfig, replay_route, score_dataset, synth_records
from portcall.geo import normalize_lon
from portcall.index import BallTree
from portcall.ingest import AisRecord
from portcall.params import format_params, parse_params
from portcall.routes import enrich_route, partition_routes
from portcall.tuner import (
    ELITE_COUNT,
    GENE_HIGH,
    GENE_LOW,
    GENE_NAMES,
    PENALTY_MAX,
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


def antimeridian_routes(seed, n_routes=12):
    """Routes toward three ports on both sides of the antimeridian, from
    starts 5-15 degrees east or west of it, so their longitudes wrap. A
    quarter of the headings are missing; courses and speeds vary by fix."""
    rng = np.random.default_rng(seed)
    ports = [("EAST", 10.0, -175.0), ("WEST", -5.0, 176.0), ("NORTH", 25.0, 179.5)]
    records = []
    for k in range(n_routes):
        port, port_lat, port_lon = ports[k % len(ports)]
        start_lat = rng.uniform(-20.0, 30.0)
        start_lon = port_lon + rng.choice([-1.0, 1.0]) * rng.uniform(5.0, 15.0)
        n = int(rng.integers(6, 10))
        arrival = 600 * n
        for j in range(n):
            f = j / n
            course = float(rng.uniform(0.0, 360.0))
            records.append(AisRecord(
                ship_id=f"S{k}", ship_type=70, speed_knots=float(rng.uniform(0.0, 60.0)),
                lon_deg=normalize_lon(start_lon + f * (port_lon - start_lon)),
                lat_deg=start_lat + f * (port_lat - start_lat), course_deg=course,
                heading_deg=None if rng.random() < 0.25 else (course + 5.0) % 360.0,
                timestamp=600 * j, departure_port="ALFA", draught=None,
                arrival_time=arrival, arrival_port=port))
    routes = partition_routes(records)
    for r in routes:
        enrich_route(r)
    return routes


def sweep_genomes():
    """Fourteen genomes: the defaults, every gene at its low or high bound,
    mixed extremes, one with vanishing weights, and seeded random ones."""
    assert GENE_HIGH[-1] == PENALTY_MAX
    genomes = [Genome.default(), Genome.from_array(GENE_LOW), Genome.from_array(GENE_HIGH),
               Genome(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, PENALTY_MAX, 0.0, PENALTY_MAX),
               Genome(0.0, 1.0, 1.0, 1.0, 0.0, PENALTY_MAX, 0.0, PENALTY_MAX, 0.0),
               Genome(1e-12, 1e-12, 1e-12, 1e-12, 1e-12, 1e-12, PENALTY_MAX, 1e-12, 1.0)]
    rng = np.random.default_rng(126)
    genomes += [Genome.from_array(rng.uniform(GENE_LOW, GENE_HIGH)) for _ in range(8)]
    return genomes


def test_shared_terms_table_is_exact_across_genomes():
    """The prepared set's table, shared by every fitness call on the set,
    gives the fitness, and every prediction, that a call without one gives."""
    routes = antimeridian_routes(26)
    tr, va = split_routes(routes, 0.7, seed=1)
    held_out = sum(len(r.points) for r in va)
    assert any(p.record.heading_deg is None for r in va for p in r.points)
    assert any(p.record.lon_deg > 175.0 for r in va for p in r.points)
    assert any(p.record.lon_deg < -175.0 for r in va for p in r.points)
    train_set = prepare(tr)
    table = train_set.terms_table
    genomes = sweep_genomes()
    assert len(genomes) >= 12
    for g in genomes:
        assert fitness(g, train_set, va) == fitness(g, tr, va)
        alone, shared = train(tr, g.to_params()), train(train_set, g.to_params())
        assert alone.terms_table is None
        assert shared.terms_table is table
        assert [replay_route(shared, r) for r in va] == [replay_route(alone, r) for r in va]
    # one entry per held-out fix, keyed by the fix itself, reused by later genomes
    assert len(table) == held_out
    assert table.keys() == {p for r in va for p in r.points}
    pairs = sum(len(terms) for terms in table.values())
    assert held_out <= pairs < len(genomes) * held_out * 3


def test_terms_table_keeps_repeated_held_out_ids_apart():
    """Held-out routes from two partition_routes calls repeat point ids; the
    set's table still keeps one entry per fix, and the fitness stays exact."""
    first, second = antimeridian_routes(3, n_routes=6), antimeridian_routes(4, n_routes=6)
    tr = antimeridian_routes(5, n_routes=3)
    va = first + second
    ids = [p.point_id for r in va for p in r.points]
    assert len(set(ids)) < len(ids)
    train_set = prepare(tr)
    for g in sweep_genomes()[:4]:
        assert fitness(g, train_set, va) == fitness(g, tr, va)
    assert len(train_set.terms_table) == len(ids)


def test_terms_table_shared_across_training_splits_is_exact():
    """Two training splits from separate partition_routes calls repeat point
    ids; each prepared split keeps its own table, and models of either give,
    for every genome, the predictions a model without a table gives."""
    routes = partition_routes(synth_records(SyntheticConfig(n_ports=3, routes_per_port=12,
                                                            seed=5)))
    train_a, train_b, va = [partition_routes([p.record for r in routes[k::3] for p in r.points])
                            for k in range(3)]
    for r in train_a + train_b + va:
        enrich_route(r)
    assert {p.point_id for r in train_a for p in r.points} & \
           {p.point_id for r in train_b for p in r.points}
    sets = [prepare(train_a), prepare(train_b)]
    assert sets[0].terms_table is not sets[1].terms_table
    rng = np.random.default_rng(27)
    for _ in range(6):
        params = Genome.from_array(rng.uniform(GENE_LOW, GENE_HIGH)).to_params()
        for tr, train_set in zip((train_a, train_b), sets):
            alone, shared = train(tr, params), train(train_set, params)
            assert shared.terms_table is train_set.terms_table
            assert [replay_route(shared, r) for r in va] == [replay_route(alone, r) for r in va]
    for train_set in sets:
        assert len(train_set.terms_table) == sum(len(r.points) for r in va)


def test_terms_table_shared_by_more_threads_than_cores(monkeypatch):
    """Eight replay threads, switching every microsecond, fill the set's table:
    every pair computed is kept once, and the fitness stays exact."""
    routes = antimeridian_routes(8, n_routes=24)
    tr, va = split_routes(routes, 0.5, seed=2)
    plain = portcall.classifier.pair_terms
    computed = []
    lock = threading.Lock()

    def counted(q, c):
        with lock:
            computed.append((id(q), id(c)))
        return plain(q, c)
    monkeypatch.setattr(portcall.classifier, "pair_terms", counted)
    train_set = prepare(tr)
    table = train_set.terms_table
    genomes = sweep_genomes()[:4]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        shared = [fitness(g, train_set, va, workers=8) for g in genomes]
    finally:
        sys.setswitchinterval(interval)
    # a lost store would leave a computed pair out, or compute it twice
    assert sorted(computed) == sorted((id(q), id(c)) for q, terms in table.items()
                                      for c in terms)
    assert len(table) == sum(len(r.points) for r in va)
    assert shared == [fitness(g, tr, va) for g in genomes]


def test_models_of_a_prepared_set_share_its_terms_table():
    """Models trained from one prepared set hold that set's table; a model
    trained from routes holds none; and no field of a model can be assigned."""
    tr, _ = split_routes(antimeridian_routes(33), 0.7, seed=1)
    train_set = prepare(tr)
    assert train_set.terms_table == {}
    first = train(train_set, ModelParams())
    second = train(train_set, Genome.from_array(GENE_HIGH).to_params())
    assert first.terms_table is train_set.terms_table
    assert second.terms_table is train_set.terms_table
    assert train(tr, ModelParams()).terms_table is None
    for f in dataclasses.fields(Model):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(first, f.name, getattr(second, f.name))
    assert first.params == ModelParams()


def without_terms_table(monkeypatch):
    """Make evolve's fitness calls train on its prepared set with a fresh
    empty terms table each; returns the list of sets evolve passed."""
    plain = portcall.tuner.fitness
    passed = []

    def fitness_alone(genome, train_set, *args, **kwargs):
        passed.append(train_set)
        return plain(genome, train_set._replace(terms_table={}), *args, **kwargs)
    monkeypatch.setattr(portcall.tuner, "fitness", fitness_alone)
    return passed


@pytest.mark.parametrize("workers", [1, 2])
def test_evolve_with_terms_table_equals_without(canonical_routes, monkeypatch, workers):
    routes = canonical_routes[:24]
    best, hist = evolve(routes, SMALL_GA, workers=workers)
    passed = without_terms_table(monkeypatch)
    best_alone, hist_alone = evolve(routes, SMALL_GA, workers=workers)
    assert best == best_alone
    assert [(h.generation, h.best_fitness, h.mean_fitness) for h in hist] == \
           [(h.generation, h.best_fitness, h.mean_fitness) for h in hist_alone]
    # evolve reaches fitness through the module and passes one prepared set, and
    # so one table, per run; the wrapper kept every call from filling it
    assert passed and isinstance(passed[0], TrainingSet)
    assert all(t is passed[0] for t in passed)
    assert passed[0].terms_table == {}


def test_train_on_prepared_set_equals_train_on_routes():
    """For every genome, train on a prepared set builds the model train on
    the routes builds, bit for bit, and the set's arrays stay as they were."""
    tr, _ = split_routes(antimeridian_routes(26), 0.7, seed=1)
    train_set = prepare(tr)
    before = train_set.coordinates.tobytes()
    for g in sweep_genomes():
        prepared, direct = train(train_set, g.to_params()), train(tr, g.to_params())
        assert prepared.ports == direct.ports == list(train_set.points)
        for name in ("points", "ids", "centroid", "radius", "near"):
            a, b = getattr(prepared.table, name), getattr(direct.table, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert [ix.tree.n_points for ix in prepared.per_port.values()] == \
               [ix.tree.n_points for ix in direct.per_port.values()]
        # the views share the set's point maps
        assert all(ix.points is m for ix, m in zip(prepared.per_port.values(),
                                                   train_set.points.values()))
    assert train_set.coordinates.tobytes() == before
    # an in-place embedding would corrupt every later fit
    for a in train_set.coordinates:
        with pytest.raises(ValueError, match="read-only"):
            np.radians(a, out=a)


def test_no_query_path_builds_per_port_views(monkeypatch):
    """train, replay_route, score_dataset and evolve read the model's one tree
    and its port maps, never a per-port view; Model.per_port builds the same
    views on every read, over the set's own maps."""
    routes = antimeridian_routes(31)
    tr, val = split_routes(routes, 0.7, seed=1)
    train_set = prepare(tr)

    def no_views(self):
        raise AssertionError("BallTree.groups() called")

    with monkeypatch.context() as m:
        m.setattr(BallTree, "groups", no_views)
        direct, prepared = train(tr, ModelParams()), train(train_set, ModelParams())
        assert replay_route(direct, val[0]) == replay_route(prepared, val[0])
        score_dataset(prepared, val, workers=2)
        evolve(routes, GaConfig(population=3, generations=1, seed=0))
    first, second = prepared.per_port, prepared.per_port
    assert list(first) == list(second) == prepared.ports == list(train_set.points)
    assert ([ix.tree.n_points for ix in first.values()]
            == [ix.tree.n_points for ix in second.values()]
            == [len(points) for points in train_set.points.values()])
    assert all(ix.points is points for views in (first, second)
               for ix, points in zip(views.values(), train_set.points.values()))


def test_train_frees_the_coordinates_it_prepares_before_the_build(monkeypatch):
    """A set that train prepares itself no longer holds its coordinate array
    while the tree builds; a set the caller passes and holds stays alive."""
    routes = antimeridian_routes(32)
    plain_prepare, plain_init = portcall.classifier.prepare, BallTree.__init__
    refs, alive = [], []

    def watched_prepare(rs):
        ts = plain_prepare(rs)
        refs.append(weakref.ref(ts.coordinates))
        return ts

    def watched_init(self, *args, **kwargs):
        alive.append(refs[-1]() is not None)
        plain_init(self, *args, **kwargs)

    monkeypatch.setattr(portcall.classifier, "prepare", watched_prepare)
    monkeypatch.setattr(BallTree, "__init__", watched_init)
    train(routes, ModelParams())
    train_set = portcall.classifier.prepare(routes)
    train(train_set, ModelParams())
    assert alive == [False, True]


def from_routes(monkeypatch, train_routes):
    """Make evolve's fitness calls train on train_routes, so each call
    prepares its own set; returns the list of sets evolve passed."""
    plain = portcall.tuner.fitness
    passed = []

    def fitness_from_routes(genome, train_set, *args, **kwargs):
        passed.append(train_set)
        return plain(genome, train_routes, *args, **kwargs)
    monkeypatch.setattr(portcall.tuner, "fitness", fitness_from_routes)
    return passed


@pytest.mark.parametrize("workers", [1, 2])
def test_evolve_with_prepared_set_equals_from_routes(canonical_routes, monkeypatch, workers):
    routes = canonical_routes[:24]
    best, hist = evolve(routes, SMALL_GA, workers=workers)
    train_part, _ = split_routes(routes, GaConfig.split_fraction, SMALL_GA.seed)
    passed = from_routes(monkeypatch, train_part)
    best_routes, hist_routes = evolve(routes, SMALL_GA, workers=workers)
    assert best == best_routes
    assert [(h.generation, h.best_fitness, h.mean_fitness) for h in hist] == \
           [(h.generation, h.best_fitness, h.mean_fitness) for h in hist_routes]
    # evolve reaches fitness through the module and prepares one set per run
    assert passed and isinstance(passed[0], TrainingSet)
    assert all(t is passed[0] for t in passed)
