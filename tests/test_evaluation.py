"""Scoring metrics, replay semantics, and the synthetic data generator."""

import numpy as np
import pytest

from portcall.classifier import ModelParams, Prediction, train
from portcall.evaluation import (
    KNOTS_TO_KM_S,
    SyntheticConfig,
    earliness,
    gen_synthetic,
    mae_minutes,
    replay_route,
    score_dataset,
    score_route,
    scores_csv,
    synth_records,
)
from portcall.geo import great_circle_km
from portcall.ingest import AisRecord
from portcall.routes import Route, enrich_route, partition_routes


def make_record(ship="SHIP_A", lon=0.0, lat=0.0, ts=1000, dep="ALFA",
                arr_time=5000, arr_port="BRAVO", course=0.0, speed=10.0):
    return AisRecord(ship_id=ship, ship_type=70, speed_knots=speed, lon_deg=lon,
                     lat_deg=lat, course_deg=course, heading_deg=None,
                     timestamp=ts, departure_port=dep, draught=None,
                     arrival_time=arr_time, arrival_port=arr_port)


def build_routes(voyages):
    records = []
    for ship, arr_port, fixes in voyages:
        arr_time = max(ts for _, _, ts in fixes)
        for lat, lon, ts in fixes:
            records.append(make_record(ship=ship, lat=lat, lon=lon, ts=ts,
                                       arr_time=arr_time, arr_port=arr_port))
    routes = partition_routes(records)
    for r in routes:
        enrich_route(r)
    return routes


def pred(port, arrival=0, raw=None):
    return Prediction(port=port, arrival=arrival, raw_port=raw or port,
                      chosen_point_id=0)


def test_earliness_examples():
    assert earliness([pred("A"), pred("A")], "A") == 1.0
    assert earliness([pred("A"), pred("B"), pred("B"), pred("B")], "B") == 0.75
    assert earliness([pred("A"), pred("A"), pred("B")], "A") == 0.0
    assert earliness([pred("B")], "A") == 0.0


def test_mae_examples():
    base = 1_000_000
    exact = [pred("A", arrival=base), pred("A", arrival=base)]
    assert mae_minutes(exact, base) == 0.0
    off10 = [pred("A", arrival=base + 600), pred("A", arrival=base + 600)]
    assert mae_minutes(off10, base) == 10.0
    mixed = [pred("A", arrival=base), pred("A", arrival=base - 1200)]
    assert mae_minutes(mixed, base) == 10.0


def test_replay_one_prediction_per_point(canonical_routes):
    model = train(canonical_routes[:20], ModelParams())
    for route in canonical_routes[:5]:
        assert len(replay_route(model, route)) == len(route.points)


def test_self_training_all_raw_correct():
    routes = build_routes([
        ("S1", "PORTA", [(0.0, 0.0, 0), (1.0, 0.0, 3600), (2.0, 0.0, 7200)]),
        ("S2", "PORTB", [(0.0, 5.0, 0), (1.0, 5.0, 3600), (2.0, 5.0, 7200)]),
    ])
    model = train(routes, ModelParams())
    for route in routes:
        for p in replay_route(model, route):
            assert p.raw_port == route.arrival_port


def test_no_lookahead():
    routes = build_routes([
        ("S1", "PORTA", [(0.0, 0.0, 0), (1.0, 0.0, 3600), (2.0, 0.0, 7200)]),
        ("S2", "PORTB", [(0.0, 5.0, 0), (1.0, 5.0, 3600), (2.0, 5.0, 7200)]),
    ])
    model = train(routes, ModelParams())
    full = routes[0]
    full_preds = replay_route(model, full)
    for k in range(1, len(full.points) + 1):
        prefix = Route(route_id=full.route_id, ship_id=full.ship_id,
                       departure_port=full.departure_port,
                       arrival_port=full.arrival_port,
                       arrival_time=full.arrival_time,
                       points=full.points[:k])
        assert replay_route(model, prefix) == full_preds[:k]


FLIP_FLOP_LANES = [
    ("T1", "PORTA", [(0.0, 0.0, 0), (1.0, 0.0, 3600), (2.0, 0.0, 7200),
                     (3.0, 0.0, 10800), (4.0, 0.0, 14400)]),
    ("T2", "PORTB", [(0.0, 5.0, 0), (1.0, 5.0, 3600), (2.0, 5.0, 7200),
                     (3.0, 5.0, 10800), (4.0, 5.0, 14400)]),
]


def flip_flop_query():
    """A PORTA-bound route whose second fix strays next to PORTB's lane."""
    fixes = [(0.0, 0.01, 0), (1.0, 4.99, 3600), (2.0, 0.01, 7200),
             (3.0, 0.01, 10800), (4.0, 0.01, 14400)]
    records = [make_record(ship="Q1", lat=lat, lon=lon, ts=ts,
                           arr_time=14400, arr_port="PORTA")
               for lat, lon, ts in fixes]
    (route,) = partition_routes(records)
    return enrich_route(route)


def test_smoothing_benefit_on_flip_flop():
    train_routes = build_routes(FLIP_FLOP_LANES)
    query = flip_flop_query()

    model_on = train(train_routes, ModelParams(smoothing_enabled=True))
    preds_on = replay_route(model_on, query)
    assert [p.raw_port for p in preds_on] == ["PORTA", "PORTB", "PORTA",
                                              "PORTA", "PORTA"]
    assert [p.port for p in preds_on] == ["PORTA"] * 5
    assert earliness(preds_on, "PORTA") == 1.0

    model_off = train(train_routes, ModelParams(smoothing_enabled=False))
    preds_off = replay_route(model_off, query)
    assert [p.port for p in preds_off] == ["PORTA", "PORTB", "PORTA",
                                           "PORTA", "PORTA"]
    assert earliness(preds_off, "PORTA") == 0.6


def test_score_dataset_averaging_and_permutation():
    train_routes = build_routes(FLIP_FLOP_LANES)
    params = ModelParams(smoothing_enabled=False)
    model = train(train_routes, params)

    perfect = train_routes[0]
    # two points: first lands in PORTB territory, second in PORTA's, so
    # unsmoothed earliness is exactly 0.5
    half_records = [
        make_record(ship="Q2", lat=1.0, lon=4.99, ts=0, arr_time=3600,
                    arr_port="PORTA"),
        make_record(ship="Q2", lat=1.0, lon=0.01, ts=3600, arr_time=3600,
                    arr_port="PORTA"),
    ]
    (half,) = partition_routes(half_records)
    enrich_route(half)

    scores = score_dataset(model, [perfect, half], workers=1)
    per_route = {rid: e for rid, e, _ in scores.per_route}
    assert per_route[perfect.route_id] == 1.0
    assert per_route[half.route_id] == 0.5
    assert scores.avg_earliness == pytest.approx(0.75)

    swapped = score_dataset(model, [half, perfect], workers=1)
    assert swapped.avg_earliness == scores.avg_earliness
    assert swapped.mae_minutes == scores.mae_minutes


def test_score_dataset_thread_invariance(canonical_routes):
    model = train(canonical_routes[:40], ModelParams())
    subset = canonical_routes[40:70]
    seq = score_dataset(model, subset, workers=1)
    par = score_dataset(model, subset, workers=8)
    assert scores_csv(seq) == scores_csv(par)
    assert seq.avg_earliness == par.avg_earliness
    assert seq.mae_minutes == par.mae_minutes


def test_earliness_bounds(canonical_routes):
    model = train(canonical_routes[:40], ModelParams())
    scores = score_dataset(model, canonical_routes[40:60], workers=1)
    for _, e, m in scores.per_route:
        assert 0.0 <= e <= 1.0
        assert m >= 0.0


def test_synthetic_deterministic():
    cfg = SyntheticConfig(n_ports=3, routes_per_port=2, seed=9)
    assert gen_synthetic(cfg) == gen_synthetic(cfg)
    other = SyntheticConfig(n_ports=3, routes_per_port=2, seed=10)
    assert gen_synthetic(other) != gen_synthetic(cfg)


def test_synthetic_counts_and_structure(canonical_records):
    cfg = SyntheticConfig()
    routes = partition_routes(canonical_records)
    assert len(routes) == cfg.n_ports * cfg.routes_per_port
    ports = {r.arrival_port for r in routes}
    assert len(ports) == cfg.n_ports
    for r in routes:
        assert cfg.points_min <= len(r.points) <= cfg.points_max
        assert r.departure_port != r.arrival_port


def test_synthetic_kinematic_consistency(canonical_routes):
    """Leg durations must track leg lengths at the route's cruise speed."""
    for route in canonical_routes[:10]:
        speed_km_s = route.points[0].record.speed_knots * KNOTS_TO_KM_S
        for a, b in zip(route.points, route.points[1:]):
            dt = b.record.timestamp - a.record.timestamp
            leg = great_circle_km(a.record.lat_deg, a.record.lon_deg,
                                  b.record.lat_deg, b.record.lon_deg)
            assert dt >= 1
            # whole-second rounding plus the occasional +1 s start nudge
            assert abs(leg - speed_km_s * dt) <= speed_km_s * 2.0


def test_synthetic_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(n_ports=1)
    with pytest.raises(ValueError):
        SyntheticConfig(points_min=10, points_max=5)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SyntheticConfig(seed=-1)


def test_scoring_an_unlabeled_route_rejected(canonical_routes):
    model = train(canonical_routes[:10], ModelParams())
    records = [make_record(lat=0.1 * k, ts=1000 + 60 * k, arr_time=None, arr_port=None)
               for k in range(3)]
    (route,) = partition_routes(records, labeled=False)
    enrich_route(route)
    with pytest.raises(ValueError, match=f"route {route.route_id} is unlabeled"):
        score_route(model, route)
    with pytest.raises(ValueError, match=f"route {route.route_id} is unlabeled"):
        score_dataset(model, canonical_routes[:2] + [route], workers=2)


def test_synthetic_routes_score_perfectly_on_themselves(canonical_routes):
    model = train(canonical_routes, ModelParams())
    scores = score_dataset(model, canonical_routes[:10], workers=1)
    assert scores.avg_earliness == 1.0
    assert scores.mae_minutes == 0.0
