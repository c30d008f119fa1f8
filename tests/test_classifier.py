"""Training, per-port candidates, similarity, smoothing, classification."""

import math

import numpy as np
import pytest

from portcall.classifier import (
    ModelParams,
    RouteState,
    classify_point,
    similarity,
    train,
)
from portcall.embedding import FeatureWeights, embed
from portcall.geo import EARTH_RADIUS_KM, great_circle_km
from portcall.index import brute_nearest
from portcall.ingest import AisRecord
from portcall.routes import RoutePoint, enrich_route, partition_routes


def make_record(ship="SHIP_A", lon=0.0, lat=0.0, ts=1000, dep="ALFA",
                arr_time=5000, arr_port="BRAVO", course=45.0, heading=None,
                speed=10.0):
    return AisRecord(ship_id=ship, ship_type=70, speed_knots=speed, lon_deg=lon,
                     lat_deg=lat, course_deg=course, heading_deg=heading,
                     timestamp=ts, departure_port=dep, draught=None,
                     arrival_time=arr_time, arrival_port=arr_port)


def make_point(lat=0.0, lon=0.0, course=0.0, heading=None, speed=10.0,
               dist=0.0, ts=1000, remaining=None, point_id=0):
    rec = make_record(lat=lat, lon=lon, course=course, heading=heading,
                      speed=speed, ts=ts)
    return RoutePoint(point_id=point_id, record=rec, bearing_deg=course,
                      dist_from_departure_km=dist, remaining_time_s=remaining)


def build_routes(voyages):
    """voyages: list of (ship, arr_port, [(lat, lon, ts), ...])."""
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


TWO_PORT_LANES = [
    ("S1", "PORTA", [(0.0, 0.0, 0), (1.0, 0.0, 3600), (2.0, 0.0, 7200)]),
    ("S2", "PORTB", [(0.0, 5.0, 0), (1.0, 5.0, 3600), (2.0, 5.0, 7200),
                     (3.0, 5.0, 10800)]),
]


def test_train_one_tree_per_port():
    model = train(build_routes(TWO_PORT_LANES), ModelParams())
    assert model.ports == ["PORTA", "PORTB"]
    assert model.per_port["PORTA"].tree.n_points == 3
    assert model.per_port["PORTB"].tree.n_points == 4
    assert model.n_points == 7


def test_train_same_port_merges():
    voyages = [
        ("S1", "PORTA", [(0.0, 0.0, 0), (1.0, 0.0, 3600)]),
        ("S2", "PORTA", [(0.0, 1.0, 0), (1.0, 1.0, 3600)]),
    ]
    model = train(build_routes(voyages), ModelParams())
    assert model.ports == ["PORTA"]
    assert model.per_port["PORTA"].tree.n_points == 4


def test_train_requires_labeled_routes():
    with pytest.raises(ValueError):
        train([], ModelParams())


def test_candidates_one_per_port_and_brute_agreement():
    from portcall.classifier import candidates_per_port
    from portcall.embedding import embed_arrays

    voyages = TWO_PORT_LANES + [
        ("S3", "PORTC", [(0.0, -5.0, 0), (1.0, -5.0, 3600), (2.0, -5.0, 7200)]),
    ]
    routes = build_routes(voyages)
    model = train(routes, ModelParams())
    q = make_point(lat=0.5, lon=0.2, course=0.0)
    cands = candidates_per_port(model, q)
    assert [port for port, _, _ in cands] == ["PORTA", "PORTB", "PORTC"]

    qv = embed(q.record.lat_deg, q.record.lon_deg, q.bearing_deg,
               model.params.weights)
    for port, cand, dist in cands:
        pts = [p for r in routes if r.arrival_port == port for p in r.points]
        data = embed_arrays(np.array([p.record.lat_deg for p in pts]),
                            np.array([p.record.lon_deg for p in pts]),
                            np.array([p.bearing_deg for p in pts]),
                            model.params.weights)
        want_id, want_dist = brute_nearest(data, qv, np.array([p.point_id for p in pts]))
        assert cand.point_id == want_id
        assert dist == want_dist


def test_candidate_exact_match_distance_zero():
    from portcall.classifier import candidates_per_port

    routes = build_routes(TWO_PORT_LANES)
    model = train(routes, ModelParams())
    target = routes[0].points[1]
    q = RoutePoint(point_id=999, record=target.record,
                   bearing_deg=target.bearing_deg,
                   dist_from_departure_km=target.dist_from_departure_km)
    by_port = {port: dist for port, _, dist in candidates_per_port(model, q)}
    assert by_port["PORTA"] == 0.0


def test_similarity_reduces_to_distance_with_zero_penalties():
    params = ModelParams(p_course=0, p_heading=0, p_speed=0, p_dist=0)
    q = make_point(lat=10.0, lon=20.0, course=0.0)
    c = make_point(lat=11.0, lon=21.0, course=180.0, speed=25.0, dist=400.0)
    want = great_circle_km(10.0, 20.0, 11.0, 21.0)
    assert similarity(q, c, params) == pytest.approx(want, rel=1e-12)


def test_similarity_identical_points_zero():
    params = ModelParams()
    q = make_point(lat=10.0, lon=20.0, course=77.0, heading=78.0, dist=5.0)
    assert similarity(q, q, params) == 0.0


def test_similarity_hand_value_150():
    # 100 km apart on the equator, course difference 90 degrees, only the
    # course penalty active: 100 * (1 + 1 * 90/180) = 150
    lon = math.degrees(100.0 / EARTH_RADIUS_KM)
    params = ModelParams(p_course=1.0, p_heading=0.0, p_speed=0.0, p_dist=0.0)
    q = make_point(lat=0.0, lon=0.0, course=0.0)
    c = make_point(lat=0.0, lon=lon, course=90.0)
    assert similarity(q, c, params) == pytest.approx(150.0, abs=1e-9)


def test_similarity_missing_heading_contributes_nothing():
    params = ModelParams(p_course=0.0, p_heading=5.0, p_speed=0.0, p_dist=0.0)
    q = make_point(lat=0.0, lon=0.0, course=0.0, heading=None)
    c = make_point(lat=0.0, lon=1.0, course=0.0, heading=90.0)
    want = great_circle_km(0, 0, 0, 1)
    assert similarity(q, c, params) == pytest.approx(want, rel=1e-12)
    both = make_point(lat=0.0, lon=0.0, course=0.0, heading=10.0)
    assert similarity(both, c, params) > want


def test_similarity_speed_and_dist_caps():
    base = ModelParams(p_course=0.0, p_heading=0.0, p_speed=1.0, p_dist=0.0)
    q = make_point(lat=0.0, lon=0.0, speed=0.0)
    c_fast = make_point(lat=0.0, lon=1.0, speed=200.0)
    want = great_circle_km(0, 0, 0, 1) * 2.0  # diff capped at 1
    assert similarity(q, c_fast, base) == pytest.approx(want, rel=1e-12)

    base = ModelParams(p_course=0.0, p_heading=0.0, p_speed=0.0, p_dist=1.0)
    q = make_point(lat=0.0, lon=0.0, dist=0.0)
    c_far = make_point(lat=0.0, lon=1.0, dist=1e6)
    assert similarity(q, c_far, base) == pytest.approx(want, rel=1e-12)


def test_similarity_monotone_in_each_penalty():
    q = make_point(lat=0.0, lon=0.0, course=10.0, heading=20.0, speed=5.0, dist=0.0)
    c = make_point(lat=1.0, lon=1.0, course=80.0, heading=90.0, speed=15.0, dist=50.0)
    for field in ("p_course", "p_heading", "p_speed", "p_dist"):
        lo = similarity(q, c, ModelParams(**{field: 0.5}))
        hi = similarity(q, c, ModelParams(**{field: 2.0}))
        assert hi >= lo


def earliest_strict_longest_run(history):
    """Oracle: value of the first run to reach the longest length seen in
    the prefix; a later run of equal length never takes over."""
    runs = []  # [value, length] per maximal run, in order
    for value in history:
        if runs and runs[-1][0] == value:
            runs[-1][1] += 1
        else:
            runs.append([value, 1])
    longest = max(length for _, length in runs)
    return next(value for value, length in runs if length == longest)


def test_route_state_matches_oracle_sweep():
    rng = np.random.default_rng(41)
    for _ in range(600):
        ports = ["A", "B", "C"][:int(rng.integers(2, 4))]
        history = [ports[i] for i in rng.integers(0, len(ports), size=int(rng.integers(1, 41)))]
        state = RouteState()
        emitted = [state.push(p) for p in history]
        assert emitted == [earliest_strict_longest_run(history[:k + 1])
                           for k in range(len(history))]


def test_route_state_never_flips_on_tie():
    state = RouteState()
    emitted = [state.push(p) for p in ["A", "B", "A", "A", "A"]]
    assert emitted == ["A", "A", "A", "A", "A"]

    state = RouteState()
    emitted = [state.push(p) for p in ["A", "A", "B", "B", "B"]]
    assert emitted == ["A", "A", "A", "A", "B"]


def test_route_state_tracks_longest_run_when_unambiguous():
    state = RouteState()
    emitted = [state.push(p) for p in ["A", "B", "B", "B"]]
    assert emitted == ["A", "A", "B", "B"]


def test_classify_first_point_emits_raw():
    model = train(build_routes(TWO_PORT_LANES), ModelParams())
    state = RouteState()
    q = make_point(lat=0.1, lon=5.1, course=0.0, ts=500)
    pred = classify_point(model, state, q)
    assert pred.port == pred.raw_port == "PORTB"


def test_classify_arrival_is_timestamp_plus_remaining():
    voyages = [("S1", "PORTA", [(0.0, 0.0, 0), (1.0, 0.0, 3600), (2.0, 0.0, 7200)])]
    model = train(build_routes(voyages), ModelParams())
    state = RouteState()
    # lands exactly on the middle training point, which has 3600 s remaining
    q = make_point(lat=1.0, lon=0.0, course=0.0, ts=1000)
    pred = classify_point(model, state, q)
    assert pred.arrival == 1000 + 3600
    assert pred.port == "PORTA"


def test_classify_arrival_follows_winner_even_when_smoothing_overrides():
    model = train(build_routes(TWO_PORT_LANES), ModelParams())
    state = RouteState()
    near_a = make_point(lat=1.0, lon=0.01, course=0.0, ts=100)
    near_b = make_point(lat=1.0, lon=4.99, course=0.0, ts=200)
    first = classify_point(model, state, near_a)
    assert first.raw_port == "PORTA"
    second = classify_point(model, state, near_b)
    # smoothing holds PORTA, but the arrival comes from the PORTB winner
    assert second.raw_port == "PORTB"
    assert second.port == "PORTA"
    winner = model.per_port["PORTB"].points[second.chosen_point_id]
    assert second.arrival == 200 + winner.remaining_time_s


def test_classify_no_smoothing_emits_raw():
    params = ModelParams(smoothing_enabled=False)
    model = train(build_routes(TWO_PORT_LANES), params)
    state = RouteState()
    classify_point(model, state, make_point(lat=1.0, lon=0.01, ts=100))
    pred = classify_point(model, state, make_point(lat=1.0, lon=4.99, ts=200))
    assert pred.port == pred.raw_port == "PORTB"


def test_zero_penalty_winner_is_closest_by_great_circle():
    params = ModelParams(p_course=0, p_heading=0, p_speed=0, p_dist=0)
    routes = build_routes(TWO_PORT_LANES)
    model = train(routes, params)
    rng = np.random.default_rng(41)
    for _ in range(50):
        lat = float(rng.uniform(-1, 4))
        lon = float(rng.uniform(-1, 6))
        q = make_point(lat=lat, lon=lon, course=float(rng.uniform(0, 360)), ts=10)
        pred = classify_point(model, RouteState(), q)
        dists = {}
        for r in routes:
            for p in r.points:
                d = great_circle_km(lat, lon, p.record.lat_deg, p.record.lon_deg)
                port = r.arrival_port
                dists[port] = min(dists.get(port, float("inf")), d)
        assert pred.raw_port == min(dists, key=dists.get)
