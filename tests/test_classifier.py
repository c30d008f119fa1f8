"""Training, per-port candidates, similarity, smoothing, classification."""

import math
from itertools import product

import numpy as np
import pytest

from portcall.classifier import (
    ModelParams,
    RouteState,
    classify_point,
    classify_points,
    embed_points,
    prepare,
    similarity,
    train,
)
from portcall.embedding import FeatureWeights, embed
from portcall.geo import EARTH_RADIUS_KM, great_circle_km
from portcall.index import brute_nearest
from portcall.ingest import AIS_HEADER, AisRecord, parse_ais_csv
from portcall.routes import Route, RoutePoint, enrich_route, partition_routes
from tests.test_geo import oracle_great_circle_km


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
    assert repr(model) == f"Model(params={model.params!r})"  # not every training point


def test_train_same_port_merges():
    voyages = [
        ("S1", "PORTA", [(0.0, 0.0, 0), (1.0, 0.0, 3600)]),
        ("S2", "PORTA", [(0.0, 1.0, 0), (1.0, 1.0, 3600)]),
    ]
    model = train(build_routes(voyages), ModelParams())
    assert model.ports == ["PORTA"]
    assert model.per_port["PORTA"].tree.n_points == 4


def test_train_rejects_repeated_point_ids():
    """Each partition_routes call numbers its points from 0, so routes of two
    calls share ids; the port maps would keep one point per id and the table
    every row, so candidates would be re-ranked with the wrong point."""
    routes = build_routes(TWO_PORT_LANES[:1]) + build_routes(TWO_PORT_LANES[1:])
    with pytest.raises(ValueError, match="point id 0 is repeated"):
        train(routes, ModelParams())
    assert train(build_routes(TWO_PORT_LANES), ModelParams()).n_points == 7


def test_train_requires_labeled_routes():
    with pytest.raises(ValueError):
        train([], ModelParams())


def test_train_rejects_routes_that_were_not_enriched():
    records = [make_record(ship="S1", lat=0.0, lon=0.0, ts=0, arr_time=7200, arr_port="PORTA"),
               make_record(ship="S1", lat=1.0, lon=0.0, ts=3600, arr_time=7200, arr_port="PORTA"),
               make_record(ship="S2", lat=0.0, lon=5.0, ts=0, arr_time=3600, arr_port="PORTB")]
    routes = partition_routes(records)
    enrich_route(routes[0])
    with pytest.raises(ValueError, match=f"route {routes[1].route_id} is not enriched"):
        train(routes, ModelParams())


def test_train_names_a_labeled_route_without_points():
    """A labeled route with no points fails with its id, whether its port has
    other points or not, and whether any route has points; an unlabeled one
    is skipped as before."""
    def empty(route_id, port):
        return Route(route_id=route_id, ship_id="S9", departure_port="ALFA",
                     arrival_port=port, arrival_time=5000, points=[])
    routes = build_routes(TWO_PORT_LANES)
    for bad in ([*routes, empty("S9_0", "PORTC")], [empty("S9_0", "PORTA"), *routes],
                [empty("S9_0", "PORTA")]):
        with pytest.raises(ValueError, match="route S9_0 has no points"):
            train(bad, ModelParams())
    assert train([*routes, empty("S9_0", None)], ModelParams()).n_points == 7


def test_prepare_raises_each_train_error():
    records = [make_record(ship="S1", lat=0.0, lon=0.0, ts=0, arr_time=3600, arr_port="PORTA"),
               make_record(ship="S2", lat=0.0, lon=5.0, ts=0, arr_time=3600, arr_port="PORTB")]
    not_enriched = partition_routes(records)
    enrich_route(not_enriched[0])
    no_points = Route(route_id="S9_0", ship_id="S9", departure_port="ALFA",
                      arrival_port="PORTA", arrival_time=5000, points=[])
    cases = [([], "at least one labeled route"),
             (not_enriched, f"route {not_enriched[1].route_id} is not enriched"),
             (build_routes(TWO_PORT_LANES[:1]) + build_routes(TWO_PORT_LANES[1:]),
              "point id 0 is repeated"),
             ([no_points], "route S9_0 has no points")]
    for routes, message in cases:
        for fit in (prepare, lambda r: train(r, ModelParams())):
            with pytest.raises(ValueError, match=message):
                fit(routes)


def test_candidates_one_per_port_and_brute_agreement():
    from portcall.embedding import embed_arrays

    voyages = TWO_PORT_LANES + [
        ("S3", "PORTC", [(0.0, -5.0, 0), (1.0, -5.0, 3600), (2.0, -5.0, 7200)]),
    ]
    routes = build_routes(voyages)
    model = train(routes, ModelParams())
    q = make_point(lat=0.5, lon=0.2, course=0.0)
    ids, dists, _ = model.table.nearest(embed_points([q], model.params.weights))
    # one candidate per port, in port order
    assert ids.shape == dists.shape == (1, 3)
    assert model.ports == ["PORTA", "PORTB", "PORTC"]

    qv = embed(q.record.lat_deg, q.record.lon_deg, q.bearing_deg,
               model.params.weights)
    for port, cand_id, dist in zip(model.ports, ids[0].tolist(), dists[0].tolist()):
        pts = [p for r in routes if r.arrival_port == port for p in r.points]
        assert cand_id in model.per_port[port].points
        data = embed_arrays(np.array([p.record.lat_deg for p in pts]),
                            np.array([p.record.lon_deg for p in pts]),
                            np.array([p.bearing_deg for p in pts]),
                            model.params.weights)
        want_id, want_dist = brute_nearest(data, qv, np.array([p.point_id for p in pts]))
        assert cand_id == want_id
        assert dist == want_dist


def test_candidate_exact_match_distance_zero():
    routes = build_routes(TWO_PORT_LANES)
    model = train(routes, ModelParams())
    target = routes[0].points[1]
    q = RoutePoint(point_id=999, record=target.record,
                   bearing_deg=target.bearing_deg,
                   dist_from_departure_km=target.dist_from_departure_km)
    ids, dists, _ = model.table.nearest(embed_points([q], model.params.weights))
    by_port = dict(zip(model.ports, dists[0].tolist()))
    assert by_port["PORTA"] == 0.0
    assert ids[0, model.ports.index("PORTA")] == target.point_id


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


def oracle_angle_deg(a, b):
    """The unsigned angle between two directions, from their unit vectors."""
    d = math.radians(a - b)
    return abs(math.degrees(math.atan2(math.sin(d), math.cos(d))))


def oracle_similarity(q, c, p_course, p_heading, p_speed, p_dist):
    """The similarity formula written out again: the great-circle distance
    times one (1 + penalty * difference) factor per attribute, the course
    falling back to the bearing, a missing heading adding nothing, and the
    speed and distance differences capped at 50 kn and 100 km."""
    course = [p.bearing_deg if p.record.course_deg is None else p.record.course_deg
              for p in (q, c)]
    headings = (q.record.heading_deg, c.record.heading_deg)
    d_heading = 0.0 if None in headings else oracle_angle_deg(*headings) / 180.0
    return (oracle_great_circle_km(q.record.lat_deg, q.record.lon_deg,
                                   c.record.lat_deg, c.record.lon_deg)
            * (1.0 + p_course * oracle_angle_deg(*course) / 180.0)
            * (1.0 + p_heading * d_heading)
            * (1.0 + p_speed * min(abs(q.record.speed_knots - c.record.speed_knots) / 50.0, 1.0))
            * (1.0 + p_dist * min(abs(q.dist_from_departure_km
                                      - c.dist_from_departure_km) / 100.0, 1.0)))


def test_similarity_matches_oracle_sweep():
    """2,000 seeded (query, candidate) pairs anywhere on the globe, a quarter
    of them near a pole and a quarter across the antimeridian, with missing
    courses and headings on either side, speed and distance differences on
    both sides of their caps, and penalties in [0, 10], a fifth of them 0."""
    rng = np.random.default_rng(47)
    seen = dict.fromkeys(("pole", "antimeridian", "no course", "no q heading",
                          "no c heading", "speed cap", "dist cap", "zero penalty"), 0)

    def draw_point(lat, lon):
        record = make_record(lat=lat, lon=lon,
                             course=None if rng.random() < 0.2 else rng.uniform(0.0, 360.0),
                             heading=None if rng.random() < 0.25 else rng.uniform(0.0, 360.0),
                             speed=rng.uniform(0.0, 120.0))
        return RoutePoint(point_id=0, record=record, bearing_deg=rng.uniform(0.0, 360.0),
                          dist_from_departure_km=rng.uniform(0.0, 300.0))

    for k in range(2000):
        lat, lon = rng.uniform(-90.0, 90.0, size=2), rng.uniform(-180.0, 180.0, size=2)
        if k % 4 == 1:
            lat = rng.choice([-1.0, 1.0]) * rng.uniform(89.0, 90.0, size=2)
            seen["pole"] += 1
        elif k % 4 == 2:
            lon = np.array([rng.uniform(170.0, 180.0), rng.uniform(-180.0, -170.0)])
            seen["antimeridian"] += 1
        q, c = (draw_point(a, b) for a, b in zip(lat.tolist(), lon.tolist()))
        penalties = np.where(rng.random(4) < 0.2, 0.0, rng.uniform(0.0, 10.0, size=4)).tolist()
        seen["no course"] += q.record.course_deg is None or c.record.course_deg is None
        seen["no q heading"] += q.record.heading_deg is None
        seen["no c heading"] += c.record.heading_deg is None
        seen["speed cap"] += abs(q.record.speed_knots - c.record.speed_knots) > 50.0
        seen["dist cap"] += abs(q.dist_from_departure_km - c.dist_from_departure_km) > 100.0
        seen["zero penalty"] += 0.0 in penalties
        params = ModelParams(**dict(zip(("p_course", "p_heading", "p_speed", "p_dist"), penalties)))
        assert similarity(q, c, params) == pytest.approx(oracle_similarity(q, c, *penalties),
                                                          rel=1e-6, abs=1e-9)
    # every case the docstring names came up often, and so did the uncapped differences
    assert min(seen.values()) >= 200
    assert seen["speed cap"] <= 1800 and seen["dist cap"] <= 1800


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
    # however long the stream, the state stays its four scalar fields
    state = RouteState()
    names = vars(state).keys()
    assert len(names) == 4
    for port in rng.choice(["A", "B", "C"], size=20000, p=[0.6, 0.3, 0.1]).tolist():
        state.push(port)
        assert vars(state).keys() == names
        assert all(type(v) in (str, int) for v in vars(state).values())


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


# every combination of the extremes the parser accepts: latitude at the poles;
# longitude at the antimeridian, on the 0-360 convention and at +-1e308 (all
# folded into range); speed 0 and 1e308; course missing or just under 360;
# heading missing, the AIS "unavailable" 511, or just under 360
EXTREME_FIELDS = list(product(["-90", "90"],
                              ["-180", "180", "0", "270", "360", "-1e308", "1e308"],
                              ["0", "1e308"], ["", "359.99"], ["", "511", "359.99"]))


def test_extreme_accepted_rows_train_and_classify_exactly():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        lines = [",".join(AIS_HEADER)]
        for i in rng.permutation(len(EXTREME_FIELDS)):
            lat, lon, speed, course, heading = EXTREME_FIELDS[i]
            # six routes into three ports; four timestamps, so fixes repeat them
            route, ts = int(rng.integers(0, 6)), int(rng.integers(0, 4)) * 600
            lines.append(f"S{route},70,{speed},{lon},{lat},{course},{heading},{ts},ALFA,,"
                         f"{86400 + route},PORT{route % 3}")
        records, errors = parse_ais_csv("\n".join(lines) + "\n", labeled=True)
        assert errors == [] and len(records) == len(EXTREME_FIELDS)
        routes = partition_routes(records)
        for route in routes:
            enrich_route(route)
        model = train(routes, ModelParams())

        by_port = {port: [p for r in routes if r.arrival_port == port for p in r.points]
                   for port in model.ports}
        remaining = {p.point_id: p.remaining_time_s for r in routes for p in r.points}
        for route in routes:
            queries = embed_points(route.points, model.params.weights)
            ids, dists, _ = model.table.nearest(queries)
            for g, pts in enumerate(by_port.values()):
                data = embed_points(pts, model.params.weights)
                pids = [p.point_id for p in pts]
                for k, q in enumerate(queries):
                    assert (int(ids[k, g]), float(dists[k, g])) == brute_nearest(data, q, pids)
            preds = classify_points(model, RouteState(), route.points)
            assert all(p.chosen_point_id in row for p, row in zip(preds, ids.tolist()))
            assert [p.arrival for p in preds] == [q.record.timestamp + remaining[p.chosen_point_id]
                                                  for q, p in zip(route.points, preds)]
