"""Route partitioning and enrichment against a prefix-sum oracle."""

import pytest

from portcall.geo import great_circle_km
from portcall.ingest import AisRecord
from portcall.routes import enrich_route, partition_routes


def make_record(ship="SHIP_A", lon=0.0, lat=0.0, ts=1000, dep="ALFA",
                arr_time=5000, arr_port="BRAVO", course=45.0, heading=None,
                speed=10.0):
    return AisRecord(ship_id=ship, ship_type=70, speed_knots=speed, lon_deg=lon,
                     lat_deg=lat, course_deg=course, heading_deg=heading,
                     timestamp=ts, departure_port=dep, draught=None,
                     arrival_time=arr_time, arrival_port=arr_port)


def test_grouping_two_keys():
    records = [
        make_record(ts=1000), make_record(ts=1100), make_record(ts=1200),
        make_record(ship="SHIP_B", ts=1000), make_record(ship="SHIP_B", ts=1050),
        make_record(ship="SHIP_B", ts=1300),
    ]
    routes = partition_routes(records)
    assert len(routes) == 2
    assert sum(len(r.points) for r in routes) == 6


def test_same_ship_two_arrival_times_two_routes():
    records = [
        make_record(ts=1000, arr_time=5000),
        make_record(ts=1100, arr_time=5000),
        make_record(ts=6000, arr_time=9000),
        make_record(ts=6100, arr_time=9000),
    ]
    routes = partition_routes(records)
    assert len(routes) == 2
    assert all(len(r.points) == 2 for r in routes)


def test_conflicting_arrival_ports_rejected():
    records = [make_record(ts=1000), make_record(ts=1100, arr_port="CHARLIE")]
    with pytest.raises(ValueError, match="SHIP_A:ALFA:5000"):
        partition_routes(records)


@pytest.mark.parametrize("arr_time,arr_port", [(None, None), (None, "BRAVO"), (5000, None)])
def test_labeled_record_without_arrival_rejected(arr_time, arr_port):
    records = [make_record(ts=1000),
               make_record(ship="SHIP_B", ts=1100, arr_time=arr_time, arr_port=arr_port)]
    with pytest.raises(ValueError, match="ship SHIP_B at 1100 has no arrival time or port"):
        partition_routes(records)


def test_out_of_order_timestamps_sorted():
    records = [make_record(ts=t) for t in (1300, 1000, 1200, 1100)]
    (route,) = partition_routes(records)
    stamps = [p.record.timestamp for p in route.points]
    assert stamps == sorted(stamps)


def test_every_record_in_exactly_one_route(canonical_records):
    routes = partition_routes(canonical_records)
    seen = sum(len(r.points) for r in routes)
    assert seen == len(canonical_records)
    ids = [p.point_id for r in routes for p in r.points]
    assert len(set(ids)) == len(ids)


def test_unlabeled_segments_on_departure_change():
    records = [
        make_record(ts=1000, dep="ALFA", arr_time=None, arr_port=None),
        make_record(ts=1100, dep="ALFA", arr_time=None, arr_port=None),
        make_record(ts=1200, dep="CHARLIE", arr_time=None, arr_port=None),
    ]
    routes = partition_routes(records, labeled=False)
    assert [len(r.points) for r in routes] == [2, 1]
    assert routes[0].arrival_port is None


def test_enrich_first_point():
    records = [make_record(ts=1000, lon=0.0, lat=0.0),
               make_record(ts=2000, lon=1.0, lat=0.0)]
    (route,) = partition_routes(records)
    enrich_route(route)
    first = route.points[0]
    assert first.dist_from_departure_km == 0.0
    # no previous point: bearing falls back to the reported course
    assert first.bearing_deg == 45.0
    assert first.remaining_time_s == 4000


def test_enrich_prefix_sum_oracle(canonical_routes):
    for route in canonical_routes[:25]:
        total = 0.0
        previous = None
        for p in route.points:
            if previous is not None:
                total += great_circle_km(previous.record.lat_deg, previous.record.lon_deg,
                                         p.record.lat_deg, p.record.lon_deg)
            assert p.dist_from_departure_km == pytest.approx(total, abs=1e-9)
            previous = p


def test_enrich_bearing_from_previous_point():
    records = [make_record(ts=1000, lon=0.0, lat=0.0),
               make_record(ts=2000, lon=1.0, lat=0.0)]
    (route,) = partition_routes(records)
    enrich_route(route)
    assert route.points[1].bearing_deg == pytest.approx(90.0)


def test_remaining_time_zero_at_arrival():
    records = [make_record(ts=1000), make_record(ts=5000)]
    (route,) = partition_routes(records)
    enrich_route(route)
    assert route.points[-1].remaining_time_s == 0


def test_monotone_invariants(canonical_routes):
    for route in canonical_routes:
        dists = [p.dist_from_departure_km for p in route.points]
        assert all(b >= a for a, b in zip(dists, dists[1:]))
        remaining = [p.remaining_time_s for p in route.points]
        assert all(b <= a for a, b in zip(remaining, remaining[1:]))


def test_enrich_empty_route_rejected():
    from portcall.routes import Route
    with pytest.raises(ValueError):
        enrich_route(Route(route_id="x", ship_id="s", departure_port="d",
                           arrival_port=None, arrival_time=None, points=[]))
