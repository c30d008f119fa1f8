"""Route partitioning and enrichment against a prefix-sum oracle."""

import numpy as np
import pytest

from portcall.geo import great_circle_km
from portcall.ingest import AisRecord
from portcall.routes import Route, RoutePoint, enrich_route, partition_routes


def make_record(ship="SHIP_A", lon=0.0, lat=0.0, ts=1000, dep="ALFA",
                arr_time=5000, arr_port="BRAVO", course=45.0, heading=None,
                speed=10.0):
    return AisRecord(ship_id=ship, ship_type=70, speed_knots=speed, lon_deg=lon,
                     lat_deg=lat, course_deg=course, heading_deg=heading,
                     timestamp=ts, departure_port=dep, draught=None,
                     arrival_time=arr_time, arrival_port=arr_port)


def test_route_point_takes_no_new_attribute():
    point = RoutePoint(0, make_record())
    point.bearing_deg = 90.0  # enrich_route sets the declared fields
    with pytest.raises(AttributeError):
        point.bearing = 90.0


def test_route_points_compare_by_identity():
    record = make_record()
    a, b = RoutePoint(0, record), RoutePoint(0, record)
    assert a == a and a != b
    assert len({a: "a", b: "b"}) == 2


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
    with pytest.raises(ValueError):
        enrich_route(Route(route_id="x", ship_id="s", departure_port="d",
                           arrival_port=None, arrival_time=None, points=[]))


# --- reference partitioner: the grouping and numbering of partition_routes as
# they were when point ids were placeholders renumbered in a last pass, kept as
# the oracle for the sweep below (its input checks are left out: the sweep's
# records pass them).

def _oracle_unlabeled_route(ship_id, seg_idx, recs):
    return Route(route_id=f"{ship_id}:{recs[0].departure_port}:{seg_idx}", ship_id=ship_id,
                 departure_port=recs[0].departure_port, arrival_port=None, arrival_time=None,
                 points=[RoutePoint(point_id=-1, record=r) for r in recs])


def oracle_partition_routes(records, labeled):
    routes = []
    if labeled:
        groups = {}
        for rec in records:
            groups.setdefault((rec.ship_id, rec.departure_port, rec.arrival_time), []).append(rec)
        for (ship_id, dep, arr_time), recs in groups.items():
            recs.sort(key=lambda r: r.timestamp)
            routes.append(Route(route_id=f"{ship_id}:{dep}:{arr_time}", ship_id=ship_id,
                                departure_port=dep, arrival_port=recs[0].arrival_port,
                                arrival_time=arr_time, points=[]))
            routes[-1].points = [RoutePoint(point_id=-1, record=r) for r in recs]
    else:
        by_ship = {}
        for rec in records:
            by_ship.setdefault(rec.ship_id, []).append(rec)
        for ship_id, recs in by_ship.items():
            recs.sort(key=lambda r: r.timestamp)
            seg_idx = 0
            current = []
            for rec in recs:
                if current and rec.departure_port != current[-1].departure_port:
                    routes.append(_oracle_unlabeled_route(ship_id, seg_idx, current))
                    seg_idx += 1
                    current = []
                current.append(rec)
            if current:
                routes.append(_oracle_unlabeled_route(ship_id, seg_idx, current))
    next_id = 0
    for route in routes:
        for pt in route.points:
            pt.point_id = next_id
            next_id += 1
    return routes


def sweep_records(rng, labeled):
    """Shuffled voyages of a few ships over three departure ports, so ships
    return to an earlier departure; timesteps of 0 give equal timestamps, and
    each record's longitude is unique so tie order shows."""
    records = []
    for ship in range(int(rng.integers(1, 5))):
        t = int(rng.integers(0, 3))
        for voyage in range(int(rng.integers(1, 6))):
            dep = "ABC"[int(rng.integers(0, 3))]
            arr_time = (voyage + 1) * 10_000 if labeled else None
            arr_port = f"P{rng.integers(0, 2)}" if labeled else None
            for _ in range(int(rng.integers(1, 6))):
                t += int(rng.integers(0, 3))
                records.append(make_record(ship=f"S{ship}", lon=float(len(records)), ts=t,
                                           dep=dep, arr_time=arr_time, arr_port=arr_port))
    return [records[i] for i in rng.permutation(len(records))]


def _shape(routes):
    return [(r.route_id, r.ship_id, r.departure_port, r.arrival_port, r.arrival_time,
             [(p.point_id, p.record) for p in r.points]) for r in routes]


@pytest.mark.parametrize("labeled", [True, False])
@pytest.mark.parametrize("seed", range(40))
def test_partition_matches_oracle_sweep(seed, labeled):
    rng = np.random.default_rng(seed)
    records = sweep_records(rng, labeled)
    routes = partition_routes(list(records), labeled=labeled)
    assert _shape(routes) == _shape(oracle_partition_routes(list(records), labeled))
    ids = [p.point_id for r in routes for p in r.points]
    assert ids == list(range(len(records)))
