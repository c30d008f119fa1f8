"""Group AIS records into routes and enrich the points.

A route is the point sequence of one ship travelling from a departure port to
an arrival port. Labeled data is keyed by (ship id, departure port, arrival
time); unlabeled streams are cut into segments whenever a ship's reported
departure port changes. Enrichment fills in, per point: the bearing from the
previous point, the cumulative great-circle distance from departure, and (for
labeled data) the remaining time to arrival.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, groupby

from .geo import great_circle_km, initial_bearing_deg
from .ingest import AisRecord


@dataclass(slots=True, eq=False)
class RoutePoint:
    """One AIS point with route context attached by enrich_route. Points
    compare and hash by identity: two points with equal fields are two
    points."""

    point_id: int
    record: AisRecord
    bearing_deg: float = 0.0
    dist_from_departure_km: float = 0.0
    remaining_time_s: int | None = None

    @property
    def course_deg(self) -> float:
        """Course over ground; a missing course falls back to the bearing."""
        if self.record.course_deg is not None:
            return self.record.course_deg
        return self.bearing_deg


@dataclass
class Route:
    route_id: str
    ship_id: str
    departure_port: str
    arrival_port: str | None
    arrival_time: int | None
    points: list[RoutePoint]


def partition_routes(records: list[AisRecord], labeled: bool = True) -> list[Route]:
    """Split records into routes; points sorted by timestamp (stable).

    Labeled records group by the (ship_id, departure_port, arrival_time) key;
    a record without arrival time or port, or a group whose rows name
    different arrival ports, raises ValueError.
    Unlabeled records group per ship in timestamp order, breaking a segment
    whenever the departure port changes. Every record lands in exactly one
    route; point ids run 0..n-1 over the returned routes in order.
    """
    routes: list[Route] = []
    point_ids = count()
    if labeled:
        groups: dict[tuple[str, str, int], list[AisRecord]] = {}
        for rec in records:
            if rec.arrival_time is None or rec.arrival_port is None:
                raise ValueError(f"record of ship {rec.ship_id} at {rec.timestamp} "
                                 "has no arrival time or port")
            groups.setdefault((rec.ship_id, rec.departure_port, rec.arrival_time), []).append(rec)
        for (ship_id, dep, arr_time), recs in groups.items():
            recs.sort(key=lambda r: r.timestamp)
            route_id = f"{ship_id}:{dep}:{arr_time}"
            ports = sorted({r.arrival_port for r in recs})
            if len(ports) > 1:
                raise ValueError(f"route {route_id} has conflicting arrival ports {ports}")
            routes.append(Route(route_id=route_id, ship_id=ship_id, departure_port=dep,
                                arrival_port=recs[0].arrival_port, arrival_time=arr_time,
                                points=[RoutePoint(next(point_ids), r) for r in recs]))
    else:
        by_ship: dict[str, list[AisRecord]] = {}
        for rec in records:
            by_ship.setdefault(rec.ship_id, []).append(rec)
        for ship_id, recs in by_ship.items():
            recs.sort(key=lambda r: r.timestamp)
            segments = groupby(recs, key=lambda r: r.departure_port)
            for seg_idx, (dep, seg) in enumerate(segments):
                routes.append(Route(route_id=f"{ship_id}:{dep}:{seg_idx}", ship_id=ship_id,
                                    departure_port=dep, arrival_port=None, arrival_time=None,
                                    points=[RoutePoint(next(point_ids), r) for r in seg]))
    return routes


def _fallback_bearing(rec: AisRecord) -> float:
    # First point of a route, or coincident consecutive fixes: course, then
    # heading, then due north.
    if rec.course_deg is not None:
        return rec.course_deg
    if rec.heading_deg is not None:
        return rec.heading_deg
    return 0.0


def enrich_route(route: Route) -> Route:
    """Fill bearing, cumulative distance and remaining time, in place."""
    if not route.points:
        raise ValueError(f"route {route.route_id} has no points")
    prev: RoutePoint | None = None
    for pt in route.points:
        rec = pt.record
        lat, lon = rec.lat_deg, rec.lon_deg  # a record's fields are read once a point
        if prev is None:
            pt.bearing_deg = _fallback_bearing(rec)
            pt.dist_from_departure_km = 0.0
        else:
            bearing = initial_bearing_deg(prev_lat, prev_lon, lat, lon)
            pt.bearing_deg = bearing if bearing is not None else _fallback_bearing(rec)
            pt.dist_from_departure_km = prev.dist_from_departure_km + great_circle_km(
                prev_lat, prev_lon, lat, lon)
        if route.arrival_time is not None:
            pt.remaining_time_s = route.arrival_time - rec.timestamp
        prev, prev_lat, prev_lon = pt, lat, lon
    return route
