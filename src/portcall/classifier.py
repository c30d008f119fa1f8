"""Destination-port and arrival-time prediction.

Training builds one ball tree over the embeddings of every route point, its
first level split by arrival port, so its leaf table holds one group of
leaves per port in port order. A model keeps that table, not the tree, and
each port's {point id: point} map. Classifying a block of consecutive
points of one route asks the table for every port's exact nearest point to
each point in one kernel call, looks each candidate up in its port's map,
re-ranks those candidates with a similarity function
(great-circle distance scaled by penalty factors for course, heading, speed
and distance-from-departure differences; lower is more similar), and takes
the winner's port and precomputed remaining time. To damp flip-flopping
between ports along one query route, the emitted port is the value of the
longest run of identical raw predictions seen so far. A streamed point is a
block of one, so streaming and batch replay share one code path.

Every argmin is totally ordered (similarity, then point id), so sequential
and parallel runs, and blocks of any size, emit identical predictions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import isfinite
from typing import NamedTuple

import numpy as np

from .embedding import FeatureWeights, embed_arrays
from .geo import angular_diff_deg, great_circle_km
from .index import BallTree, DEFAULT_LEAF_SIZE, LeafTable
from .routes import Route, RoutePoint

# the speed and distance-from-departure differences that count as "large" (capped at 1)
NORM_SPEED_KNOTS = 50.0
NORM_DIST_KM = 100.0

# a (query point, candidate) pair's great-circle km and its course, heading,
# speed and distance differences: what similarity weighs with the penalties
Terms = tuple[float, float, float, float, float]


@dataclass(frozen=True)
class ModelParams:
    """What the genetic algorithm tunes (the embedding weights and the
    penalties) and the smoothing switch. Penalties scale how strongly an
    attribute difference inflates the great-circle distance between a query
    point and a candidate.
    """

    weights: FeatureWeights = field(default_factory=FeatureWeights)
    p_course: float = 1.0
    p_heading: float = 1.0
    p_speed: float = 1.0
    p_dist: float = 1.0
    smoothing_enabled: bool = True

    def __post_init__(self) -> None:
        # nan or inf here makes similarities nan or inf, and min() then keeps the first port
        for name in ("p_course", "p_heading", "p_speed", "p_dist"):
            value = getattr(self, name)
            if not (isfinite(value) and value >= 0):
                raise ValueError(f"{name}={value} must be finite and >= 0")


class PortIndex(NamedTuple):
    """A port's own ball tree, built from its point map, and that map. The
    benchmark's gate and trace are its last readers (ROADMAP.md)."""

    tree: BallTree
    points: dict[int, RoutePoint]


@dataclass(frozen=True)
class Model:
    """A trained model: what classify_points reads. Its parameters, the leaf
    table of the one ball tree ``train`` builds, one group per port in port
    order, and each port's ``{point id: point}`` map, in the same order. The
    maps, and the pair-terms table of a model trained from a prepared set,
    are the set's own, shared and not copied; a model trained from routes
    holds no table."""

    params: ModelParams
    table: LeafTable = field(repr=False)
    points: dict[str, dict[int, RoutePoint]] = field(repr=False)
    terms_table: dict[RoutePoint, dict[RoutePoint, Terms]] | None = field(repr=False)

    @property
    def ports(self) -> list[str]:
        return list(self.points)

    @property
    def n_points(self) -> int:
        return sum(map(len, self.points.values()))

    @property
    def per_port(self) -> dict[str, PortIndex]:
        """Each port's tree, built from its map on every read; its leaves are
        the port's group of the table. The benchmark's gate and trace are
        its last readers, until they read the table (ROADMAP.md)."""
        w = self.params.weights
        return {port: PortIndex(BallTree(embed_points(list(m.values()), w), ids=list(m),
                                         leaf_size=DEFAULT_LEAF_SIZE), m)
                for port, m in self.points.items()}


@dataclass
class RouteState:
    """Per-query-route smoothing state; single writer.

    Keeps only incremental longest-run bookkeeping, so each emitted port
    costs O(1) time and the state stays the same size however long the
    stream runs.
    """

    _cur_value: str = ""
    _cur_len: int = 0
    _best_value: str = ""
    _best_len: int = 0

    def push(self, raw_port: str) -> str:
        """Append a raw prediction and return the smoothed (longest-run) port.

        The emitted port changes only when some run becomes strictly longer
        than the incumbent's, so equal-length ties never flip the output.
        """
        if raw_port == self._cur_value:
            self._cur_len += 1
        else:
            self._cur_value = raw_port
            self._cur_len = 1
        # a newer run must strictly beat the reigning one to take over
        if self._cur_len > self._best_len:
            self._best_value = self._cur_value
            self._best_len = self._cur_len
        return self._best_value


class Prediction(NamedTuple):
    port: str
    arrival: int
    raw_port: str
    chosen_point_id: int


def _coordinates(points: list[RoutePoint]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The latitudes, longitudes and bearings of route points."""
    lat, lon, bearing = [], [], []
    for p in points:
        lat.append(p.record.lat_deg)
        lon.append(p.record.lon_deg)
        bearing.append(p.bearing_deg)
    return np.array(lat), np.array(lon), np.array(bearing)


def embed_points(points: list[RoutePoint], weights: FeatureWeights) -> np.ndarray:
    """The (n, 5) embedding of route points."""
    return embed_arrays(*_coordinates(points), weights)


class TrainingSet(NamedTuple):
    """What train reads of routes that no parameter changes: the port point
    maps in port order and the ids and coordinates; and the pair-terms table
    that the set's models share, which lives as long as the set or a model."""

    points: dict[str, dict[int, RoutePoint]]
    ids: np.ndarray
    coordinates: np.ndarray  # read-only (3, n): lat, lon, bearing
    # {query point: {candidate point: pair_terms}}, empty until a model fills it;
    # keyed by the points (by identity), which it keeps alive and must not change
    terms_table: dict[RoutePoint, dict[RoutePoint, Terms]]


def prepare(routes: list[Route]) -> TrainingSet:
    """Check enriched labeled routes and gather what train reads of them."""
    labeled = [r for r in routes if r.arrival_port is not None]
    if not labeled:
        raise ValueError("training requires at least one labeled route")

    by_port: dict[str, list[RoutePoint]] = {}
    for route in labeled:
        assert route.arrival_port is not None
        if not route.points:
            raise ValueError(f"route {route.route_id} has no points")
        if any(p.remaining_time_s is None for p in route.points):
            raise ValueError(f"route {route.route_id} is not enriched: "
                             "its points lack remaining_time_s")
        by_port.setdefault(route.arrival_port, []).extend(route.points)

    ports = sorted(by_port)
    pts = [p for port in ports for p in by_port[port]]
    ids = [p.point_id for p in pts]
    # the port maps keep one point per id, the table every row: they must agree
    if len(set(ids)) < len(ids):
        repeated = next(i for i, n in Counter(ids).items() if n > 1)
        raise ValueError(f"point id {repeated} is repeated; partition every "
                         "training record in one partition_routes call")
    coordinates = np.array(_coordinates(pts))
    coordinates.flags.writeable = False  # so no fit can change the set for the next
    return TrainingSet({port: {p.point_id: p for p in by_port[port]} for port in ports},
                       np.array(ids), coordinates, {})


def train(routes: list[Route] | TrainingSet, params: ModelParams) -> Model:
    """Build the model from enriched labeled routes or their prepared set: the
    leaf table of one ball tree grouped by arrival port, in order, the set's
    point maps, and the set's terms table if the caller prepared it, else none."""
    ts = routes if isinstance(routes, TrainingSet) else prepare(routes)
    points, ids = ts.points, ts.ids
    terms_table = ts.terms_table if ts is routes else None
    embedded = embed_arrays(*ts.coordinates, params.weights)
    del ts  # a set prepared here frees its coordinates before the build
    table = BallTree(embedded, ids=ids, leaf_size=DEFAULT_LEAF_SIZE,
                     sizes=[len(m) for m in points.values()]).table
    return Model(params=params, table=table, points=points, terms_table=terms_table)


def pair_terms(q: RoutePoint, c: RoutePoint) -> Terms:
    """The parts of a query point's similarity to a candidate that no
    parameter changes: the great-circle km and the course, heading, speed
    and distance-from-departure differences, each normalized into [0, 1].
    A heading missing on either side differs by 0: absent data is not
    dissimilarity.
    """
    qr, cr = q.record, c.record
    gcd = great_circle_km(qr.lat_deg, qr.lon_deg, cr.lat_deg, cr.lon_deg)
    d_course = angular_diff_deg(q.course_deg, c.course_deg) / 180.0
    q_heading, c_heading = qr.heading_deg, cr.heading_deg
    if q_heading is None or c_heading is None:
        d_heading = 0.0
    else:
        d_heading = angular_diff_deg(q_heading, c_heading) / 180.0
    d_speed = min(abs(qr.speed_knots - cr.speed_knots) / NORM_SPEED_KNOTS, 1.0)
    d_dist = min(abs(q.dist_from_departure_km - c.dist_from_departure_km) / NORM_DIST_KM, 1.0)
    return gcd, d_course, d_heading, d_speed, d_dist


def weigh(terms: Terms, params: ModelParams) -> float:
    """The great-circle km of ``terms`` inflated by one (1 + penalty * diff)
    factor per attribute, multiplied in this order."""
    gcd, d_course, d_heading, d_speed, d_dist = terms
    return (gcd
            * (1.0 + params.p_course * d_course)
            * (1.0 + params.p_heading * d_heading)
            * (1.0 + params.p_speed * d_speed)
            * (1.0 + params.p_dist * d_dist))


def similarity(q: RoutePoint, c: RoutePoint, params: ModelParams) -> float:
    """Similarity factor between a query point and a candidate; lower is
    more similar, and 0 means an exact positional match."""
    return weigh(pair_terms(q, c), params)


def classify_points(model: Model, state: RouteState,
                    points: list[RoutePoint]) -> list[Prediction]:
    """Predict destination port and arrival time for consecutive streamed
    points of one route, in order, as classify_point would one by one.

    The arrival estimate always follows the similarity winner, even when
    smoothing overrides the emitted port. Each (point, candidate) pair's
    terms come from ``model.terms_table``, its prepared set's table, which
    keeps them for later calls; a model trained from routes has none and
    keeps them in a table of this call's own.
    """
    params = model.params
    ids = model.table.nearest(embed_points(points, params.weights))[0]
    # Threads replaying one holdout share a table safely: a route is replayed
    # by one thread, so each query point has one writer, and one dict store
    # is atomic; a lost store would only cost a recomputation.
    known = {} if model.terms_table is None else model.terms_table
    port_points = model.points.items()
    out = []
    for q, row in zip(points, ids.tolist()):
        terms = known.setdefault(q, {})
        best_s = best_pid = best_port = winner = None
        for (port, candidates), pid in zip(port_points, row):
            c = candidates[pid]
            t = terms.get(c)
            if t is None:
                t = terms[c] = pair_terms(q, c)
            s = weigh(t, params)
            # the least similarity wins, then the smallest point id
            if best_s is None or s < best_s or (s == best_s and pid < best_pid):
                best_s, best_pid, best_port, winner = s, pid, port, c
        smoothed = state.push(best_port)
        port = smoothed if params.smoothing_enabled else best_port
        out.append(Prediction(port, q.record.timestamp + winner.remaining_time_s,
                              best_port, best_pid))
    return out


def classify_point(model: Model, state: RouteState, q: RoutePoint) -> Prediction:
    """Predict destination port and arrival time for one streamed point: a
    block of one."""
    return classify_points(model, state, [q])[0]
