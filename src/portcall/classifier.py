"""Destination-port and arrival-time prediction.

Training builds one ball tree per arrival port over the embeddings of every
route point that ends there, and stacks their leaves into one table in port
order. Classifying a block of consecutive points of one route asks the table
for every port's exact nearest point to each point in one kernel call,
re-ranks those candidates with a similarity function (great-circle distance
scaled by penalty factors for course, heading, speed and
distance-from-departure differences; lower is more similar), and takes the
winner's port and precomputed remaining time. To damp flip-flopping between
ports along one query route, the emitted port is the value of the longest
run of identical raw predictions seen so far. A streamed point is a block of
one, so streaming and batch replay share one code path.

Every argmin is totally ordered (similarity, then point id), so sequential
and parallel runs, and blocks of any size, emit identical predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite

import numpy as np

from .embedding import FeatureWeights, embed_arrays
from .geo import angular_diff_deg, great_circle_km
from .index import BallTree, DEFAULT_LEAF_SIZE, LeafTable
from .routes import Route, RoutePoint

# the speed and distance-from-departure differences that count as "large" (capped at 1)
NORM_SPEED_KNOTS = 50.0
NORM_DIST_KM = 100.0


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


@dataclass
class PortIndex:
    tree: BallTree
    points: dict[int, RoutePoint]


@dataclass
class Model:
    params: ModelParams
    per_port: dict[str, PortIndex]
    table: LeafTable  # every port's leaves, one group per port in port order

    @property
    def ports(self) -> list[str]:
        return list(self.per_port)

    @property
    def n_points(self) -> int:
        return sum(ix.tree.n_points for ix in self.per_port.values())


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


@dataclass(frozen=True)
class Prediction:
    port: str
    arrival: int
    raw_port: str
    chosen_point_id: int


def embed_points(points: list[RoutePoint], weights: FeatureWeights) -> np.ndarray:
    """The (n, 5) embedding of route points."""
    return embed_arrays(np.array([p.record.lat_deg for p in points]),
                        np.array([p.record.lon_deg for p in points]),
                        np.array([p.bearing_deg for p in points]), weights)


def train(routes: list[Route], params: ModelParams) -> Model:
    """Build the per-arrival-port ball trees and their stacked leaf table
    from enriched labeled routes."""
    labeled = [r for r in routes if r.arrival_port is not None]
    if not labeled:
        raise ValueError("training requires at least one labeled route")

    by_port: dict[str, list[RoutePoint]] = {}
    for route in labeled:
        assert route.arrival_port is not None
        if any(p.remaining_time_s is None for p in route.points):
            raise ValueError(f"route {route.route_id} is not enriched: "
                             "its points lack remaining_time_s")
        by_port.setdefault(route.arrival_port, []).extend(route.points)

    per_port: dict[str, PortIndex] = {}
    for port in sorted(by_port):
        pts = by_port[port]
        tree = BallTree(embed_points(pts, params.weights), ids=[p.point_id for p in pts],
                        leaf_size=DEFAULT_LEAF_SIZE)
        per_port[port] = PortIndex(tree=tree, points={p.point_id: p for p in pts})
    table = LeafTable.stack([ix.tree.table for ix in per_port.values()])
    for g, ix in enumerate(per_port.values()):
        ix.tree.table = table.group(g)  # one copy of the leaves, shared
    return Model(params=params, per_port=per_port, table=table)


def similarity(q: RoutePoint, c: RoutePoint, params: ModelParams) -> float:
    """Similarity factor between a query point and a candidate; lower is
    more similar, and 0 means an exact positional match.

    The great-circle distance is inflated by one (1 + penalty * diff) factor
    per attribute, each diff normalized into [0, 1]. A heading missing on
    either side contributes nothing: absent data is not dissimilarity.
    """
    gcd = great_circle_km(q.record.lat_deg, q.record.lon_deg,
                          c.record.lat_deg, c.record.lon_deg)
    d_course = angular_diff_deg(q.course_deg, c.course_deg) / 180.0
    if q.heading_deg is None or c.heading_deg is None:
        d_heading = 0.0
    else:
        d_heading = angular_diff_deg(q.heading_deg, c.heading_deg) / 180.0
    d_speed = min(abs(q.record.speed_knots - c.record.speed_knots) / NORM_SPEED_KNOTS, 1.0)
    d_dist = min(abs(q.dist_from_departure_km - c.dist_from_departure_km) / NORM_DIST_KM, 1.0)
    return (gcd
            * (1.0 + params.p_course * d_course)
            * (1.0 + params.p_heading * d_heading)
            * (1.0 + params.p_speed * d_speed)
            * (1.0 + params.p_dist * d_dist))


def classify_points(model: Model, state: RouteState,
                    points: list[RoutePoint]) -> list[Prediction]:
    """Predict destination port and arrival time for consecutive streamed
    points of one route, in order, as classify_point would one by one.

    The arrival estimate always follows the similarity winner, even when
    smoothing overrides the emitted port.
    """
    ids = model.table.nearest(embed_points(points, model.params.weights))[0]
    indexes = list(model.per_port.items())
    out = []
    for q, row in zip(points, ids.tolist()):
        # the least similarity wins, then the smallest point id
        cands = [(port, ix.points[pid]) for (port, ix), pid in zip(indexes, row)]
        _, _, winner_port, winner = min((similarity(q, c, model.params), c.point_id, port, c)
                                        for port, c in cands)
        smoothed = state.push(winner_port)
        port = smoothed if model.params.smoothing_enabled else winner_port
        out.append(Prediction(port, q.record.timestamp + winner.remaining_time_s,
                              winner_port, winner.point_id))
    return out


def classify_point(model: Model, state: RouteState, q: RoutePoint) -> Prediction:
    """Predict destination port and arrival time for one streamed point: a
    block of one."""
    return classify_points(model, state, [q])[0]
