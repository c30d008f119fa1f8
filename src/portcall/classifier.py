"""Destination-port and arrival-time prediction.

Training builds one ball tree per arrival port over the embeddings of every
route point that ends there. Classifying a point asks each port's tree for
its single nearest point, re-ranks those candidates with a similarity
function (great-circle distance scaled by penalty factors for course,
heading, speed and distance-from-departure differences; lower is more
similar), and takes the winner's port and precomputed remaining time. To damp
flip-flopping between ports along one query route, the emitted port is the
value of the longest run of identical raw predictions seen so far.

Every argmin is totally ordered (similarity, then point id), so sequential
and parallel runs emit identical predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embedding import FeatureWeights, embed, embed_arrays
from .geo import angular_diff_deg, great_circle_km
from .index import BallTree, DEFAULT_LEAF_SIZE
from .routes import Route, RoutePoint


@dataclass(frozen=True)
class ModelParams:
    """Everything the classifier is parameterized by.

    Penalties scale how strongly an attribute difference inflates the
    great-circle distance between a query point and a candidate; the
    normalizers say what difference counts as "large" (capped at 1).
    """

    weights: FeatureWeights = field(default_factory=FeatureWeights)
    p_course: float = 1.0
    p_heading: float = 1.0
    p_speed: float = 1.0
    p_dist: float = 1.0
    norm_speed_knots: float = 50.0
    norm_dist_km: float = 100.0
    smoothing_enabled: bool = True

    def __post_init__(self) -> None:
        for name in ("p_course", "p_heading", "p_speed", "p_dist"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.norm_speed_knots <= 0 or self.norm_dist_km <= 0:
            raise ValueError("normalizers must be > 0")


@dataclass
class PortIndex:
    tree: BallTree
    points: dict[int, RoutePoint]


@dataclass
class Model:
    params: ModelParams
    per_port: dict[str, PortIndex]

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


def train(routes: list[Route], params: ModelParams,
          leaf_size: int = DEFAULT_LEAF_SIZE) -> Model:
    """Build the per-arrival-port ball trees from enriched labeled routes."""
    labeled = [r for r in routes if r.arrival_port is not None]
    if not labeled:
        raise ValueError("training requires at least one labeled route")

    by_port: dict[str, list[RoutePoint]] = {}
    for route in labeled:
        assert route.arrival_port is not None
        by_port.setdefault(route.arrival_port, []).extend(route.points)

    per_port: dict[str, PortIndex] = {}
    for port in sorted(by_port):
        pts = by_port[port]
        lat = np.array([p.record.lat_deg for p in pts])
        lon = np.array([p.record.lon_deg for p in pts])
        bearing = np.array([p.bearing_deg for p in pts])
        data = embed_arrays(lat, lon, bearing, params.weights)
        ids = [p.point_id for p in pts]
        per_port[port] = PortIndex(
            tree=BallTree(data, ids=ids, leaf_size=leaf_size),
            points={p.point_id: p for p in pts},
        )
    return Model(params=params, per_port=per_port)


def candidates_per_port(model: Model, q: RoutePoint) -> list[tuple[str, RoutePoint, float]]:
    """The exact nearest training point of each port, in port order, with
    its 5-D distance."""
    qv = embed(q.record.lat_deg, q.record.lon_deg, q.bearing_deg, model.params.weights)
    out = []
    for port, ix in model.per_port.items():
        pid, dist = ix.tree.nearest(qv)
        out.append((port, ix.points[pid], dist))
    return out


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
    d_speed = min(abs(q.record.speed_knots - c.record.speed_knots) / params.norm_speed_knots, 1.0)
    d_dist = min(abs(q.dist_from_departure_km - c.dist_from_departure_km) / params.norm_dist_km, 1.0)
    return (gcd
            * (1.0 + params.p_course * d_course)
            * (1.0 + params.p_heading * d_heading)
            * (1.0 + params.p_speed * d_speed)
            * (1.0 + params.p_dist * d_dist))


def classify_point(model: Model, state: RouteState, q: RoutePoint) -> Prediction:
    """Predict destination port and arrival time for one streamed point.

    The arrival estimate always follows the similarity winner, even when
    smoothing overrides the emitted port.
    """
    best_sim = float("inf")
    winner: RoutePoint | None = None
    winner_port = ""
    for port, cand, _dist in candidates_per_port(model, q):
        sim = similarity(q, cand, model.params)
        if sim < best_sim or (sim == best_sim and winner is not None
                              and cand.point_id < winner.point_id):
            best_sim = sim
            winner = cand
            winner_port = port
    assert winner is not None
    assert winner.remaining_time_s is not None

    smoothed = state.push(winner_port)
    port = smoothed if model.params.smoothing_enabled else winner_port
    return Prediction(
        port=port,
        arrival=q.record.timestamp + winner.remaining_time_s,
        raw_port=winner_port,
        chosen_point_id=winner.point_id,
    )
