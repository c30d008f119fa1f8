"""The benchmark's two workloads, each driven through portcall's public API.

Every workload starts from CSV text made by ``gen_synthetic`` and goes through
the public set-up path (``parse_ais_csv``, ``partition_routes``,
``enrich_route``, ``split_routes``, ``train``). The training data, the route
split and the GA seed are pinned, so the quality metrics are exact guards
that hold for every benchmark seed. The benchmark seed varies what the pinned
data leaves free:

- the CSV rows of each route are shuffled, which ``partition_routes`` undoes
  by its timestamp sort, so set-up parses a different text into the same
  routes;
- the latency feed shifts each of its routes' clock by a seeded offset
  before interleaving their fixes by timestamp;
- batch-large hands its slice of held-out routes to ``score_dataset`` in a
  seeded order;
- the correctness gate samples its queries with the seed.

Fix latency is measured the same way on every workload: a closed-loop feed of
held-out fixes, one ``classify_point`` call per fix on one thread, against
the workload's trained model, run after each pass of the workload's own
operation, so threads and GA overheads stay out of the latency figures.

Functions are always looked up through the ``portcall`` modules at call time,
so the tracer's and the probe's wrappers see every call.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

import portcall as pc


class GateError(Exception):
    """A correctness check failed; the run must not report timings."""


class Probe:
    """Fix latencies and failure accounting for the timed calls."""

    def __init__(self) -> None:
        self.latency_ns: list[int] = []
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()
        self.gauge = None     # set for untraced runs: samples between calls
        self.paused_s = 0.0   # time the gauge took inside the current pass

    def count(self, attempted: int, failed: int = 0) -> None:
        with self._lock:
            self.attempted += attempted
            self.failed += failed

    def count_calls(self, patches: Any, module: Any, name: str, tick: bool = False) -> None:
        """Count the calls to ``module.name``; with ``tick``, let the gauge
        sample before a call. Only for calls made from one thread: beside a
        second worker thread a sample would time the interpreter lock."""
        def make(fn):
            def counted(*args, **kwargs):
                if tick and self.gauge is not None:
                    self.paused_s += self.gauge.tick()
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    self.count(1, 1)
                    raise
                self.count(1)
                return result
            return counted
        patches.function(module, name, make)


@dataclass
class Setup:
    routes: list
    train: list
    val: list
    model: Any
    rows: int
    rejected: int


def shuffle_within_routes(csv_text: str, seed: int) -> str:
    """Shuffle the rows of each run of consecutive same-route rows.

    A route's rows are keyed by (SHIP_ID, DEPARTURE_PORT_NAME, ARRIVAL_TIME);
    the order in which routes first appear is kept, so the parsed routes and
    their point ids do not change.
    """
    rng = np.random.default_rng(seed)
    header, *rows = csv_text.splitlines()
    out = [header]
    group: list[str] = []
    key = None
    for line in rows:
        fields = line.split(",")
        k = (fields[0], fields[8], fields[10])
        if k != key and group:
            out.extend(group[i] for i in rng.permutation(len(group)))
            group = []
        key = k
        group.append(line)
    out.extend(group[i] for i in rng.permutation(len(group)))
    return "\n".join(out) + "\n"


def build(csv_text: str, split_seed: int, split_fraction: float = 0.8) -> Setup:
    """CSV text to trained model, through the public set-up path."""
    records, errors = pc.ingest.parse_ais_csv(csv_text, labeled=True)
    routes = pc.routes.partition_routes(records, labeled=True)
    for route in routes:
        pc.routes.enrich_route(route)
    train, val = pc.tuner.split_routes(routes, split_fraction, split_seed)
    model = pc.classifier.train(train, pc.ModelParams())
    return Setup(routes, train, val, model, len(records) + len(errors), len(errors))


def _vector(v: Any) -> np.ndarray:
    return np.asarray(getattr(v, "v", v), dtype=np.float64)


def check_tree_vs_brute(model: Any, points: list, rng: np.random.Generator, n: int) -> int:
    """Gate: every port's ``BallTree.nearest`` equals ``brute_nearest`` on a
    seeded sample of the workload's own query embeddings (the ``bench``
    gate's rule: same id, distance within 1e-9). Returns the queries checked."""
    w = model.params.weights
    picks = rng.choice(len(points), size=min(n, len(points)), replace=False)
    queries = [_vector(pc.embed(points[i].record.lat_deg, points[i].record.lon_deg,
                                points[i].bearing_deg, w)) for i in sorted(picks)]
    checked = 0
    for port, ix in model.per_port.items():
        pts = list(ix.points.values())
        data = pc.embed_arrays(np.array([p.record.lat_deg for p in pts]),
                               np.array([p.record.lon_deg for p in pts]),
                               np.array([p.bearing_deg for p in pts]), w)
        ids = [p.point_id for p in pts]
        for q in queries:
            got_id, got_d = ix.tree.nearest(q)
            ref_id, ref_d = pc.brute_nearest(data, q, ids)
            if got_id != ref_id or abs(got_d - ref_d) > 1e-9:
                raise GateError(f"{port}: tree nearest ({got_id}, {got_d!r}) != "
                                f"brute ({ref_id}, {ref_d!r})")
            checked += 1
    return checked


def served_fitness(earliness: float, mae_minutes: float) -> float:
    """The tuner's fitness formula applied to holdout scores of one model."""
    arrival_term = max(0.0, 1.0 - mae_minutes / pc.tuner.MAE_CEILING_MINUTES)
    return earliness + pc.GaConfig().fitness_lambda * arrival_term


def mean_scores(preds: list, routes: list) -> tuple[float, float]:
    """Mean earliness and arrival error, summed in route order as
    ``score_dataset`` does."""
    rows = [(pc.earliness(p, r.arrival_port), pc.mae_minutes(p, r.arrival_time))
            for p, r in zip(preds, routes)]
    return sum(e for e, _ in rows) / len(rows), sum(m for _, m in rows) / len(rows)


PINNED_EARLINESS = 0.9865727628766523  # acceptance criterion 5


def check_pinned_canonical() -> str:
    """Gate: the canonical dataset's holdout earliness (``SyntheticConfig()``,
    0.8 route split with seed 0, default parameters) is criterion 5's value."""
    st = build(pc.gen_synthetic(pc.SyntheticConfig()), 0)
    preds = [pc.evaluation.replay_route(st.model, r) for r in st.val]
    earliness, _ = mean_scores(preds, st.val)
    if earliness != PINNED_EARLINESS:
        raise GateError(f"canonical holdout earliness {earliness!r} != pinned "
                        f"{PINNED_EARLINESS!r}")
    return "canonical earliness == pinned"


class Workload:
    """A pinned dataset, its set-up, its gate and its timed operation; the
    reason for each workload is in BENCHMARK.json."""

    name = ""
    data: pc.SyntheticConfig
    split_seed = 0
    setup_repeats = 5
    gate_queries = 200
    genomes_per_pass = 0
    pass_threads = 1
    feed_routes: int | None = None  # held-out routes in the latency feed; None: all

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.csv_text = shuffle_within_routes(pc.gen_synthetic(self.data), seed)

    def seeds(self) -> dict[str, int]:
        return {"benchmark": self.seed, "dataset": self.data.seed, "split": self.split_seed}

    def setup(self) -> Setup:
        return build(self.csv_text, self.split_seed)

    def instrument(self, patches: Any, probe: Probe) -> None:
        """Install the probe's wrappers around the workload's timed call."""

    def holdout(self, st: Setup) -> list:
        """The held-out routes the timed operation replays."""
        return st.val

    def gate(self, st: Setup) -> str:
        """Correctness checks made before any timing; returns a summary."""
        rng = np.random.default_rng(self.seed)
        routes = self.holdout(st)
        checked = check_tree_vs_brute(st.model, [p for r in routes for p in r.points],
                                      rng, self.gate_queries)
        feed = routes[:self.feed_routes]
        offsets = rng.integers(0, 2 * 86400, size=len(feed))
        self.feed = [(ri, pt) for _, ri, _, pt in sorted(
            (pt.record.timestamp + int(offsets[ri]), ri, k, pt)
            for ri, r in enumerate(feed) for k, pt in enumerate(r.points))]
        self.feed_reference = [pc.evaluation.replay_route(st.model, r) for r in feed]
        untimed = Probe()
        _, preds = self.run_feed(st, untimed)
        if untimed.failed or preds != self.feed_reference:
            raise GateError("interleaved feed predictions differ from replay_route")
        return (f"tree==brute on {checked} queries; feed of {len(self.feed)} fixes == "
                f"replay_route on {len(feed)} routes; {self.check(st, feed)}; "
                + check_pinned_canonical())

    def check(self, st: Setup, feed: list) -> str:
        """Workload-specific gate checks; returns their summary."""
        raise NotImplementedError

    def run_feed(self, st: Setup, probe: Probe) -> tuple[float, list]:
        """The latency feed: one closed-loop client, one ``RouteState`` per
        route, one ``classify_point`` call per fix, timed one by one. The
        probe's gauge may sample between two calls; the wall time returned
        leaves those samples out."""
        classify = pc.classifier.classify_point
        model = st.model
        states = [pc.RouteState() for _ in self.feed_reference]
        preds: list[list] = [[] for _ in self.feed_reference]
        lat = probe.latency_ns
        clock = time.perf_counter_ns
        tick = probe.gauge.tick if probe.gauge is not None else None
        paused = 0.0
        failed = 0
        t0 = time.perf_counter()
        for ri, pt in self.feed:
            if tick:
                paused += tick()
            s = clock()
            try:
                pred = classify(model, states[ri], pt)
            except Exception:
                failed += 1
                preds[ri].append(None)
                continue
            lat.append(clock() - s)
            preds[ri].append(pred)
        wall = time.perf_counter() - t0 - paused
        probe.count(len(self.feed), failed)
        return wall, preds

    def run_pass(self, st: Setup, probe: Probe) -> tuple[float, Any]:
        """One pass of the timed operation: (wall seconds, comparable output)."""
        raise NotImplementedError

    def fixes_per_pass(self, st: Setup) -> int:
        return sum(len(r.points) for r in self.holdout(st))

    def quality(self, st: Setup, output: Any) -> dict[str, float]:
        raise NotImplementedError


class BatchLarge(Workload):
    name = "batch-large"
    data = pc.SyntheticConfig(n_ports=10, routes_per_port=250, seed=42)
    setup_repeats = 3
    gate_queries = 100
    slice_routes = 20
    feed_routes = 6
    workers = 2
    pass_threads = workers

    def holdout(self, st: Setup) -> list:
        return st.val[:self.slice_routes]

    def gate(self, st: Setup) -> str:
        # score_dataset gets the slice in a seeded order; the feed takes the
        # first routes of the slice as it is, so every seed feeds the same routes
        fixed = self.holdout(st)
        self.batch = [fixed[i] for i in np.random.default_rng(self.seed).permutation(len(fixed))]
        return super().gate(st)

    def check(self, st: Setup, feed: list) -> str:
        scores = pc.evaluation.score_dataset(st.model, feed, workers=self.workers)
        streamed = [(r.route_id, pc.earliness(p, r.arrival_port),
                     pc.mae_minutes(p, r.arrival_time))
                    for p, r in zip(self.feed_reference, feed)]
        if scores.per_route != streamed:
            raise GateError("score_dataset rows differ from streamed replay")
        return f"score_dataset(workers={self.workers}) == streamed replay"

    def instrument(self, patches: Any, probe: Probe) -> None:
        probe.count_calls(patches, pc.evaluation, "score_route")

    def run_pass(self, st: Setup, probe: Probe) -> tuple[float, Any]:
        t0 = time.perf_counter()
        scores = pc.evaluation.score_dataset(st.model, self.batch, workers=self.workers)
        return time.perf_counter() - t0, scores

    def quality(self, st: Setup, output: Any) -> dict[str, float]:
        return {"holdout_earliness": output.avg_earliness,
                "holdout_mae_min": output.mae_minutes,
                "best_fitness": served_fitness(output.avg_earliness, output.mae_minutes)}


class TuneSmall(Workload):
    name = "tune-small"
    data = pc.SyntheticConfig(n_ports=4, routes_per_port=10, points_min=20,
                              points_max=35, seed=1)
    ga = pc.GaConfig(population=16, generations=3, seed=0)
    split_seed = ga.seed
    setup_repeats = 10
    gate_queries = 100
    genomes_per_pass = ga.population * (ga.generations + 1)

    def seeds(self) -> dict[str, int]:
        return {**super().seeds(), "ga": self.ga.seed}

    def setup(self) -> Setup:
        return build(self.csv_text, self.split_seed, self.ga.split_fraction)

    def check(self, st: Setup, feed: list) -> str:
        earliness, mae = mean_scores(self.feed_reference, feed)
        self.default_fitness = pc.tuner.fitness(pc.Genome.default(), st.train, st.val,
                                                fitness_lambda=self.ga.fitness_lambda)
        if self.default_fitness != served_fitness(earliness, mae):
            raise GateError("served_fitness disagrees with portcall.fitness")
        return "fitness formula == portcall.fitness"

    def instrument(self, patches: Any, probe: Probe) -> None:
        probe.count_calls(patches, pc.tuner, "fitness", tick=True)

    def run_pass(self, st: Setup, probe: Probe) -> tuple[float, Any]:
        t0 = time.perf_counter()
        best, history = pc.tuner.evolve(st.routes, self.ga, workers=1)
        return time.perf_counter() - t0, (best, history)

    def fixes_per_pass(self, st: Setup) -> int:
        # fixes scored per evolve, counting a cached genome as scored
        return self.genomes_per_pass * super().fixes_per_pass(st)

    def quality(self, st: Setup, output: Any) -> dict[str, float]:
        best, history = output
        bests = [h.best_fitness for h in history]
        if any(b < a for a, b in zip(bests, bests[1:])):
            raise GateError("GA best fitness decreased between generations")
        if bests[-1] < self.default_fitness:
            raise GateError("GA best is worse than the untuned defaults")
        model = pc.classifier.train(st.train, best.to_params())
        scores = pc.evaluation.score_dataset(model, st.val, workers=1)
        if served_fitness(scores.avg_earliness, scores.mae_minutes) != bests[-1]:
            raise GateError("returned genome does not reproduce the reported best fitness")
        return {"holdout_earliness": scores.avg_earliness,
                "holdout_mae_min": scores.mae_minutes,
                "best_fitness": bests[-1]}


WORKLOADS = {w.name: w for w in (BatchLarge, TuneSmall)}
