"""Command-line entry point.

Subcommands cover the full workflow: ``gen`` writes a synthetic dataset,
``evaluate`` scores a model on labeled data, ``predict`` emits per-point
predictions for an unlabeled stream, ``tune`` searches parameters with the
genetic algorithm, and ``bench`` checks that the ball tree and the brute scan
agree on every query, then times both.

Exit codes: 0 success, 1 bad argument, file or parse error, 2 empty dataset. All data
output is byte-identical for any --threads value; only wall-clock timings
vary. No model is ever persisted: training is fast enough to redo per
invocation, so only the parameter file format is durable.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import replace
from typing import Iterator

import numpy as np

from .classifier import ModelParams, embed_points, train
from .embedding import FeatureWeights, embed_arrays
from .evaluation import SyntheticConfig, gen_synthetic, replay_route, score_dataset, scores_csv
from .index import BallTree, brute_nearest
from .ingest import format_timestamp, load_ais_csv
from .params import format_params, load_params
from .routes import Route, enrich_route, partition_routes
from .tuner import GaConfig, evolve, history_csv
from . import __version__


class CliError(Exception):
    """Fatal command error carrying the process exit code."""

    def __init__(self, message: str, code: int = 1) -> None:
        super().__init__(message)
        self.code = code


@contextmanager
def _as_cli_error(path: str | None = None, code: int = 1) -> Iterator[None]:
    """Turn an OSError or ValueError raised in the block into a CliError with
    exit ``code``, its message prefixed with ``path`` or else with the
    OSError's own file name."""
    try:
        yield
    except (OSError, ValueError) as exc:
        where = path or getattr(exc, "filename", None)
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise CliError(f"{where}: {reason}" if where else str(reason), code) from exc


def _load_routes(path: str, labeled: bool) -> list[Route]:
    with _as_cli_error(path):
        records, errors = load_ais_csv(path, labeled=labeled)
        for err in errors:
            print(f"warning: {path}:{err.line}: {err.reason}", file=sys.stderr)
        if not records:
            raise CliError(f"{path}: no usable records", code=2)
        routes = partition_routes(records, labeled=labeled)
    for route in routes:
        enrich_route(route)
    return routes


def _load_params_file(path: str | None) -> ModelParams:
    if path is None:
        return ModelParams()
    with _as_cli_error(path):
        return load_params(path)


def _write_files(texts: dict[str, str]) -> None:
    """Write every file or none: each text goes to ``<path>.tmp`` first, and
    the temporaries are renamed into place only once all are written."""
    opened: list[str] = []
    try:
        for path, text in texts.items():
            with _as_cli_error(path), open(path + ".tmp", "w", encoding="utf-8") as fh:
                opened.append(fh.name)
                fh.write(text)
        for path in texts:
            with _as_cli_error(path):
                os.replace(path + ".tmp", path)
    finally:
        for tmp in opened:
            with suppress(FileNotFoundError):
                os.remove(tmp)


def _threads(args: argparse.Namespace) -> int:
    n = args.threads if args.threads is not None else (os.cpu_count() or 1)
    if n < 1:
        raise CliError("--threads must be >= 1")
    return n


def cmd_gen(args: argparse.Namespace) -> int:
    with _as_cli_error():
        cfg = SyntheticConfig(n_ports=args.ports, routes_per_port=args.routes_per_port,
                              seed=args.seed)
    text = gen_synthetic(cfg)
    _write_files({args.out: text})
    n_points = text.count("\n") - 1
    print(f"routes={cfg.n_ports * cfg.routes_per_port} points={n_points} out={args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    params = _load_params_file(args.params)
    if args.no_smoothing:
        params = replace(params, smoothing_enabled=False)
    train_routes = _load_routes(args.train, labeled=True)
    test_routes = _load_routes(args.test, labeled=True)
    with _as_cli_error(code=2):
        model = train(train_routes, params)
    scores = score_dataset(model, test_routes, workers=_threads(args))
    sys.stdout.write(scores_csv(scores))
    print(f"earliness={scores.avg_earliness!r} mae_minutes={scores.mae_minutes!r}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    params = _load_params_file(args.params)
    train_routes = _load_routes(args.train, labeled=True)
    query_routes = _load_routes(args.query, labeled=False)
    with _as_cli_error(code=2):
        model = train(train_routes, params)

    print("route_key,seq,predicted_port,predicted_arrival,raw_port")
    for route in query_routes:
        for seq, pred in enumerate(replay_route(model, route)):
            with _as_cli_error(f"{args.query}: route {route.route_id} seq {seq}"):
                arrival = format_timestamp(pred.arrival)
            print(f"{route.route_id},{seq},{pred.port},{arrival},{pred.raw_port}")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    with _as_cli_error():
        cfg = GaConfig(population=args.population, generations=args.generations,
                       seed=args.seed)
    routes = _load_routes(args.train, labeled=True)
    if len(routes) < 2:
        raise CliError("need at least 2 labeled routes to tune", code=2)
    best, history = evolve(routes, cfg, workers=_threads(args))
    history_path = args.history or args.out + ".history.csv"
    _write_files({args.out: format_params(best.to_params()), history_path: history_csv(history)})
    print(f"generations={history[-1].generation} best_fitness={history[-1].best_fitness!r} "
          f"params={args.out} history={history_path}")
    return 0


def _bench_points(routes: list[Route]) -> tuple[np.ndarray, np.ndarray]:
    pts = [p for route in routes for p in route.points]
    return embed_points(pts, FeatureWeights()), np.array([p.point_id for p in pts], dtype=np.int64)


def _bench_queries(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lats = rng.uniform(-60.0, 60.0, size=n)
    lons = rng.uniform(-180.0, 180.0, size=n)
    bearings = rng.uniform(0.0, 360.0, size=n)
    return embed_arrays(lats, lons, bearings, FeatureWeights())


def cmd_bench(args: argparse.Namespace) -> int:
    if args.queries < 1 or args.seed < 0:
        raise CliError("--queries must be >= 1 and --seed >= 0")
    routes = _load_routes(args.train, labeled=True)
    pts, ids = _bench_points(routes)
    queries = _bench_queries(args.queries, args.seed)

    t0 = time.perf_counter()
    tree_nearest = BallTree(pts, ids=ids).nearest
    t1 = time.perf_counter()
    brute_pts, brute_ids = pts.copy(), ids.copy()
    build_s = {"balltree": t1 - t0, "brute": time.perf_counter() - t1}
    built = {"balltree": tree_nearest,
             "brute": lambda q: brute_nearest(brute_pts, q, ids=brute_ids)}

    # correctness gate: both structures must agree before any timing prints
    for q in queries:
        (tree_id, tree_d), (brute_id, brute_d) = [nearest(q) for nearest in built.values()]
        if tree_id != brute_id or abs(tree_d - brute_d) > 1e-9:
            raise CliError("correctness gate failed: structures disagree")
    print(f"correctness=ok structures={len(built)} queries={len(queries)} points={len(pts)}")

    for name, nearest in built.items():
        t0 = time.perf_counter()
        for q in queries:
            nearest(q)
        mean_s = (time.perf_counter() - t0) / len(queries)
        print(f"structure={name} build_seconds={build_s[name]:.6f} "
              f"mean_query_seconds={mean_s:.9f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="portcall",
        description="Destination-port and arrival-time prediction from AIS streams.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic labeled dataset")
    p.add_argument("--ports", type=int, default=5)
    p.add_argument("--routes-per-port", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("evaluate", help="score predictions on labeled test data")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--params")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--no-smoothing", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="predict port and arrival for unlabeled points")
    p.add_argument("--train", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--params")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("tune", help="search parameters with the genetic algorithm")
    p.add_argument("--train", required=True)
    p.add_argument("--generations", type=int, default=20)
    p.add_argument("--population", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--history")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("bench", help="time nearest-neighbor structures")
    p.add_argument("--train", required=True)
    p.add_argument("--queries", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
