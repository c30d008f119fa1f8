"""Command-line entry point.

Subcommands cover the full workflow: ``gen`` writes a synthetic dataset,
``evaluate`` scores a model on labeled data, ``predict`` emits per-point
predictions for an unlabeled stream, ``tune`` searches parameters with the
genetic algorithm, and ``bench`` times the ball tree against the brute scan.

Exit codes: 0 success, 1 file or parse error, 2 empty dataset. All data
output is byte-identical for any --threads value; only wall-clock timings
vary. No model is ever persisted: training is fast enough to redo per
invocation, so only the parameter file format is durable.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from functools import partial

import numpy as np

from .classifier import Model, ModelParams, RouteState, classify_points, embed_points, train
from .embedding import FeatureWeights, embed_arrays
from .evaluation import SyntheticConfig, gen_synthetic, score_dataset, scores_csv
from .index import DEFAULT_LEAF_SIZE, BallTree, brute_nearest
from .ingest import AisFormatError, format_timestamp, load_ais_csv
from .params import ParamsFile, load_params, save_params
from .routes import Route, enrich_route, partition_routes
from .tuner import GaConfig, evolve, history_csv
from . import __version__

STRUCTURES = ("balltree", "brute")


class CliError(Exception):
    """Fatal command error carrying the process exit code."""

    def __init__(self, message: str, code: int = 1) -> None:
        super().__init__(message)
        self.code = code


def _load_routes(path: str, labeled: bool) -> list[Route]:
    try:
        records, errors = load_ais_csv(path, labeled=labeled)
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from exc
    except AisFormatError as exc:
        raise CliError(f"{path}: {exc}") from exc
    for err in errors:
        print(f"warning: {path}:{err.line}: {err.reason}", file=sys.stderr)
    if not records:
        raise CliError(f"{path}: no usable records", code=2)
    try:
        routes = partition_routes(records, labeled=labeled)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc
    for route in routes:
        enrich_route(route)
    return routes


def _load_params_file(path: str | None) -> ParamsFile:
    if path is None:
        return ParamsFile(params=ModelParams())
    try:
        return load_params(path)
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _train_model(routes: list[Route], pf: ParamsFile) -> Model:
    try:
        return train(routes, pf.params, leaf_size=pf.leaf_size)
    except ValueError as exc:
        raise CliError(str(exc), code=2) from exc


def _threads(args: argparse.Namespace) -> int:
    n = args.threads if args.threads is not None else (os.cpu_count() or 1)
    if n < 1:
        raise CliError("--threads must be >= 1")
    return n


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        cfg = SyntheticConfig(n_ports=args.ports, routes_per_port=args.routes_per_port,
                              seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    text = gen_synthetic(cfg)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"{args.out}: {exc.strerror or exc}") from exc
    n_points = text.count("\n") - 1
    print(f"routes={cfg.n_ports * cfg.routes_per_port} points={n_points} out={args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    pf = _load_params_file(args.params)
    if args.no_smoothing:
        pf = ParamsFile(params=replace(pf.params, smoothing_enabled=False),
                        leaf_size=pf.leaf_size)
    train_routes = _load_routes(args.train, labeled=True)
    test_routes = _load_routes(args.test, labeled=True)
    model = _train_model(train_routes, pf)
    scores = score_dataset(model, test_routes, workers=_threads(args))
    sys.stdout.write(scores_csv(scores))
    print(f"earliness={scores.avg_earliness!r} mae_minutes={scores.mae_minutes!r}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    pf = _load_params_file(args.params)
    train_routes = _load_routes(args.train, labeled=True)
    query_routes = _load_routes(args.query, labeled=False)
    model = _train_model(train_routes, pf)

    print("route_key,seq,predicted_port,predicted_arrival,raw_port")
    for route in query_routes:
        preds = classify_points(model, RouteState(), route.points)
        for seq, pred in enumerate(preds):
            arrival = format_timestamp(pred.arrival)
            print(f"{route.route_id},{seq},{pred.port},{arrival},{pred.raw_port}")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    routes = _load_routes(args.train, labeled=True)
    if len(routes) < 2:
        raise CliError("need at least 2 labeled routes to tune", code=2)
    cfg = GaConfig(population=args.population, generations=args.generations,
                   seed=args.seed)
    best, history = evolve(routes, cfg, workers=_threads(args))
    pf = ParamsFile(params=best.to_params())
    try:
        save_params(args.out, pf)
        history_path = args.history or args.out + ".history.csv"
        with open(history_path, "w", encoding="utf-8") as fh:
            fh.write(history_csv(history))
    except OSError as exc:
        raise CliError(f"{exc.filename}: {exc.strerror or exc}") from exc
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
    structures = args.structure or list(STRUCTURES)
    routes = _load_routes(args.train, labeled=True)
    pts, ids = _bench_points(routes)
    queries = _bench_queries(args.queries, args.seed)

    built, build_s = {}, {}
    for name in dict.fromkeys(structures):
        t0 = time.perf_counter()
        if name == "balltree":
            built[name] = BallTree(pts, ids=ids, leaf_size=args.leaf_size).nearest
        else:
            built[name] = partial(brute_nearest, pts.copy(), ids=ids.copy())
        build_s[name] = time.perf_counter() - t0

    # correctness gate: every structure must agree before any timing prints
    for q in queries:
        answers = [nearest(q) for nearest in built.values()]
        ref_id, ref_d = answers[0]
        for got_id, got_d in answers[1:]:
            if got_id != ref_id or abs(got_d - ref_d) > 1e-9:
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
    p.add_argument("--structure", action="append", choices=STRUCTURES,
                   help="repeatable; default: all structures")
    p.add_argument("--queries", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--leaf-size", type=int, default=DEFAULT_LEAF_SIZE)
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
