"""Command-line entry point.

Subcommands cover the full workflow: ``gen`` writes a synthetic dataset,
``evaluate`` scores a model on labeled data, ``predict`` emits per-point
predictions for an unlabeled stream, ``tune`` searches parameters with the
genetic algorithm, and ``bench`` times one pass each of the ball tree and the
brute scan over one query set, printing the timings only if all answers agree.

Exit codes: 0 success, 1 bad argument, file or parse error, 2 empty dataset. All data
output is byte-identical for any --threads value; only wall-clock timings
vary. Training is fast enough to redo per invocation, so no model is persisted.
A command writes at most one file, ``gen`` the dataset and ``tune`` the
parameters, and prints the rest, such as ``tune``'s GA history, to stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from typing import IO, Iterator

import numpy as np

from .classifier import ModelParams, embed_points, train
from .embedding import FeatureWeights, embed_arrays
from .evaluation import SyntheticConfig, gen_synthetic, replay_route, score_dataset, scores_csv
from .index import BallTree, _check_points, _scan
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


@contextmanager
def _write_file(path: str) -> Iterator[IO[str]]:
    """Replace file ``path`` whole or not at all: a directory is refused, and
    a new ``<path>.<pid>.tmp`` opened before the block runs and handed to it;
    it is renamed over ``path`` after the block and removed if either fails."""
    if os.path.isdir(path):
        raise CliError(f"{path}: Is a directory")
    tmp = f"{path}.{os.getpid()}.tmp"
    with _as_cli_error(path):
        try:
            fh = open(tmp, "x", encoding="utf-8")
        except FileExistsError as exc:  # name the file in the way, and leave it there
            raise CliError(f"{tmp}: {exc.strerror}") from exc
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:  # the block only computes and writes, so a write or rename failed
        os.remove(tmp)
        raise CliError(f"{path}: {exc.strerror or exc}") from exc
    except BaseException:
        os.remove(tmp)
        raise


def _threads(args: argparse.Namespace) -> int:
    n = args.threads if args.threads is not None else (os.cpu_count() or 1)
    if n < 1:
        raise CliError("--threads must be >= 1")
    return n


def cmd_gen(args: argparse.Namespace) -> int:
    with _as_cli_error():
        cfg = SyntheticConfig(n_ports=args.ports, routes_per_port=args.routes_per_port,
                              seed=args.seed)
    with _write_file(args.out) as fh:
        text = gen_synthetic(cfg)
        fh.write(text)
    n_points = text.count("\n") - 1
    print(f"routes={cfg.n_ports * cfg.routes_per_port} points={n_points} out={args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    workers = _threads(args)
    params = _load_params_file(args.params)
    train_routes = _load_routes(args.train, labeled=True)
    test_routes = _load_routes(args.test, labeled=True)
    with _as_cli_error(code=2):
        model = train(train_routes, params)
    scores = score_dataset(model, test_routes, workers=workers)
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
    workers = _threads(args)
    with _as_cli_error():
        cfg = GaConfig(population=args.population, generations=args.generations,
                       seed=args.seed)
    routes = _load_routes(args.train, labeled=True)
    if os.path.exists(args.out) and os.path.samefile(args.out, args.train):
        raise CliError(f"{args.out}: same file as --train")
    if len(routes) < 2:
        raise CliError("need at least 2 labeled routes to tune", code=2)
    with _write_file(args.out) as fh:
        best, history = evolve(routes, cfg, workers=workers)
        fh.write(format_params(best.to_params()))
    sys.stdout.write(history_csv(history))
    print(f"generations={history[-1].generation} best_fitness={history[-1].best_fitness!r} "
          f"params={args.out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.queries < 1 or args.seed < 0:
        raise CliError("--queries must be >= 1 and --seed >= 0")
    pts = [p for route in _load_routes(args.train, labeled=True) for p in route.points]
    # checked and laid out component-major once here, so the brute arm times only its scan
    points, ids = _check_points(embed_points(pts, FeatureWeights()), [p.point_id for p in pts])
    points_t = np.ascontiguousarray(points.T)
    rng = np.random.default_rng(args.seed)
    queries = embed_arrays(rng.uniform(-60.0, 60.0, args.queries),
                           rng.uniform(-180.0, 180.0, args.queries),
                           rng.uniform(0.0, 360.0, args.queries), FeatureWeights())

    t0 = time.perf_counter()
    tree = BallTree(points, ids=ids)
    # a scan builds nothing, so the brute arm's build time is 0
    arms = {"balltree": (time.perf_counter() - t0, tree.nearest),
            "brute": (0.0, lambda q: _scan(points_t, ids, q))}
    answers, report = [], []
    for name, (build_s, nearest) in arms.items():
        t0 = time.perf_counter()
        answers.append([nearest(q) for q in queries])
        mean_s = (time.perf_counter() - t0) / len(queries)
        report.append(f"structure={name} build_seconds={build_s:.6f} "
                      f"mean_query_seconds={mean_s:.9f}")

    # correctness gate: the same ids and distances, bit for bit, before any timing prints
    if answers[0] != answers[1]:
        raise CliError("correctness gate failed: structures disagree")
    print(f"correctness=ok structures={len(arms)} queries={len(queries)} points={len(pts)}")
    print("\n".join(report))
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
