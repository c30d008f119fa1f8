"""portcall benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload batch-large --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a checkout: the package is imported from ``src/``
and nowhere else. A run generates its inputs from the seed, sets up the model,
runs the correctness gate, then repeats the workload's timed pass and a group
of latency feeds for ``--seconds``, with its other set-ups spread over that
time (``setup_s`` is their median). Every timing is adjusted for the
machine's speed while it was taken (see gauge.py). With ``--trace 0`` the
last line of stdout is the JSON result with every end-to-end metric; with
``--trace 1`` it holds every per-layer metric, taken from one traced set-up
and from traced passes that alternate with untraced ones. A failed gate exits
1 and prints no result. Full results, the environment record and (when
traced) the spans go to ``perfbench/results/``. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from gauge import Gauge
from spans import Patches, Phase, Tracer, median_us

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

LAYERS = ("ingest", "routes", "embedding", "index", "classifier", "evaluation", "tuner")
STATS_SAMPLE = 2000
MIN_FIX_SAMPLES = 1000  # so at least 10 latencies lie beyond the p99
FEED_SHARE = 0.25  # time of a group of latency feeds per second of pass time
MIN_REPLAYS = 3  # feeds per group at least; a fix's latency is its median over them


def import_portcall():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import portcall
    if not Path(portcall.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"portcall was imported from {portcall.__file__}, not {src}")
    return portcall


def environment(pc, wl) -> dict:
    """nproc, CPU model, Python and numpy versions, commit and seeds."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "portcall": pc.__version__, "commit": git_commit(), "seeds": wl.seeds()}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


class Timed:
    """What the timed passes of one run produced."""

    def __init__(self) -> None:
        self.walls: list[float] = []         # untraced passes
        self.traced_walls: list[float] = []
        self.outputs: list = []              # one comparable output per pass
        self.feed_lat_ns: list[np.ndarray] = []  # per group: replays x fixes
        self.feed_mismatches = 0             # feeds whose predictions differ
        self.phases: list[Phase] = []        # one per traced pass
        self.first_spans: list = []          # spans of the first traced pass
        self.setup_s: list[float] = []
        self.st = None                       # the current set-up
        self.gauge = Gauge()
        self.scales: dict[str, list[float]] = {"setup": [], "pass": [], "feed": []}

    def scaled(self, block: str, values) -> list:
        """``values`` of each ``block`` in speed-adjusted units (see gauge.py)."""
        return [v * k for v, k in zip(values, self.scales[block], strict=True)]


def timed_setup(wl, timed: Timed) -> None:
    timed.st = None  # free the previous set-up first
    gc.collect()
    t0 = time.perf_counter()
    timed.st = wl.setup()
    timed.setup_s.append(time.perf_counter() - t0)
    timed.scales["setup"].append(timed.gauge.scale())


def measure(wl, probe, seconds: int, timed: Timed) -> None:
    """Untraced run: repeat pass and a group of latency feeds until ``seconds``
    of them and MIN_FIX_SAMPLES fix latencies are in. A group replays the feed
    until it has taken FEED_SHARE of the pass's time, MIN_REPLAYS times at
    least. The remaining set-ups are spread evenly over that time, so ``setup_s``
    sees the same machine as the passes. The gauge brackets every set-up,
    pass and group of feeds, and samples inside a block between two of its
    timed calls: between fixes of a feed and between tune-small's ``fitness``
    calls. A pass on more than one thread takes the run's mean factor."""
    timed.gauge = probe.gauge = Gauge()  # the gate ran since the last sample
    busy = 0.0
    n = 0
    while (n == 0 or busy < seconds or len(timed.setup_s) < wl.setup_repeats
           or (len(timed.feed_lat_ns) * len(wl.feed) < MIN_FIX_SAMPLES
               and busy < 3 * seconds)):
        n += 1
        if (len(timed.setup_s) < wl.setup_repeats
                and busy >= len(timed.setup_s) * seconds / wl.setup_repeats):
            timed_setup(wl, timed)
        gc.collect()
        t0 = time.perf_counter()
        wall = 0.0
        probe.paused_s = 0.0
        try:
            wall, out = wl.run_pass(timed.st, probe)
            wall -= probe.paused_s
            timed.walls.append(wall)
            timed.outputs.append(out)
            timed.scales["pass"].append(timed.gauge.scale())
        except Exception as exc:  # counted by the probe; the run goes on
            print(f"# pass failed: {exc!r}", file=sys.stderr)
            timed.gauge.scale()
        replays: list[list[int]] = []
        fed = 0.0
        while len(replays) < MIN_REPLAYS or fed < FEED_SHARE * wall:
            first = len(probe.latency_ns)
            feed_wall, preds = wl.run_feed(timed.st, probe)
            fed += feed_wall
            timed.feed_mismatches += preds != wl.feed_reference
            replays.append(probe.latency_ns[first:])
        if all(len(r) == len(wl.feed) for r in replays):  # else a call failed
            timed.feed_lat_ns.append(np.array(replays, dtype=np.float64))
            timed.scales["feed"].append(timed.gauge.scale())
        else:
            timed.gauge.scale()
        busy += time.perf_counter() - t0
    if wl.pass_threads > 1:
        timed.scales["pass"] = [timed.gauge.run_scale()] * len(timed.walls)


def trace_passes(pc, wl, probe, seconds: int, tracer: Tracer, timed: Timed) -> None:
    """Traced run: alternate untraced and traced passes for ``seconds``."""
    st = timed.st
    start = time.perf_counter()
    n = 0
    while n < 2 or time.perf_counter() - start < seconds:
        traced = n % 2 == 1
        n += 1
        gc.collect()
        try:
            if traced:
                tracer.recording = not timed.phases
                with Patches() as patches:
                    tracer.install(patches, pc)
                    wall, out = wl.run_pass(st, probe)
            else:
                wall, out = wl.run_pass(st, probe)
        except Exception as exc:  # counted by the probe; the run goes on
            print(f"# pass failed: {exc!r}", file=sys.stderr)
            tracer.reset()
            continue
        finally:
            tracer.recording = False
        timed.outputs.append(out)
        if traced:
            timed.traced_walls.append(wall)
            timed.phases.append(Phase(tracer))
            if len(timed.phases) == 1:
                timed.first_spans = tracer.spans
            tracer.reset()
        else:
            timed.walls.append(wall)


def index_stats(tracer) -> tuple[float, float]:
    """Leaves and nodes visited per query: ``nearest_with_stats`` on a fixed
    sample of the (tree, query) pairs the first traced pass sent to
    ``nearest``, ordered independently of thread scheduling."""
    seq = {id(t): i for i, t in enumerate(tracer.trees)}
    log = sorted(tracer.queries, key=lambda tq: (seq[id(tq[0])], np.asarray(tq[1]).tobytes()))
    if not log:
        return 0.0, 0.0
    picks = np.random.default_rng(0).choice(len(log), size=min(STATS_SAMPLE, len(log)),
                                            replace=False)
    leaves = nodes = 0
    for i in sorted(picks):
        tree, q = log[i]
        _, _, stats = tree.nearest_with_stats(q)
        leaves += stats.leaves_visited
        nodes += stats.nodes_visited
    return leaves / len(picks), nodes / len(picks)


def layer_metrics(wl, st, setup_phase, timed: Timed, tracer: Tracer) -> dict:
    phases = timed.phases

    def per_pass(fn) -> float:
        return statistics.fmean(fn(ph) for ph in phases)

    def episode_s(name: str) -> float:
        return setup_phase.seconds(name) + per_pass(lambda ph: ph.seconds(name))

    def mean_us(name: str) -> float:
        calls = sum(ph.calls.get(name, 0) for ph in phases)
        total = sum(ph.total_ns.get(name, 0) for ph in phases)
        return total / calls / 1e3 if calls else 0.0

    first = phases[0]
    parse_s = setup_phase.seconds("ingest.parse_ais_csv")
    leaves, nodes = index_stats(tracer)
    trees = [ix.tree for ix in st.model.per_port.values()]
    genomes = wl.genomes_per_pass
    fitness_calls = first.calls.get("tuner.fitness", 0)
    fitness_ns = sum(ph.total_ns.get("tuner.fitness", 0) for ph in phases)
    train_in_fitness_ns = sum(ph.under[("classifier.train", "tuner.fitness")][1] for ph in phases)
    m = {
        "ingest.parse_s": parse_s,
        "ingest.rows_per_s": st.rows / parse_s,
        "ingest.rows_rejected": st.rejected,
        "routes.partition_s": setup_phase.seconds("routes.partition_routes"),
        "routes.enrich_s": setup_phase.seconds("routes.enrich_route"),
        "embedding.embed_arrays_s": episode_s("embedding.embed_arrays"),
        "embedding.embed_us": mean_us("embedding.embed"),
        "index.build_s": episode_s("index.BallTree.__init__"),
        "index.nearest_us": median_us(phases, "index.BallTree.nearest"),
        "index.nearest_calls": first.calls.get("index.BallTree.nearest", 0),
        "index.leaves_visited_per_query": leaves,
        "index.nodes_visited_per_query": nodes,
        "index.points_per_port_max": max(t.n_points for t in trees),
        "index.leaves_total": sum(t.leaf_count for t in trees),
        "classifier.train_s": episode_s("classifier.train"),
        "classifier.classify_self_us": median_us(phases, "classifier.classify_point", own=True),
        "classifier.similarity_us": mean_us("classifier.similarity"),
        "classifier.push_us": mean_us("classifier.RouteState.push"),
        "classifier.smoothing_overrides": first.calls.get("classifier.smoothing_overrides", 0),
        "evaluation.score_route_ms": median_us(phases, "evaluation.score_route") / 1e3,
        "evaluation.fixes_replayed":
            first.under[("classifier.classify_point", "evaluation.score_route")][0],
        "tuner.fitness_ms": median_us(phases, "tuner.fitness") / 1e3,
        "tuner.fitness_calls": fitness_calls,
        "tuner.genomes_evaluated": genomes,
        "tuner.cache_hit_ratio": (genomes - fitness_calls) / genomes if genomes else 0.0,
        "tuner.train_share": train_in_fitness_ns / fitness_ns if fitness_ns else 0.0,
        "trace.overhead_ratio":
            statistics.median(timed.traced_walls) / statistics.median(timed.walls),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (setup_phase.layer_self_ns.get(layer, 0) / 1e9
                                + per_pass(lambda ph: ph.layer_self_ns.get(layer, 0) / 1e9))
    return m


def run(name: str, seed: int, seconds: int, trace: bool) -> int:
    try:
        pc = import_portcall()
    except ImportError as exc:
        print(f"cannot import portcall from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, GateError, Probe

    wl = WORKLOADS[name](seed)
    env = environment(pc, wl)
    print("# env " + json.dumps(env, sort_keys=True), flush=True)

    timed = Timed()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.recording = True
        with Patches() as patches:
            tracer.install(patches, pc)
            timed_setup(wl, timed)
        tracer.recording = False
        setup_phase = Phase(tracer)
        setup_spans = tracer.spans
        tracer.reset()
    else:
        timed_setup(wl, timed)
    try:
        if timed.st.rejected:
            raise GateError(f"{timed.st.rejected} of {timed.st.rows} clean rows rejected")
        gate = wl.gate(timed.st)
    except GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 1
    print(f"# gate ok: {gate}", flush=True)

    probe = Probe()
    with Patches() as patches:
        wl.instrument(patches, probe)
        if tracer:
            trace_passes(pc, wl, probe, seconds, tracer, timed)
        else:
            measure(wl, probe, seconds, timed)
    st = timed.st
    if not timed.walls or (trace and not timed.phases):
        print("no pass completed", file=sys.stderr)
        return 1

    problems = []
    if any(out != timed.outputs[0] for out in timed.outputs):
        problems.append("passes disagree")
    if timed.feed_mismatches:
        problems.append(f"{timed.feed_mismatches} latency feeds differ from replay_route")
    try:
        quality = wl.quality(st, timed.outputs[0])
    except GateError as exc:
        problems.append(str(exc))
        quality = {}
    if probe.failed:
        problems.append(f"{probe.failed} of {probe.attempted} timed calls raised")
    correct = not problems

    fixes = wl.fixes_per_pass(st)
    raw = {}
    if tracer:
        metrics = layer_metrics(wl, st, setup_phase, timed, tracer)
    else:
        raw = {"setup_s": statistics.median(timed.setup_s),
               **fix_latency(timed.feed_lat_ns),
               "pass_s": statistics.median(timed.walls)}
        metrics = {
            "setup_s": statistics.median(timed.scaled("setup", timed.setup_s)),
            **fix_latency(timed.scaled("feed", timed.feed_lat_ns)),
            "replay_fixes_per_s":
                statistics.median(fixes / w for w in timed.scaled("pass", timed.walls)),
            "pass_s": statistics.median(timed.scaled("pass", timed.walls)),
            **quality,
            "ok_ops_ratio": (probe.attempted - probe.failed) / probe.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    units = metric_units(trace)
    if set(units) != set(metrics):
        print(f"metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 1

    fix_samples = sum(g.shape[1] for g in timed.feed_lat_ns)
    print(f"# {name} seed={seed}: {len(timed.walls)} untraced + {len(timed.traced_walls)} "
          f"traced passes of {fixes} fixes; {fix_samples} fix latencies (medians over "
          f"{sum(len(g) for g in timed.feed_lat_ns)} replays) from "
          f"{len(timed.feed_lat_ns)} groups of feeds; "
          f"{probe.attempted} timed calls, {probe.failed} failed; "
          f"set-ups {', '.join(f'{s:.3f}' for s in timed.setup_s)} s")
    for problem in problems:
        print(f"# check failed: {problem}", file=sys.stderr)
    for key, value in metrics.items():
        print(f"{key:34s} {value:>20.10g} {units[key]}")
    for key, value in raw.items():
        print(f"# unadjusted {key:23s} {value:>20.10g} {units[key]}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    record = {"env": env, "correct": correct, "problems": problems, "metrics": metrics,
              "setup_s": timed.setup_s, "pass_s": timed.walls,
              "traced_pass_s": timed.traced_walls, "attempted": probe.attempted,
              "failed": probe.failed, "fix_latency_samples": fix_samples,
              "unadjusted": raw, "scales": timed.scales,
              "gauge_samples_s": timed.gauge.samples}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.spans = setup_spans + timed.first_spans
        tracer.dump(str(RESULTS / f"{stem}.spans.jsonl.gz"))

    result = {"correct": correct, "attempted": probe.attempted, "failed": probe.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


def fix_latency(groups) -> dict[str, float]:
    """p50 and p99, in us, over every fix of every group, taking each fix's
    median over the group's replays: a stall of the host that hits one
    replay of a fix drops out, a fix that costs more in every replay stays."""
    if not groups:
        return {"fix_latency_p50_us": 0.0, "fix_latency_p99_us": 0.0}
    lat = np.concatenate([np.median(g, axis=0) for g in groups]) / 1e3
    p50, p99 = np.percentile(lat, [50, 99])
    return {"fix_latency_p50_us": float(p50), "fix_latency_p99_us": float(p99)}


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["batch-large", "tune-small", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    code = 0
    for name in ("batch-large", "tune-small"):
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        code = code or proc.returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
