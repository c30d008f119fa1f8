"""The benchmark in ``perfbench/`` reads portcall by name: its workloads call
the public set-up path, and its tracer wraps functions and methods of every
layer. Running a small workload's set-up and gate, installing the tracer,
and one whole traced run, in process, makes a renamed or removed name fail
here rather than only when the benchmark runs."""

import importlib.util
import json
import sys
from pathlib import Path

import portcall as pc

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tune_small_setup_gate_and_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    workloads, spans = load("workloads"), load("spans")
    wl = workloads.WORKLOADS["tune-small"](0)
    st = wl.setup()
    assert st.rejected == 0
    assert wl.gate(st)

    tracer = spans.Tracer()
    tracer.recording = True
    with spans.Patches() as patches:
        tracer.install(patches, pc)
        pc.classifier.train(st.train, pc.ModelParams())
    (tree,) = tracer.trees  # one build a train, its groups the ports
    assert sum(ix.tree.n_points for ix in st.model.per_port.values()) == tree.n_points
    assert st.model.n_points == tree.n_points
    names = {s.name for s in tracer.spans}
    assert {"classifier.train", "embedding.embed_arrays", "index.BallTree.__init__"} <= names


def test_batch_large_setup_and_gate(monkeypatch):
    """The only tier-1 run of the grouped build at about 9k points a port
    (512 leaves a group, nine levels of splits below the ports) and of the
    benchmark's own tree == brute gate on the per-port trees it yields."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    wl = load("workloads").WORKLOADS["batch-large"](0)
    st = wl.setup()
    assert st.rejected == 0
    assert st.model.table.counts.min() >= 256
    assert wl.gate(st).startswith("tree==brute on ")


def test_traced_tune_small_run_reports_every_layer_metric(monkeypatch, tmp_path, capsys):
    """One traced run, in process: the per-layer metrics read the model's
    trees and the index's scan counts, which only this path reaches."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = load("run")
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    assert run.run("tune-small", 0, 1, True) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is True
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_untraced_tune_small_run_reports_every_end_to_end_metric(monkeypatch, tmp_path, capsys):
    """One untraced run, in process, as the benchmark measures it: only this
    path reaches ``measure()``, the gauge scaling and the fix latencies."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = load("run")
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    assert run.run("tune-small", 0, 1, False) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["ok_ops_ratio"]["value"] == 1.0
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
