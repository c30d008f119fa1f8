"""End-to-end command-line behavior via main()."""

import contextlib
import io
import os
import re
from pathlib import Path

import numpy as np
import pytest

from portcall import cli
from portcall.cli import build_parser, main
from portcall.evaluation import SyntheticConfig, gen_synthetic
from portcall.ingest import AIS_HEADER, format_timestamp, parse_ais_csv, records_to_csv
from portcall.params import load_params
from tests.test_evaluation import FLIP_FLOP_LANES, flip_flop_query, make_record

HEADER = ",".join(AIS_HEADER)


def write_dataset(path, voyages):
    records = []
    for ship, arr_port, fixes in voyages:
        arr_time = max(ts for _, _, ts in fixes)
        for lat, lon, ts in fixes:
            records.append(make_record(ship=ship, lat=lat, lon=lon, ts=ts,
                                       arr_time=arr_time, arr_port=arr_port))
    path.write_text(records_to_csv(records))
    return path


@pytest.fixture
def tiny_train(tmp_path):
    return write_dataset(tmp_path / "train.csv", FLIP_FLOP_LANES)


def test_gen_writes_deterministic_file(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["gen", "--ports", "3", "--routes-per-port", "2",
                 "--seed", "5", "--out", str(out_a)]) == 0
    captured = capsys.readouterr()
    assert "routes=6" in captured.out
    assert main(["gen", "--ports", "3", "--routes-per-port", "2",
                 "--seed", "5", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    records, errors = parse_ais_csv(out_a.read_text(), labeled=True)
    assert errors == []
    assert records


def test_gen_unwritable_path(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "x.csv"
    assert main(["gen", "--out", str(target)]) == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_self_is_perfect(tiny_train, capsys):
    assert main(["evaluate", "--train", str(tiny_train),
                 "--test", str(tiny_train), "--threads", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "route_id,earliness,mae_minutes"
    assert "earliness=1.0 mae_minutes=0.0" in out


def test_evaluate_missing_file(tmp_path, capsys):
    assert main(["evaluate", "--train", str(tmp_path / "nope.csv"),
                 "--test", str(tmp_path / "nope.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_empty_dataset_exit_2(tmp_path, tiny_train, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text(HEADER + "\n")
    assert main(["evaluate", "--train", str(empty), "--test", str(tiny_train)]) == 2
    assert "no usable records" in capsys.readouterr().err


def test_evaluate_bad_header_exit_1(tmp_path, tiny_train, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("WHAT,EVER\n1,2\n")
    assert main(["evaluate", "--train", str(bad), "--test", str(tiny_train)]) == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_conflicting_labels_exit_1(tmp_path, tiny_train, capsys):
    rows = tiny_train.read_text().splitlines()
    fields = rows[2].split(",")
    fields[-1] = "ELSEWHERE"
    rows[2] = ",".join(fields)
    bad = tmp_path / "conflict.csv"
    bad.write_text("\n".join(rows) + "\n")
    assert main(["evaluate", "--train", str(bad), "--test", str(tiny_train)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "conflicting arrival ports" in err


def test_evaluate_thread_invariance(tmp_path, capsys):
    data = tmp_path / "d.csv"
    assert main(["gen", "--ports", "3", "--routes-per-port", "3",
                 "--seed", "2", "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--train", str(data), "--test", str(data),
                 "--threads", "1"]) == 0
    one = capsys.readouterr().out
    assert main(["evaluate", "--train", str(data), "--test", str(data),
                 "--threads", "8"]) == 0
    eight = capsys.readouterr().out
    assert one == eight


def test_evaluate_no_smoothing_hurts_on_flip_flop(tmp_path, tiny_train, capsys):
    query = flip_flop_query()
    test_file = tmp_path / "query.csv"
    test_file.write_text(records_to_csv(p.record for p in query.points))

    assert main(["evaluate", "--train", str(tiny_train),
                 "--test", str(test_file), "--threads", "1"]) == 0
    smoothed = capsys.readouterr().out
    assert "earliness=1.0" in smoothed

    params = tmp_path / "raw.params"
    params.write_text("smoothing.enabled = false\n")
    assert main(["evaluate", "--train", str(tiny_train), "--test", str(test_file),
                 "--threads", "1", "--params", str(params)]) == 0
    raw = capsys.readouterr().out
    assert "earliness=0.6" in raw


# (column, value, reason): every non-finite or out-of-range value that a
# numeric column of an otherwise valid row can carry
CORRUPTIONS = [
    (2, "nan", "speed is not finite"),
    (2, "inf", "speed is not finite"),
    (2, "-3.5", "negative speed"),
    (3, "nan", "longitude is not finite"),
    (3, "-inf", "longitude is not finite"),
    (4, "inf", "latitude is not finite"),
    (4, "91.5", "latitude out of range"),
    (4, "-90.01", "latitude out of range"),
    (5, "nan", "course is not finite"),
    (5, "360.0", "course out of range"),
    (6, "-inf", "heading is not finite"),
    (6, "400", "heading out of range"),
    (9, "nan", "draught is not finite"),
    (9, "-1", "draught must be >= 0.0"),
]


@pytest.fixture(scope="module")
def canonical_evaluate(tmp_path_factory):
    """The canonical CSV and the stdout of evaluating it on itself."""
    clean = tmp_path_factory.mktemp("canonical") / "clean.csv"
    clean.write_text(gen_synthetic(SyntheticConfig()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["evaluate", "--train", str(clean), "--test", str(clean),
                     "--threads", "2"]) == 0
    return clean.read_text(), out.getvalue()


def shuffle_within_routes(rows, rng):
    """Shuffle each run of consecutive rows of one route (ship, departure,
    arrival time); the partitioner's timestamp sort undoes it."""
    out, group, key = [], [], None
    for row in rows:
        fields = row.split(",")
        k = (fields[0], fields[8], fields[10])
        if k != key and group:
            out.extend(group[i] for i in rng.permutation(len(group)))
            group = []
        key = k
        group.append(row)
    out.extend(group[i] for i in rng.permutation(len(group)))
    return out


@pytest.mark.parametrize("seed", range(3))
def test_corruption_sweep_reports_each_row_and_keeps_output(tmp_path, capsys,
                                                           canonical_evaluate, seed):
    rng = np.random.default_rng(seed)
    canonical_csv, expected_out = canonical_evaluate
    header, *rows = canonical_csv.splitlines()

    # bad copies of random valid rows, every corruption at least once
    tagged = [(row, None) for row in shuffle_within_routes(rows, rng)]
    picks = list(range(len(CORRUPTIONS))) + list(rng.integers(0, len(CORRUPTIONS), size=10))
    for c in picks:
        column, value, reason = CORRUPTIONS[c]
        fields = rows[int(rng.integers(0, len(rows)))].split(",")
        fields[column] = value
        tagged.insert(int(rng.integers(0, len(tagged) + 1)), (",".join(fields), reason))
    dirty = tmp_path / "dirty.csv"
    dirty.write_text("\n".join([header] + [row for row, _ in tagged]) + "\n")
    # line 1 is the header
    reported = {f"warning: {dirty}:{n}: {reason}"
                for n, (_, reason) in enumerate(tagged, start=2) if reason}

    assert main(["evaluate", "--train", str(dirty), "--test", str(dirty),
                 "--threads", "2"]) == 0
    got = capsys.readouterr()
    warnings = got.err.splitlines()
    assert len(warnings) == 2 * len(picks)  # train and test each report every row
    assert set(warnings) == reported
    assert got.out == expected_out


def test_unreadable_row_is_one_warning_and_keeps_output(tmp_path, capsys, canonical_evaluate):
    canonical_csv, expected_out = canonical_evaluate
    clean = tmp_path / "clean.csv"
    clean.write_text(canonical_csv)
    header, *rows = canonical_csv.splitlines()
    oversized = rows[10].split(",")
    oversized[0] = "X" * 140_000  # longer than csv.field_size_limit()
    dirty = tmp_path / "dirty.csv"
    dirty.write_text("\n".join([header, *rows[:20], ",".join(oversized), *rows[20:]]) + "\n")

    assert main(["evaluate", "--train", str(clean), "--test", str(dirty),
                 "--threads", "2"]) == 0
    got = capsys.readouterr()
    # line 1 is the header, so the 21st data row sits on line 22
    assert got.err.splitlines() == [
        f"warning: {dirty}:22: field larger than field limit (131072)"]
    assert got.out == expected_out


def test_non_finite_params_value_exit_1(tmp_path, tiny_train, capsys):
    params = tmp_path / "nan.params"
    params.write_text("penalty.course = nan\n")
    assert main(["evaluate", "--train", str(tiny_train), "--test", str(tiny_train),
                 "--params", str(params)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {params}: line 1: bad value for 'penalty.course'")


@pytest.mark.parametrize("argv", [
    "bench --train {train} --queries 0",
    "bench --train {train} --queries -5",
    "bench --train {train} --seed -1",
    "tune --train {train} --generations -3 --out {out}",
    "tune --train {train} --population 2 --out {out}",
    "tune --train {train} --seed -1 --out {out}",
    "gen --ports 1 --out {out}",
    "gen --seed -1 --out {out}",
])
def test_bad_numeric_argument_exit_1(tmp_path, tiny_train, capsys, argv):
    assert main(argv.format(train=tiny_train, out=tmp_path / "out").split()) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# (argv, exit code, stderr): every way a command fails; each {name} is a path
# from failure_paths, {out} sits in a directory that does not exist, {fresh}
# does not exist and {train_link} is a symlink to {train}
FAILURES = [
    ("evaluate --train {missing} --test {train}", 1,
     "error: {missing}: No such file or directory"),
    ("evaluate --train {dir} --test {train}", 1, "error: {dir}: Is a directory"),
    ("evaluate --train {empty} --test {train}", 2, "error: {empty}: no usable records"),
    ("evaluate --train {bad_header} --test {train}", 1,
     "error: {bad_header}: unexpected header ['WHAT', 'EVER']; expected " + repr(AIS_HEADER)),
    ("evaluate --train {conflict} --test {train}", 1,
     "error: {conflict}: route T1:ALFA:14400 has conflicting arrival ports "
     "['ELSEWHERE', 'PORTA']"),
    ("evaluate --train {latin1} --test {train}", 1,
     "error: {latin1}: 'utf-8' codec can't decode byte 0xe9 in position "
     f"{len(HEADER) + 2}: invalid continuation byte"),
    ("predict --train {train} --query {train} --params {bad_value}", 1,
     "error: {bad_value}: line 1: bad value for 'penalty.course': "
     "p_course=nan must be finite and >= 0"),
    ("predict --train {train} --query {train} --params {unknown_key}", 1,
     "error: {unknown_key}: line 2: unknown key 'penalty.curse'"),
    ("predict --train {train} --query {train} --params {missing}", 1,
     "error: {missing}: No such file or directory"),
    ("evaluate --train {train} --test {train} --params {latin1_params}", 1,
     "error: {latin1_params}: 'utf-8' codec can't decode byte 0xe9 in position 22: "
     "invalid continuation byte"),
    ("evaluate --train {train} --test {train} --threads 0", 1,
     "error: --threads must be >= 1"),
    ("gen --ports 3 --routes-per-port 1 --out {out}", 1,
     "error: {out}: No such file or directory"),
    ("tune --train {train} --generations 0 --population 3 --out {out}", 1,
     "error: {out}: No such file or directory"),
    ("tune --train {train} --generations 0 --population 3 --out {dir}", 1,
     "error: {dir}: Is a directory"),
    ("gen --ports 1 --out {out}", 1, "error: need at least 2 ports and 1 route per port"),
    ("tune --train {train} --population 2 --out {out}", 1,
     "error: population must be > 2, the elite count"),
    ("bench --train {train} --queries 0", 1, "error: --queries must be >= 1 and --seed >= 0"),
    ("tune --train {train} --generations 0 --population 3 --out {train}", 1,
     "error: {train}: same file as --train"),
    ("tune --train {train} --generations 0 --population 3 --out {train_link}", 1,
     "error: {train_link}: same file as --train"),
    ("tune --train {one_route} --generations 0 --population 3 --out {fresh}", 2,
     "error: need at least 2 labeled routes to tune"),
    ("tune --train {train} --generations 0 --population 3 --threads 0 --out {fresh}", 1,
     "error: --threads must be >= 1"),
    ("tune --train {missing} --out {fresh}", 1, "error: {missing}: No such file or directory"),
]


@pytest.fixture
def failure_paths(tmp_path, tiny_train):
    header, first, *rows = tiny_train.read_text().splitlines()
    conflict = first.split(",")
    conflict[-1] = "ELSEWHERE"
    files = {
        "empty": HEADER + "\n",
        "bad_header": "WHAT,EVER\n1,2\n",
        "conflict": "\n".join([header, first, ",".join(conflict), *rows]) + "\n",
        "latin1": "\n".join([header, "T\u00e9", *rows]) + "\n",
        "bad_value": "penalty.course = nan\n",
        "unknown_key": "penalty.speed = 8.0\npenalty.curse = 1.0\n",
        "latin1_params": "penalty.speed = 8.0\n# \u00e9t\u00e9\n",
        "one_route": "\n".join([header, first]) + "\n",
    }
    paths = {"train": tiny_train, "dir": tmp_path, "missing": tmp_path / "nope.csv",
             "out": tmp_path / "no_dir" / "out", "fresh": tmp_path / "fresh.params"}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_bytes(text.encode("latin-1" if name.startswith("latin1") else "utf-8"))
    paths["train_link"] = tmp_path / "train_link.csv"
    paths["train_link"].symlink_to(tiny_train)
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("argv,code,err", FAILURES, ids=[f[0].split()[0] + f"-{i}"
                                                         for i, f in enumerate(FAILURES)])
def test_failure_exit_code_and_message(tmp_path, failure_paths, capsys, argv, code, err):
    files_before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert main(argv.format(**failure_paths).split()) == code
    got = capsys.readouterr()
    assert got.err == err.format(**failure_paths) + "\n"
    assert got.out == ""
    # a failed command creates no file and changes none
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files_before


def test_existing_tmp_file_is_left_alone(tmp_path, tiny_train, capsys):
    # a user's <out>.tmp is never a command's temporary, whether it succeeds or fails
    out, folder = tmp_path / "p.txt", tmp_path / "d"
    folder.mkdir()
    taken = tmp_path / f"taken.txt.{os.getpid()}.tmp"
    bystanders = {tmp_path / "p.txt.tmp": b"mine\n", tmp_path / "d.tmp": b"mine too\n",
                  taken: b"mine as well\n"}
    for path, data in bystanders.items():
        path.write_bytes(data)
    tune = ["tune", "--train", str(tiny_train), "--generations", "0", "--population", "3",
            "--out"]
    assert main(["gen", "--ports", "2", "--routes-per-port", "1", "--out", str(out)]) == 0
    assert main(tune + [str(out)]) == 0
    capsys.readouterr()
    # a directory fails before any temporary is created
    assert main(tune + [str(folder)]) == 1
    # a file already at the temporary's name fails the command and is kept
    assert main(tune + [str(tmp_path / "taken.txt")]) == 1
    got = capsys.readouterr()
    assert got.err.splitlines() == [f"error: {folder}: Is a directory",
                                    f"error: {taken}: File exists"]
    assert got.out == ""
    assert {p: p.read_bytes() for p in bystanders} == bystanders
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["train.csv", "p.txt", "d", *(p.name for p in bystanders)])


def _must_not_run(*args, **kwargs):
    raise AssertionError("called after the command should have failed")


def assert_unwritable_outs_fail(tmp_path, capsys, argv):
    """``argv`` with ``--out`` in a missing directory, then with ``--out`` a
    directory, fails naming the path and creates and changes nothing."""
    folder = tmp_path / "d"
    folder.mkdir()
    before = sorted(tmp_path.rglob("*"))
    for out, reason in [(tmp_path / "no_dir" / "out", "No such file or directory"),
                        (folder, "Is a directory")]:
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {out}: {reason}\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_tune_unwritable_out_fails_before_the_ga(tmp_path, tiny_train, capsys, monkeypatch):
    monkeypatch.setattr(cli, "evolve", _must_not_run)
    assert_unwritable_outs_fail(tmp_path, capsys, ["tune", "--train", str(tiny_train)])


def test_gen_unwritable_out_fails_before_generating(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "gen_synthetic", _must_not_run)
    assert_unwritable_outs_fail(tmp_path, capsys, ["gen"])


@pytest.mark.parametrize("argv", ["evaluate --train {train} --test {train} --threads 0",
                                  "tune --train {train} --threads 0 --out {out}"])
def test_threads_checked_before_any_file_is_read(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "_load_routes", _must_not_run)
    argv = argv.format(train=tmp_path / "nope.csv", out=tmp_path / "p.params")
    assert main(argv.split()) == 1
    assert capsys.readouterr() == ("", "error: --threads must be >= 1\n")
    assert list(tmp_path.iterdir()) == []


def test_predict_unprintable_arrival_exit_1(tmp_path, tiny_train, capsys):
    # the query fix sits 99 s before the end of year 9999; its predicted arrival lies hours later
    query = tmp_path / "far.csv"
    query.write_text(HEADER + "\nQS,70,10.0,0.01,0.0,0.0,,253402300700,ALFA,,,\n")
    assert main(["predict", "--train", str(tiny_train), "--query", str(query)]) == 1
    got = capsys.readouterr()
    assert got.err == f"error: {query}: route QS:ALFA:0 seq 0: timestamp out of range\n"
    # rows stream as they are predicted, so the header is already out
    assert got.out == "route_key,seq,predicted_port,predicted_arrival,raw_port\n"


def test_non_utf8_byte_past_first_read_chunk_exit_1(tmp_path, tiny_train, capsys):
    header, *rows = tiny_train.read_text().splitlines()
    path = tmp_path / "latin1_late.csv"
    text = "\n".join([header, *rows * 40, "T\u00e9", *rows]) + "\n"
    assert text.index("\u00e9") > 3 * 8192
    path.write_bytes(text.encode("latin-1"))
    assert main(["evaluate", "--train", str(path), "--test", str(tiny_train)]) == 1
    got = capsys.readouterr()
    assert re.fullmatch(f"error: {re.escape(str(path))}: 'utf-8' codec can't decode byte 0xe9 "
                        r"in position \d+: invalid continuation byte\n", got.err)
    assert got.out == ""


def test_predict_rows_in_input_order(tmp_path, tiny_train, capsys):
    query = tmp_path / "q.csv"
    lines = [HEADER]
    for lat, lon, ts in [(0.0, 0.01, 0), (1.0, 0.01, 3600), (2.0, 0.01, 7200)]:
        rec = make_record(ship="QS", lat=lat, lon=lon, ts=ts,
                          arr_time=None, arr_port=None)
        lines.append(",".join([
            rec.ship_id, "70", "10.0", repr(lon), repr(lat), "0.0", "",
            format_timestamp(ts), "ALFA", "", "", ""]))
    query.write_text("\n".join(lines) + "\n")

    assert main(["predict", "--train", str(tiny_train), "--query", str(query)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "route_key,seq,predicted_port,predicted_arrival,raw_port"
    assert len(out) == 4
    seqs = [int(line.split(",")[1]) for line in out[1:]]
    assert seqs == [0, 1, 2]
    assert all(line.split(",")[2] == "PORTA" for line in out[1:])


@pytest.mark.parametrize("epoch", ["99999999999999", "-99999999999"])
def test_predict_warns_on_timestamp_outside_printable_years(tmp_path, tiny_train, capsys,
                                                            epoch):
    query = tmp_path / "q.csv"
    lines = [HEADER] + [f"QS,70,10.0,0.01,{lat},0.0,,{ts},ALFA,,,"
                        for lat, ts in [(0.0, "0"), (1.0, epoch), (1.0, "3600")]]
    query.write_text("\n".join(lines) + "\n")

    assert main(["predict", "--train", str(tiny_train), "--query", str(query)]) == 0
    got = capsys.readouterr()
    assert got.err == f"warning: {query}:3: timestamp out of range\n"
    rows = [line.split(",") for line in got.out.splitlines()[1:]]
    assert [(r[1], r[2]) for r in rows] == [("0", "PORTA"), ("1", "PORTA")]


def test_predict_exact_training_point(tmp_path, tiny_train, capsys):
    # first fix of the PORTA training route, labels blanked
    query = tmp_path / "q.csv"
    rec = make_record(ship="T1", lat=0.0, lon=0.0, ts=0,
                      arr_time=None, arr_port=None)
    query.write_text(records_to_csv([rec]))

    assert main(["predict", "--train", str(tiny_train), "--query", str(query)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[2] == "PORTA"
    # that training point's remaining time runs to the route's arrival
    assert row[3] == format_timestamp(14400)


def test_tune_round_trip(tmp_path, tiny_train, capsys):
    out = tmp_path / "tuned.params"
    args = ["tune", "--train", str(tiny_train), "--generations", "2",
            "--population", "4", "--seed", "3", "--out", str(out)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert load_params(str(out)).smoothing_enabled is True

    # the history CSV, then the summary line; tune writes no other file
    *history, summary = first.splitlines()
    assert history[0] == "generation,best_fitness,mean_fitness"
    assert len(history) == 1 + 3  # header + generations 0..2
    assert summary == (f"generations=2 best_fitness={history[-1].split(',')[1]} "
                       f"params={out}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.csv", "tuned.params"]

    bytes_a = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == bytes_a
    assert capsys.readouterr().out == first


def test_tune_output_independent_of_threads(tmp_path, capsys):
    # 12 routes, so each genome's holdout split spreads over the pool's threads
    data = tmp_path / "small.csv"
    data.write_text(gen_synthetic(SyntheticConfig(n_ports=3, routes_per_port=4, points_min=10,
                                                  points_max=15, seed=2)))
    out = tmp_path / "tuned.params"
    outputs = []
    for threads in ("1", "3"):
        assert main(["tune", "--train", str(data), "--generations", "2",
                     "--population", "5", "--seed", "4", "--threads", threads,
                     "--out", str(out)]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]


def test_tune_empty_input_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text(HEADER + "\n")
    assert main(["tune", "--train", str(empty), "--out",
                 str(tmp_path / "p.txt")]) == 2


def test_bench_gate_and_report(tmp_path, tiny_train, capsys):
    assert main(["bench", "--train", str(tiny_train), "--queries", "20",
                 "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("correctness=ok")
    names = [line.split()[0] for line in lines[1:]]
    assert names == ["structure=balltree", "structure=brute"]
    fields = [dict(part.split("=") for part in line.split()) for line in lines[1:]]
    assert float(fields[0]["build_seconds"]) >= 0.0
    # a scan builds nothing
    assert fields[1]["build_seconds"] == "0.000000"
    assert all(float(f["mean_query_seconds"]) > 0.0 for f in fields)


def test_bench_gate_failure_prints_no_timing(tiny_train, capsys, monkeypatch):
    real = cli._scan
    calls = []

    def brute_off_on_third_query(points, ids, q):
        calls.append(q)
        best_id, best_d = real(points, ids, q)
        return (best_id + 1 if len(calls) == 3 else best_id), best_d

    monkeypatch.setattr(cli, "_scan", brute_off_on_third_query)
    assert main(["bench", "--train", str(tiny_train), "--queries", "5", "--seed", "1"]) == 1
    got = capsys.readouterr()
    assert got.err == "error: correctness gate failed: structures disagree\n"
    assert got.out == ""
    assert len(calls) == 5  # the brute arm answered each query once


def test_bench_gate_rejects_distance_one_ulp_off(tiny_train, capsys, monkeypatch):
    """The tree and the scan agree bit for bit, so the gate compares exactly:
    the right id at a distance one ulp away is a disagreement."""
    real = cli._scan

    def brute_one_ulp_far(points, ids, q):
        best_id, best_d = real(points, ids, q)
        return best_id, float(np.nextafter(best_d, np.inf))

    monkeypatch.setattr(cli, "_scan", brute_one_ulp_far)
    assert main(["bench", "--train", str(tiny_train), "--queries", "5", "--seed", "1"]) == 1
    got = capsys.readouterr()
    assert got.err == "error: correctness gate failed: structures disagree\n"
    assert got.out == ""


def test_readme_quickstart_commands_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Quickstart (command line)")[1].split("```sh\n")[1].split("```")[0]
    commands = [line.split()[1:] for line in block.splitlines() if line.startswith("portcall ")]
    assert [argv[0] for argv in commands] == ["gen", "evaluate", "predict", "tune", "evaluate",
                                              "bench"]
    for argv in commands:
        build_parser().parse_args(argv)


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "portcall" in capsys.readouterr().out
