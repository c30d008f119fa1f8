"""End-to-end command-line behavior via main()."""

import contextlib
import io

import numpy as np
import pytest

from portcall.cli import main
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

    assert main(["evaluate", "--train", str(tiny_train), "--test", str(test_file),
                 "--threads", "1", "--no-smoothing"]) == 0
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
    assert "best_fitness=" in first
    pf = load_params(str(out))
    assert pf.leaf_size == 32

    history = (tmp_path / "tuned.params.history.csv").read_text()
    assert len(history.strip().split("\n")) == 1 + 3  # header + generations 0..2

    bytes_a = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == bytes_a


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
    for line in lines[1:]:
        fields = dict(part.split("=") for part in line.split())
        assert float(fields["build_seconds"]) >= 0.0
        assert float(fields["mean_query_seconds"]) > 0.0


def test_bench_single_structure(tiny_train, capsys):
    assert main(["bench", "--train", str(tiny_train), "--queries", "5",
                 "--seed", "1", "--structure", "brute"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("structure=brute")


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "portcall" in capsys.readouterr().out
