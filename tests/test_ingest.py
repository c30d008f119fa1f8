"""CSV ingestion: schema, row errors, timestamp formats, round-trips."""

import io
import re
import tracemalloc
from datetime import datetime, timezone
from math import isfinite

import numpy as np
import pytest

from portcall.geo import normalize_lon
from portcall.ingest import (
    AIS_HEADER,
    EPOCH_MAX,
    EPOCH_MIN,
    HEADING_UNAVAILABLE,
    AisFormatError,
    AisRecord,
    RowError,
    format_timestamp,
    load_ais_csv,
    parse_ais_csv,
    parse_timestamp,
    records_to_csv,
)

HEADER = ",".join(AIS_HEADER)

GOOD_LABELED = (
    "SHIP_A,70,12.5,5.25,43.5,90.0,91.0,2018-03-01T10:00:00,"
    "MARSEILLE,7.5,2018-03-02T08:30:00,GENOVA"
)
GOOD_UNLABELED = "SHIP_A,70,12.5,5.25,43.5,90.0,91.0,2018-03-01T10:00:00,MARSEILLE,7.5,,"


def test_parse_timestamp_formats():
    assert parse_timestamp("1970-01-01T00:00:00") == 0
    assert parse_timestamp("86400") == 86400
    assert parse_timestamp("2018-03-01T10:00:00") == 1519898400
    with pytest.raises(ValueError):
        parse_timestamp("01-05-15 9:12")


@pytest.mark.parametrize("text, epoch", [
    ("2018-1-1T1:2:3", 1514768523),  # unpadded, as strptime reads it
    ("+86400", 86400),
    ("1_000", 1000),
    (" 2018-03-01T10:00:00 ", 1519898400),
    ("-62135596800", EPOCH_MIN),  # 0001-01-01T00:00:00
    ("253402300799", EPOCH_MAX),  # 9999-12-31T23:59:59
])
def test_parse_timestamp_accepted_forms(text, epoch):
    assert parse_timestamp(text) == epoch


@pytest.mark.parametrize("text", [
    # near-ISO forms, and fields that name no real date or time
    "2018-01-01T00:00:00.5",
    "2018-01-01 00:00:00",
    "2018-01-01T00:00:00+00:00",
    "2018-01-01T00:00:00Z",
    "20180101T000000",
    "2018-01-01T24:00:00",
    "2018-02-30T00:00:00",
    "2018-01-01T00:00:60",
])
def test_parse_timestamp_rejected_forms(text):
    with pytest.raises(ValueError, match="unparseable timestamp"):
        parse_timestamp(text)


@pytest.mark.parametrize("text", [str(EPOCH_MIN - 1), str(EPOCH_MAX + 1),
                                  "99999999999999", "-99999999999"])
def test_epoch_literal_outside_printable_years_rejected(text):
    with pytest.raises(ValueError, match="^timestamp out of range$"):
        parse_timestamp(text)
    with pytest.raises(ValueError, match="^timestamp out of range$"):
        format_timestamp(int(text))


def test_format_timestamp_round_trip():
    for epoch in (EPOCH_MIN, 0, 86400, 1519898400, 2000000000, EPOCH_MAX):
        assert parse_timestamp(format_timestamp(epoch)) == epoch


def test_well_formed_labeled_row():
    records, errors = parse_ais_csv(f"{HEADER}\n{GOOD_LABELED}\n", labeled=True)
    assert errors == []
    (rec,) = records
    assert rec.ship_id == "SHIP_A"
    assert rec.ship_type == 70
    assert rec.speed_knots == 12.5
    assert rec.lon_deg == 5.25
    assert rec.lat_deg == 43.5
    assert rec.course_deg == 90.0
    assert rec.heading_deg == 91.0
    assert rec.timestamp == 1519898400
    assert rec.departure_port == "MARSEILLE"
    assert rec.draught == 7.5
    assert rec.arrival_time == parse_timestamp("2018-03-02T08:30:00")
    assert rec.arrival_port == "GENOVA"


def test_unlabeled_schema():
    records, errors = parse_ais_csv(f"{HEADER}\n{GOOD_UNLABELED}\n", labeled=False)
    assert errors == []
    assert records[0].arrival_time is None
    assert records[0].arrival_port is None


def test_latitude_out_of_range_is_row_error():
    bad = GOOD_LABELED.replace(",43.5,", ",95.0,")
    records, errors = parse_ais_csv(f"{HEADER}\n{bad}\n", labeled=True)
    assert records == []
    assert len(errors) == 1
    assert errors[0].line == 2
    assert "latitude out of range" in errors[0].reason


def test_heading_511_is_missing():
    row = GOOD_LABELED.replace(",91.0,", ",511,")
    records, errors = parse_ais_csv(f"{HEADER}\n{row}\n", labeled=True)
    assert errors == []
    assert records[0].heading_deg is None


def test_missing_header_is_fatal():
    with pytest.raises(AisFormatError):
        parse_ais_csv(f"{GOOD_LABELED}\n", labeled=True)
    with pytest.raises(AisFormatError):
        parse_ais_csv("", labeled=True)


def test_row_error_accounting():
    rows = [
        GOOD_LABELED,
        "too,few,fields",
        GOOD_LABELED.replace(",12.5,", ",-3.0,"),  # negative speed
        GOOD_LABELED.replace("2018-03-01T10:00:00", "not-a-time"),
    ]
    text = HEADER + "\n" + "\n".join(rows) + "\n"
    records, errors = parse_ais_csv(text, labeled=True)
    assert len(records) + len(errors) == len(rows)
    assert len(records) == 1
    assert [e.line for e in errors] == [3, 4, 5]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["SPEED", "LON", "LAT", "COURSE", "HEADING",
                                    "REPORTED_DRAUGHT"])
def test_non_finite_value_is_row_error(column, value):
    fields = GOOD_LABELED.split(",")
    fields[AIS_HEADER.index(column)] = value
    rows = [GOOD_LABELED, ",".join(fields), GOOD_LABELED]
    records, errors = parse_ais_csv(HEADER + "\n" + "\n".join(rows) + "\n", labeled=True)
    assert len(records) + len(errors) == len(rows)
    assert len(records) == 2
    assert [e.line for e in errors] == [3]
    assert "not finite" in errors[0].reason


@pytest.mark.parametrize("brk", ["\n", "\r\n"])
def test_quoted_line_break_is_row_error_on_its_physical_line(brk):
    broken = GOOD_LABELED.replace(",MARSEILLE,", f',"PORT{brk}_02",')
    rows = [GOOD_LABELED, broken, GOOD_LABELED, GOOD_LABELED.replace(",12.5,", ",-1,")]
    records, errors = parse_ais_csv(HEADER + "\n" + "\n".join(rows) + "\n", labeled=True)
    assert len(records) == 2
    # the broken row spans lines 3-4, so the negative speed sits on line 6
    assert errors == [RowError(3, "field contains a line break"), RowError(6, "negative speed")]


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"])
@pytest.mark.parametrize("column", ["SHIP_ID", "DEPARTURE_PORT_NAME", "ARRIVAL_PORT"])
def test_field_with_line_break_rejected(column, brk):
    fields = GOOD_LABELED.split(",")
    fields[AIS_HEADER.index(column)] = f'"A{brk}B"'
    records, errors = parse_ais_csv(f"{HEADER}\n{','.join(fields)}\n", labeled=True)
    assert records == []
    assert errors == [RowError(2, "field contains a line break")]


@pytest.mark.parametrize("column, field, outcome", [
    # text after a closing quote: the strict reader rejects the row
    ("SHIP_ID", '"abc"def', RowError(3, "',' expected after '\"'")),
    ("ARRIVAL_PORT", '"GENOVA" ', RowError(3, "',' expected after '\"'")),
    # a quote inside an unquoted field and a doubled quote are read as text
    ("SHIP_ID", 'ab"c', 'ab"c'),
    ("SHIP_ID", '"a""b"', 'a"b'),
    ("SHIP_ID", '"a,b"', RowError(3, "field contains a comma")),
    ("DEPARTURE_PORT_NAME", '"A\nB"', RowError(3, "field contains a line break")),
])
def test_quoting_between_good_rows(column, field, outcome):
    fields = GOOD_LABELED.split(",")
    fields[AIS_HEADER.index(column)] = field
    rows = [GOOD_LABELED, ",".join(fields), GOOD_LABELED]
    records, errors = parse_ais_csv(HEADER + "\n" + "\n".join(rows) + "\n", labeled=True)
    if isinstance(outcome, RowError):
        assert errors == [outcome]
        assert records == parse_ais_csv(f"{HEADER}\n{GOOD_LABELED}\n", labeled=True)[0] * 2
    else:
        assert errors == []
        assert [r.ship_id for r in records] == ["SHIP_A", outcome, "SHIP_A"]


OVERSIZED = "X" * 140_000  # longer than csv.field_size_limit()


def test_unreadable_row_is_row_error_on_its_physical_line():
    oversized = GOOD_LABELED.replace("SHIP_A", OVERSIZED)
    broken = GOOD_LABELED.replace(",MARSEILLE,", ',"PORT\n_02",')
    rows = [GOOD_LABELED, broken, oversized, GOOD_LABELED, GOOD_LABELED.replace(",12.5,", ",-1,")]
    records, errors = parse_ais_csv(HEADER + "\n" + "\n".join(rows) + "\n", labeled=True)
    # the reader carries on after the oversized field: the next rows keep their lines
    assert errors == [RowError(3, "field contains a line break"),
                      RowError(5, "field larger than field limit (131072)"),
                      RowError(7, "negative speed")]
    assert records == parse_ais_csv(f"{HEADER}\n{GOOD_LABELED}\n{GOOD_LABELED}\n",
                                    labeled=True)[0]


def test_unreadable_header_is_fatal():
    with pytest.raises(AisFormatError, match="unreadable header"):
        parse_ais_csv(f"{OVERSIZED}\n{GOOD_LABELED}\n", labeled=True)


def _text_and_file(tmp_path, text: str):
    """The outcome of parsing ``text`` as a string and as a file of its UTF-8
    bytes: (records, errors), or the fatal error's type and message."""
    path = tmp_path / "input.csv"
    path.write_bytes(text.encode("utf-8"))
    outcomes = []
    for parse, source in ((parse_ais_csv, text), (load_ais_csv, str(path))):
        try:
            outcomes.append(parse(source, labeled=True))
        except AisFormatError as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


@pytest.mark.parametrize("rows, lines", [
    # an unquoted lone \r ends a row: "SHIP_A" alone is line 3, the rest line 4
    ([GOOD_LABELED, GOOD_LABELED.replace("SHIP_A,", "SHIP_A\r,")], [3, 4]),
    # a quoted \r spans lines 3-4, so the negative speed sits on line 6
    ([GOOD_LABELED, GOOD_LABELED.replace(",MARSEILLE,", ',"PORT\r_02",'), GOOD_LABELED,
      GOOD_LABELED.replace(",12.5,", ",-1,")], [3, 6]),
])
def test_text_and_file_input_agree_on_carriage_returns(tmp_path, rows, lines):
    from_text, from_file = _text_and_file(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n")
    assert from_text == from_file
    assert [e.line for e in from_text[1]] == lines


def test_non_utf8_byte_past_first_read_chunk_is_fatal(tmp_path):
    # the file reader decodes 8 KiB at a time; a bad byte in a later chunk must
    # still stop the parse, not become a row error that drops the chunk's rows
    rows = [GOOD_LABELED] * 400 + [GOOD_LABELED.replace("SHIP_A", "SHIP_é")]
    text = HEADER + "\n" + "\n".join(rows + [GOOD_LABELED]) + "\n"
    assert text.index("é") > 3 * 8192
    path = tmp_path / "latin1.csv"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(UnicodeDecodeError, match="can't decode byte 0xe9"):
        load_ais_csv(str(path), labeled=True)


# str.splitlines ends a line at each of these; a file opened with newline="" does not
NOT_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NOT_LINE_BREAKS)
def test_text_and_file_input_agree_on_other_unicode_line_boundaries(tmp_path, char):
    unquoted = GOOD_LABELED.replace("SHIP_A", f"SHIP{char}A")
    quoted = GOOD_LABELED.replace(",MARSEILLE,", f',"MAR{char}SEILLE",')
    text = HEADER + "\n" + "\n".join([unquoted, quoted, GOOD_LABELED]) + "\n"
    from_text, from_file = _text_and_file(tmp_path, text)
    assert from_text == from_file
    records, errors = from_text
    assert errors == []
    assert [r.ship_id for r in records] == [f"SHIP{char}A", "SHIP_A", "SHIP_A"]
    assert [r.departure_port for r in records] == ["MARSEILLE", f"MAR{char}SEILLE",
                                                   "MARSEILLE"]


@pytest.mark.parametrize("text, rows", [
    (f"{HEADER}\n{GOOD_LABELED}", 1),  # no final line break
    (f"{HEADER}\n{GOOD_LABELED}\r", 1),  # a trailing lone \r
    (f"{HEADER}\r\n{GOOD_LABELED}\r\r\n{GOOD_LABELED}", 2),  # \r, then \r\n: an empty line
    (f"{HEADER}\n", 0),  # header only
    (HEADER, 0),
    ("", None),  # empty: fatal
    ("\n", None),  # an empty header line: fatal
])
def test_text_and_file_input_agree_on_line_ends(tmp_path, text, rows):
    from_text, from_file = _text_and_file(tmp_path, text)
    assert from_text == from_file
    if rows is None:
        assert from_text[0] is AisFormatError
    else:
        assert len(from_text[0]) == rows and from_text[1] == []


def test_byte_order_mark_is_dropped_from_text():
    text = f"{HEADER}\n{GOOD_LABELED}\n"
    assert parse_ais_csv("\ufeff" + text, labeled=True) == parse_ais_csv(text, labeled=True)
    # only one: a second mark is part of the header
    with pytest.raises(AisFormatError, match="unexpected header"):
        parse_ais_csv("\ufeff\ufeff" + text, labeled=True)


def test_byte_order_mark_is_dropped_from_file(tmp_path):
    text = f"{HEADER}\n{GOOD_LABELED}\n"
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_ais_csv(str(path), labeled=True) == parse_ais_csv(text, labeled=True)


@pytest.mark.parametrize("kind", ["str", "stream", "file"])
def test_byte_order_mark_is_dropped_from_every_input_kind(tmp_path, kind):
    def parse(text):
        if kind == "str":
            return parse_ais_csv(text, labeled=True)
        if kind == "stream":
            return parse_ais_csv(io.StringIO(text, newline=""), labeled=True)
        path = tmp_path / "input.csv"
        path.write_text(text, encoding="utf-8", newline="")
        return load_ais_csv(str(path), labeled=True)

    quoted_header = ",".join(f'"{h}"' for h in AIS_HEADER)
    text = f"{quoted_header}\r\n{GOOD_LABELED}\r\nnot a row\r\n{GOOD_LABELED}\n"
    records, errors = parse_ais_csv(text, labeled=True)
    assert len(records) == 2 and [e.line for e in errors] == [3]
    assert parse("\ufeff" + text) == (records, errors)
    # only one: a second mark is part of the header
    with pytest.raises(AisFormatError, match="unexpected header"):
        parse("\ufeff\ufeff" + text)
    with pytest.raises(AisFormatError, match="empty input"):
        parse("\ufeff")


def test_text_input_is_read_without_a_copy(canonical_records):
    text = records_to_csv(canonical_records)
    tracemalloc.start()
    try:
        records, errors = parse_ais_csv(text, labeled=True)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == len(canonical_records) and errors == []
    # what the parse held beyond its result: a copy of the text would be
    # at least as long as the text, one byte per character
    assert peak - live < len(text) // 2


def test_records_are_immutable():
    (rec,) = parse_ais_csv(f"{HEADER}\n{GOOD_LABELED}\n", labeled=True)[0]
    with pytest.raises(AttributeError):
        rec.speed_knots = 1.0
    with pytest.raises(AttributeError):
        rec.note = "x"
    # the field names, their order and the two defaults
    assert AisRecord._fields == (
        "ship_id", "ship_type", "speed_knots", "lon_deg", "lat_deg", "course_deg",
        "heading_deg", "timestamp", "departure_port", "draught", "arrival_time",
        "arrival_port")
    assert AisRecord(*rec[:10]) == rec._replace(arrival_time=None, arrival_port=None)


def test_equal_names_are_one_object_within_a_parse():
    rows = [GOOD_LABELED,
            GOOD_LABELED.replace("10:00:00", "11:00:00"),
            # a lower-case port and a ship id that equals a port name
            GOOD_LABELED.replace("SHIP_A", "GENOVA").replace("MARSEILLE", " marseille")
            .replace(",GENOVA", ",genova")]
    records, errors = parse_ais_csv(HEADER + "\n" + "\n".join(rows) + "\n", labeled=True)
    assert errors == []
    first, second, third = records
    assert second.ship_id is first.ship_id
    assert second.departure_port is first.departure_port
    assert third.departure_port is first.departure_port == "MARSEILLE"
    assert third.arrival_port is first.arrival_port == "GENOVA"
    assert third.ship_id is first.arrival_port


def test_labeled_requires_arrival_fields():
    records, errors = parse_ais_csv(f"{HEADER}\n{GOOD_UNLABELED}\n", labeled=True)
    assert records == []
    assert len(errors) == 1


def test_arrival_before_timestamp_rejected():
    bad = GOOD_LABELED.replace("2018-03-02T08:30:00", "2018-02-01T00:00:00")
    records, errors = parse_ais_csv(f"{HEADER}\n{bad}\n", labeled=True)
    assert records == []
    assert len(errors) == 1


def test_longitude_wrapped():
    row = GOOD_LABELED.replace(",5.25,", ",185.0,")
    records, _ = parse_ais_csv(f"{HEADER}\n{row}\n", labeled=True)
    assert records[0].lon_deg == pytest.approx(-175.0)


def test_round_trip_identity():
    rows = [
        GOOD_LABELED,
        GOOD_LABELED.replace(",91.0,", ",511,").replace("SHIP_A", "SHIP_B"),
    ]
    text = HEADER + "\n" + "\n".join(rows) + "\n"
    records, errors = parse_ais_csv(text, labeled=True)
    assert errors == []
    again, errors2 = parse_ais_csv(records_to_csv(records), labeled=True)
    assert errors2 == []
    assert again == records


def test_synthetic_round_trip(canonical_records):
    text = records_to_csv(canonical_records)
    records, errors = parse_ais_csv(text, labeled=True)
    assert errors == []
    assert records == canonical_records


# --- reference parser: the row parser with strptime reading the date-times and
# no arrival cache, kept as the oracle for the fuzz and the sweep below.

def oracle_parse_timestamp(text: str) -> int:
    text = text.strip()
    try:
        epoch = int(text)
    except ValueError:
        pass
    else:
        if not -62135596800 <= epoch <= 253402300799:  # years 1-9999
            raise ValueError("timestamp out of range")
        return epoch
    try:
        dt = datetime.strptime(text, "%Y-%m-%dT%H:%M:%S")
    except ValueError:
        raise ValueError(f"unparseable timestamp: {text!r}") from None
    return int(dt.replace(tzinfo=timezone.utc).timestamp())


def _oracle_float(field: str, name: str) -> float:
    value = float(field)
    if not isfinite(value):
        raise ValueError(f"{name} is not finite")
    return value


def _oracle_opt_float(field: str, name: str, minimum: float | None = None) -> float | None:
    if field == "":
        return None
    value = _oracle_float(field, name)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return value


def oracle_parse_row(fields: list[str], labeled: bool) -> AisRecord:
    (ship_id, ship_type, speed, lon, lat, course, heading, timestamp,
     departure_port, draught, arrival_time, arrival_port) = (f.strip() for f in fields)

    if not ship_id:
        raise ValueError("empty ship id")
    ship_type_i = int(ship_type)
    speed_f = _oracle_float(speed, "speed")
    if speed_f < 0:
        raise ValueError("negative speed")
    lat_f = _oracle_float(lat, "latitude")
    if not -90.0 <= lat_f <= 90.0:
        raise ValueError("latitude out of range")
    lon_f = normalize_lon(_oracle_float(lon, "longitude"))

    course_f = _oracle_opt_float(course, "course")
    if course_f is not None and not 0.0 <= course_f < 360.0:
        raise ValueError("course out of range")
    heading_f = _oracle_opt_float(heading, "heading")
    if heading_f is not None and heading_f == HEADING_UNAVAILABLE:
        heading_f = None
    if heading_f is not None and not 0.0 <= heading_f < 360.0:
        raise ValueError("heading out of range")

    ts = oracle_parse_timestamp(timestamp)
    if not departure_port:
        raise ValueError("empty departure port")
    draught_f = _oracle_opt_float(draught, "draught", minimum=0.0)

    if labeled:
        if not arrival_time or not arrival_port:
            raise ValueError("labeled row missing arrival time or port")
        arrival_ts: int | None = oracle_parse_timestamp(arrival_time)
        if arrival_ts < ts:
            raise ValueError("arrival time before timestamp")
        arrival_p: str | None = arrival_port.upper()
    else:
        if arrival_time or arrival_port:
            raise ValueError("unlabeled row carries arrival fields")
        arrival_ts = None
        arrival_p = None

    return AisRecord(
        ship_id=ship_id,
        ship_type=ship_type_i,
        speed_knots=speed_f,
        lon_deg=lon_f,
        lat_deg=lat_f,
        course_deg=course_f,
        heading_deg=heading_f,
        timestamp=ts,
        departure_port=departure_port.upper(),
        draught=draught_f,
        arrival_time=arrival_ts,
        arrival_port=arrival_p,
    )


def test_bad_date_is_reported_on_each_row():
    stamps = ["2018-02-30T01:00:00", "2018-02-30T02:00:00", "2018-03-01T10:00:00",
              "2018-02-30T01:00:00"]
    rows = [GOOD_LABELED.replace("2018-03-01T10:00:00", s) for s in stamps]
    records, errors = parse_ais_csv(HEADER + "\n" + "\n".join(rows) + "\n", labeled=True)
    assert len(records) == 1
    assert errors == [RowError(line, f"unparseable timestamp: {stamps[line - 2]!r}")
                      for line in (2, 3, 5)]


def test_padded_and_unpadded_dates_give_the_oracle_epochs():
    stamps = ["2018-01-05T10:00:00", "2018-1-5T10:00:00", "2018-1-5T1:2:3",
              "2018-01-5T23:59:59", "2018-01- 5t00:00:00", "2018-01-05T00:00:00"]
    rows = [GOOD_LABELED.replace("2018-03-01T10:00:00", s) for s in stamps]
    records, errors = parse_ais_csv(HEADER + "\n" + "\n".join(rows) + "\n", labeled=True)
    assert errors == []
    assert [r.timestamp for r in records] == [oracle_parse_timestamp(s) for s in stamps]
    assert [parse_timestamp(s) for s in stamps] == [r.timestamp for r in records]


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")

# Each mutation maps a field's canonical text and the rng to new text.
TIMESTAMP_MUTATIONS = [
    lambda v, rng: v.replace("-0", "-").replace("T0", "T").replace(":0", ":"),  # unpadded
    lambda v, rng: v + ".5",
    lambda v, rng: v.replace("T", " "),
    lambda v, rng: v + "+00:00",
    lambda v, rng: v[:11] + "24:00:00",
    lambda v, rng: v[:5] + "02-30" + v[10:],
    lambda v, rng: v[:17] + "60",
    lambda v, rng: v.translate(ARABIC_INDIC),
    lambda v, rng: v[:-1] + "٥",  # one non-ASCII digit
    lambda v, rng: v.replace("-", "").replace(":", ""),
    lambda v, rng: str(parse_timestamp(v)),
    lambda v, rng: "+" + str(parse_timestamp(v)),
    lambda v, rng: f"{parse_timestamp(v) // 1000}_{parse_timestamp(v) % 1000:03d}",
    lambda v, rng: "1_000",
    lambda v, rng: "+86400",
    lambda v, rng: f"  {v} ",
    lambda v, rng: "",
    lambda v, rng: "0000-01-01T00:00:00",
    lambda v, rng: "9999-12-31T23:59:59",
    lambda v, rng: "253402300800",  # one second past 9999-12-31T23:59:59
]

NUMBER_MUTATIONS = [
    lambda v, rng: f" {v}  ",
    lambda v, rng: "Infinity",
    lambda v, rng: "-Infinity",
    lambda v, rng: "nan",
    lambda v, rng: "NaN",
    lambda v, rng: "",
    lambda v, rng: "1_0",
    lambda v, rng: v.translate(ARABIC_INDIC),
    lambda v, rng: "511",
    lambda v, rng: "511.0",
    lambda v, rng: "360",
    lambda v, rng: "-1",
    lambda v, rng: "-0.0",
    lambda v, rng: "1e3",
    lambda v, rng: repr(float(rng.uniform(-400, 400))),
]

TEXT_MUTATIONS = [
    lambda v, rng: "",
    lambda v, rng: "   ",
    lambda v, rng: f" {v.lower()} ",
]

TIMESTAMP_COLUMNS = [AIS_HEADER.index(c) for c in ("TIMESTAMP", "ARRIVAL_TIME")]
NUMBER_COLUMNS = [AIS_HEADER.index(c) for c in ("SHIPTYPE", "SPEED", "LON", "LAT", "COURSE",
                                                "HEADING", "REPORTED_DRAUGHT")]
TEXT_COLUMNS = [AIS_HEADER.index(c) for c in ("SHIP_ID", "DEPARTURE_PORT_NAME",
                                              "ARRIVAL_PORT")]
MUTATIONS = ([(c, m) for c in TIMESTAMP_COLUMNS for m in TIMESTAMP_MUTATIONS]
             + [(c, m) for c in NUMBER_COLUMNS for m in NUMBER_MUTATIONS]
             + [(c, m) for c in TEXT_COLUMNS for m in TEXT_MUTATIONS])
ARRIVAL_TIME = AIS_HEADER.index("ARRIVAL_TIME")


def _oracle_parse(rows: list[list[str]], labeled: bool) -> tuple[list, list]:
    records, errors = [], []
    for line, fields in enumerate(rows, start=2):
        try:
            records.append(oracle_parse_row(fields, labeled))
        except ValueError as exc:
            errors.append(RowError(line, str(exc)))
    return records, errors


@pytest.mark.parametrize("labeled", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_parse_matches_oracle_fuzz(canonical_records, seed, labeled):
    rng = np.random.default_rng(seed)
    base = records_to_csv(canonical_records).splitlines()[1:]
    canonical = [base[i].split(",") for i in rng.choice(len(base), size=600, replace=False)]
    rows = [list(fields) for fields in canonical]
    if not labeled:
        for fields in rows:
            fields[-2:] = ["", ""]

    # every mutation at least once, then random ones; a row may take several
    picks = list(range(len(MUTATIONS))) + list(rng.integers(0, len(MUTATIONS), size=150))
    for k in picks:
        column, mutate = MUTATIONS[k]
        i = int(rng.integers(0, len(rows)))
        rows[i][column] = mutate(canonical[i][column], rng)
    # one bad arrival string on several rows: each row that reaches it reports it
    bad_arrival = "2018-02-30T12:00:00"
    for i in rng.choice(len(rows), size=8, replace=False):
        rows[i][ARRIVAL_TIME] = bad_arrival

    text = HEADER + "\n" + "\n".join(",".join(f) for f in rows) + "\n"
    records, errors = parse_ais_csv(text, labeled=labeled)
    expected_records, expected_errors = _oracle_parse(rows, labeled)
    assert records == expected_records
    assert errors == expected_errors
    # both outcomes are well exercised
    assert len(errors) >= 100 and len(records) >= 400
    if labeled:
        assert sum(bad_arrival in e.reason for e in errors) >= 2


# characters the sweep below inserts and replaces: the date-time's own, a
# lowercase t, whitespace, the starts of fractions and zone suffixes, and two
# non-ASCII digits (Arabic-Indic three, fullwidth zero)
SWEEP_CHARS = list("0123456789-:Tt \t.Z+") + ["\u0663", "\uff10"]


def _outcome(parse, text: str) -> int | str:
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def test_parse_timestamp_matches_oracle_character_sweep():
    rng = np.random.default_rng(7)
    n, edits = 30_000, 4
    epochs = rng.integers(EPOCH_MIN, EPOCH_MAX, size=n, endpoint=True)
    n_edits = rng.integers(0, edits + 1, size=n)
    ops = rng.integers(0, 3, size=(n, edits))  # insert, replace, delete
    where = rng.random((n, edits))
    picks = rng.integers(0, len(SWEEP_CHARS), size=(n, edits))
    outcomes = {}
    for k in range(n):
        chars = list(format_timestamp(int(epochs[k])))
        for op, at, pick in zip(ops[k, :n_edits[k]], where[k], picks[k]):
            i, char = int(at * (len(chars) + 1)), SWEEP_CHARS[pick]
            if op == 0:
                chars.insert(i, char)
            else:
                chars[i:i + 1] = [char] if op == 1 else []
        text = "".join(chars)
        outcomes[text.strip()] = got = _outcome(parse_timestamp, text)
        assert got == _outcome(oracle_parse_timestamp, text), text
    accepted = [text for text, got in outcomes.items() if isinstance(got, int)]
    assert len(accepted) >= 3000 and len(outcomes) - len(accepted) >= 3000
    assert any("t" in text for text in accepted)
    assert any(re.search(r"- [1-9][Tt]", text) for text in accepted)  # space-padded day
    # a non-ASCII second digit of a month, day, hour, minute or second field
    assert any(re.search("[-Tt:][0-9][\u0663\uff10]", text) for text in accepted)
