"""CSV ingestion: schema, row errors, timestamp formats, round-trips."""

import pytest

from portcall.ingest import (
    AIS_HEADER,
    AisFormatError,
    format_timestamp,
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


def test_format_timestamp_round_trip():
    for epoch in (0, 86400, 1519898400, 2000000000):
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
