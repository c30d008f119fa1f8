"""AIS CSV parsing and serialization.

File format (comma-separated, one header line):

    SHIP_ID,SHIPTYPE,SPEED,LON,LAT,COURSE,HEADING,TIMESTAMP,DEPARTURE_PORT_NAME,REPORTED_DRAUGHT,ARRIVAL_TIME,ARRIVAL_PORT

Training ("labeled") files carry ARRIVAL_TIME and ARRIVAL_PORT; query files
use the same header with those two columns empty. Timestamps are either
``YYYY-MM-DDTHH:MM:SS`` (UTC assumed) or integer epoch seconds. A heading of
511 means "unavailable" per the AIS standard and is mapped to missing.
Every numeric field must be finite: ``nan`` and ``inf`` are rejected.
Malformed rows are collected as RowError values, never silently dropped.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import datetime, timezone
from math import isfinite
from typing import IO, Iterable

from .geo import normalize_lon

AIS_HEADER = [
    "SHIP_ID",
    "SHIPTYPE",
    "SPEED",
    "LON",
    "LAT",
    "COURSE",
    "HEADING",
    "TIMESTAMP",
    "DEPARTURE_PORT_NAME",
    "REPORTED_DRAUGHT",
    "ARRIVAL_TIME",
    "ARRIVAL_PORT",
]

HEADING_UNAVAILABLE = 511


class AisFormatError(ValueError):
    """Fatal file-level format problem (missing or wrong header)."""


@dataclass(frozen=True)
class RowError:
    """One rejected data row: physical line number plus the reason."""

    line: int
    reason: str


@dataclass(frozen=True)
class AisRecord:
    """One parsed AIS message. Timestamps are UTC epoch seconds."""

    ship_id: str
    ship_type: int
    speed_knots: float
    lon_deg: float
    lat_deg: float
    course_deg: float | None
    heading_deg: float | None
    timestamp: int
    departure_port: str
    draught: float | None
    arrival_time: int | None = None
    arrival_port: str | None = None


def parse_timestamp(text: str) -> int:
    """Parse ``YYYY-MM-DDTHH:MM:SS`` (UTC) or an epoch-seconds literal."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        dt = datetime.strptime(text, "%Y-%m-%dT%H:%M:%S")
    except ValueError:
        raise ValueError(f"unparseable timestamp: {text!r}") from None
    return int(dt.replace(tzinfo=timezone.utc).timestamp())


def format_timestamp(epoch_s: int) -> str:
    """Inverse of parse_timestamp; canonical ISO-8601 without zone suffix."""
    return datetime.fromtimestamp(epoch_s, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")


def _float(field: str, name: str) -> float:
    value = float(field)
    if not isfinite(value):
        raise ValueError(f"{name} is not finite")
    return value


def _opt_float(field: str, name: str, minimum: float | None = None) -> float | None:
    if field == "":
        return None
    value = _float(field, name)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return value


def _parse_row(fields: list[str], labeled: bool) -> AisRecord:

    (ship_id, ship_type, speed, lon, lat, course, heading, timestamp,
     departure_port, draught, arrival_time, arrival_port) = (f.strip() for f in fields)

    if not ship_id:
        raise ValueError("empty ship id")
    ship_type_i = int(ship_type)
    speed_f = _float(speed, "speed")
    if speed_f < 0:
        raise ValueError("negative speed")
    lat_f = _float(lat, "latitude")
    if not -90.0 <= lat_f <= 90.0:
        raise ValueError("latitude out of range")
    lon_f = normalize_lon(_float(lon, "longitude"))

    course_f = _opt_float(course, "course")
    if course_f is not None and not 0.0 <= course_f < 360.0:
        raise ValueError("course out of range")
    heading_f = _opt_float(heading, "heading")
    if heading_f is not None and heading_f == HEADING_UNAVAILABLE:
        heading_f = None
    if heading_f is not None and not 0.0 <= heading_f < 360.0:
        raise ValueError("heading out of range")

    ts = parse_timestamp(timestamp)
    if not departure_port:
        raise ValueError("empty departure port")
    draught_f = _opt_float(draught, "draught", minimum=0.0)

    if labeled:
        if not arrival_time or not arrival_port:
            raise ValueError("labeled row missing arrival time or port")
        arrival_ts: int | None = parse_timestamp(arrival_time)
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


def parse_ais_csv(stream: str | IO[str], labeled: bool) -> tuple[list[AisRecord], list[RowError]]:
    """Parse an AIS CSV stream into records plus per-row errors.

    Args:
        stream: CSV text, or a text-mode file object.
        labeled: whether rows must carry arrival time and port.

    Returns:
        (records, row_errors); len(records) + len(row_errors) equals the
        number of data rows, and record order follows the file.

    Raises:
        AisFormatError: the header line is missing or has the wrong columns.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise AisFormatError("empty input: missing header") from None
    if [h.strip() for h in header] != AIS_HEADER:
        raise AisFormatError(f"unexpected header {header!r}; expected {AIS_HEADER!r}")

    records: list[AisRecord] = []
    errors: list[RowError] = []
    for line_no, fields in enumerate(reader, start=2):
        if not fields:
            continue
        if len(fields) != len(AIS_HEADER):
            errors.append(RowError(line_no, f"expected {len(AIS_HEADER)} fields, got {len(fields)}"))
            continue
        if any("," in f for f in fields):
            errors.append(RowError(line_no, "field contains a comma"))
            continue
        try:
            records.append(_parse_row(fields, labeled))
        except ValueError as exc:
            errors.append(RowError(line_no, str(exc)))
    return records, errors


def load_ais_csv(path: str, labeled: bool) -> tuple[list[AisRecord], list[RowError]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_ais_csv(fh, labeled)


def _fmt_opt(value: float | int | None) -> str:
    # float() strips numpy scalar types whose repr is not a bare literal
    return "" if value is None else repr(float(value))


def record_to_fields(rec: AisRecord) -> list[str]:
    return [
        rec.ship_id,
        str(rec.ship_type),
        repr(float(rec.speed_knots)),
        repr(float(rec.lon_deg)),
        repr(float(rec.lat_deg)),
        _fmt_opt(rec.course_deg),
        _fmt_opt(rec.heading_deg),
        format_timestamp(rec.timestamp),
        rec.departure_port,
        _fmt_opt(rec.draught),
        "" if rec.arrival_time is None else format_timestamp(rec.arrival_time),
        rec.arrival_port or "",
    ]


def records_to_csv(records: Iterable[AisRecord]) -> str:
    """Serialize records back to the canonical CSV text (round-trippable)."""
    lines = [",".join(AIS_HEADER)]
    lines.extend(",".join(record_to_fields(r)) for r in records)
    return "\n".join(lines) + "\n"
