"""AIS CSV parsing and serialization.

File format (comma-separated, one header line):

    SHIP_ID,SHIPTYPE,SPEED,LON,LAT,COURSE,HEADING,TIMESTAMP,DEPARTURE_PORT_NAME,REPORTED_DRAUGHT,ARRIVAL_TIME,ARRIVAL_PORT

Training ("labeled") files carry ARRIVAL_TIME and ARRIVAL_PORT; query files
use the same header with those two columns empty. Timestamps are UTC:
``YYYY-MM-DDTHH:MM:SS`` with each field but the year zero-padded or not
(``2018-1-1T1:2:3``), as Python's ``datetime`` reads ``%Y-%m-%dT%H:%M:%S``,
or an integer epoch-seconds literal as ``int()`` reads it (``+86400``,
``1_000``) that falls in years 1-9999, the range ``format_timestamp`` prints.
Near-ISO forms are rejected: fractions, a space for the ``T``, zone
suffixes, ``20180101T000000`` and out-of-range fields (``T24:00:00``).
A heading of 511 means "unavailable" per the AIS standard and is mapped to
missing. Every numeric field must be finite: ``nan`` and ``inf`` are
rejected. A field that contains a comma or a line break is a row error, and
so is a row the CSV reader cannot read: a field over ``csv.field_size_limit()``,
or text after a closing quote (``"abc"def``).
Malformed rows are collected as RowError values, never silently dropped.
A leading UTF-8 byte-order mark is dropped, from a file or a text.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, islice
from math import isfinite
from typing import IO, Iterable, NamedTuple

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


class AisRecord(NamedTuple):
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


# The format "%Y-%m-%dT%H:%M:%S" as CPython's datetime parser reads it: its
# TimeRE field patterns, verbatim, and [Tt] as that parser ignores case. \d is
# any Unicode digit, so "[0-5]\d" takes a non-ASCII second digit, not a first.
_DATE_TIME = re.compile(r"(\d\d\d\d)-(1[0-2]|0[1-9]|[1-9])-(3[0-1]|[1-2]\d|0[1-9]|[1-9]| [1-9])"
                        r"[Tt](2[0-3]|[0-1]\d|\d):([0-5]\d|\d):(6[0-1]|[0-5]\d|\d)")

# the epochs of 0001-01-01T00:00:00 and 9999-12-31T23:59:59, the range
# format_timestamp can print; a date-time cannot leave it
EPOCH_MIN, EPOCH_MAX = -62135596800, 253402300799

# one line as a file opened with newline="" reads it: up to and including its
# \r\n, \r or \n, or an unterminated last line; no other character ends one
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


def parse_timestamp(text: str) -> int:
    """Parse ``YYYY-MM-DDTHH:MM:SS`` (UTC) or an epoch-seconds literal.

    The date-time follows ``_DATE_TIME``, padded or not (``2018-1-1T1:2:3``),
    and must name a real date and time: no ``02-30``, no second 60. The
    literal is anything ``int()`` reads that falls in years 1-9999.
    """
    return _timestamp(text.strip(), {})


def _timestamp(text: str, days: dict[tuple[str, str, str], int]) -> int:
    """``parse_timestamp`` of stripped ``text``; ``days`` maps the (year, month,
    day) strings of each date read so far to its midnight epoch."""
    # every date-time holds a T or t, and no int() literal can
    if "T" in text or "t" in text:
        match = _DATE_TIME.fullmatch(text)
        if match:
            year, month, day, hour, minute, second = match.groups()
            date = year, month, day
            midnight = days.get(date)
            try:
                if midnight is None:
                    # a date that fails raises before it is stored: each of its rows reports it
                    midnight = days[date] = int(datetime(
                        int(year), int(month), int(day), tzinfo=timezone.utc).timestamp())
                seconds = int(second)
                if seconds > 59:  # the pattern takes 60 and 61, datetime does not
                    raise ValueError
            except ValueError:
                raise ValueError(f"unparseable timestamp: {text!r}") from None
            return midnight + int(hour) * 3600 + int(minute) * 60 + seconds
    try:
        epoch = int(text)
    except ValueError:
        raise ValueError(f"unparseable timestamp: {text!r}") from None
    if not EPOCH_MIN <= epoch <= EPOCH_MAX:
        raise ValueError("timestamp out of range")
    return epoch


def format_timestamp(epoch_s: int) -> str:
    """Inverse of parse_timestamp; canonical ISO-8601 without zone suffix.
    Raises ValueError outside years 1-9999, the range parse_timestamp accepts."""
    if not EPOCH_MIN <= epoch_s <= EPOCH_MAX:
        raise ValueError("timestamp out of range")
    # isoformat zero-pads years before 1000, which strftime's %Y does not with glibc
    dt = datetime.fromtimestamp(epoch_s, tz=timezone.utc).replace(tzinfo=None)
    return dt.isoformat(timespec="seconds")


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


def _parse_row(fields: list[str], labeled: bool, names: dict[str, str],
               days: dict[tuple[str, str, str], int], arrivals: dict[str, int]) -> AisRecord:
    """One data row to a record. The tables last one parse: ``names`` holds one
    object per ship id and upper-cased port name, ``days`` each date's midnight
    epoch and ``arrivals`` each arrival time string's epoch."""
    if len(fields) != len(AIS_HEADER):
        raise ValueError(f"expected {len(AIS_HEADER)} fields, got {len(fields)}")
    joined = "".join(fields)
    if "," in joined:
        raise ValueError("field contains a comma")
    if "\n" in joined or "\r" in joined:
        raise ValueError("field contains a line break")
    (ship_id, ship_type, speed, lon, lat, course, heading, timestamp,
     departure_port, draught, arrival_time, arrival_port) = map(str.strip, fields)

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

    ts = _timestamp(timestamp, days)
    if not departure_port:
        raise ValueError("empty departure port")
    draught_f = _opt_float(draught, "draught", minimum=0.0)

    if labeled:
        if not arrival_time or not arrival_port:
            raise ValueError("labeled row missing arrival time or port")
        arrival_ts: int | None = arrivals.get(arrival_time)
        if arrival_ts is None:
            # a string that fails raises before it is stored: each of its rows reports it
            arrival_ts = arrivals[arrival_time] = _timestamp(arrival_time, days)
        if arrival_ts < ts:
            raise ValueError("arrival time before timestamp")
        arrival_p: str | None = arrival_port.upper()
        arrival_p = names.setdefault(arrival_p, arrival_p)
    else:
        if arrival_time or arrival_port:
            raise ValueError("unlabeled row carries arrival fields")
        arrival_ts = None
        arrival_p = None

    departure_p = departure_port.upper()
    return AisRecord(names.setdefault(ship_id, ship_id), ship_type_i, speed_f, lon_f, lat_f,
                     course_f, heading_f, ts, names.setdefault(departure_p, departure_p),
                     draught_f, arrival_ts, arrival_p)


def parse_ais_csv(stream: str | IO[str], labeled: bool) -> tuple[list[AisRecord], list[RowError]]:
    """Parse an AIS CSV stream into records plus per-row errors.

    Text is read in place: one line at a time is cut from it, ending where a
    file opened with ``newline=""`` ends its lines (``\\r\\n``, ``\\r`` or
    ``\\n``), so text and file input with the same characters give the same
    rows, errors and line numbers. One leading byte-order mark is dropped.
    Each record is an immutable tuple; within one call every equal ship id
    and port name is one ``str`` object, and each date's midnight epoch is
    computed once. Every check applies to each row as it is read.

    Args:
        stream: CSV text, or a text-mode file object.
        labeled: whether rows must carry arrival time and port.

    Returns:
        (records, row_errors); len(records) + len(row_errors) equals the
        number of data rows, and record order follows the file.

    Raises:
        AisFormatError: the header line is missing, unreadable or has the
            wrong columns.
    """
    # no copy of the text: lines are cut one at a time
    lines = (map(re.Match.group, _LINE.finditer(stream)) if isinstance(stream, str)
             else iter(stream))
    # the first line loses one byte-order mark, and is gone if that was all of it
    first = [line.removeprefix("\ufeff") for line in islice(lines, 1)]
    # strict: text after a closing quote is an error, not joined onto the field
    reader = csv.reader(chain(filter(None, first), lines), strict=True)
    try:
        header = next(reader)
    except StopIteration:
        raise AisFormatError("empty input: missing header") from None
    except csv.Error as exc:
        raise AisFormatError(f"unreadable header: {exc}") from exc
    if [h.strip() for h in header] != AIS_HEADER:
        raise AisFormatError(f"unexpected header {header!r}; expected {AIS_HEADER!r}")

    records: list[AisRecord] = []
    errors: list[RowError] = []
    names: dict[str, str] = {}
    days: dict[tuple[str, str, str], int] = {}
    arrivals: dict[str, int] = {}
    while True:
        # a quoted field may span lines: a row starts on the line after the last one read
        line_no = reader.line_num + 1
        try:
            fields = next(reader, None)
            if fields is None:
                break
            if fields:
                records.append(_parse_row(fields, labeled, names, days, arrivals))
        except UnicodeDecodeError:
            raise  # a file that is not UTF-8 is fatal, wherever the bad byte sits
        except (csv.Error, ValueError) as exc:
            # the reader carries on with the next line after a csv.Error
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
