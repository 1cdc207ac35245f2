"""CSV ingestion for soil, weather and crop files.

Each parser reads one documented schema, validates every row, and splits
the input into accepted records plus a rejection log. Row-level problems
(bad numbers, invalid categories, duplicates, range violations) never
abort a run; only structural problems with the file itself (missing file,
wrong header) raise.

Schemas:
    soil.csv    zone_id,test_year,p_mg_l,k_mg_l,mg_mg_l,ph,soil_type,stone_content,organic_matter,caco3
    weather.csv zone_id,date,t_min_c,t_max_c,precip_mm,solar_mj_m2,humidity_pct
    crop.csv    zone_id,year,crop,sowing_date,harvest_date,yield_t_ha

Dates are YYYY-MM-DD; other ISO-8601 spellings are rejected rows on every
Python version. Duplicates resolve keep-first in file order. Crop rows
whose crop column is not winter_wheat (case-insensitive) are logged as
filtered, which is distinct from rejected.

The ``write_*_csv`` functions emit the same schemas with floats as their
shortest round-trip text; they are the only CSV writers for these files,
so the generator's output and a cleaned copy of it are byte-identical.
"""

from __future__ import annotations

import csv
import re
from array import array
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from .domain import (
    CropRecord,
    OrdinalSpec,
    SoilRecord,
    ValidationRanges,
    DEFAULT_RANGES,
    WEATHER_DTYPE,
    WEATHER_FIELDS,
    validate,
    weather_rejections,
)

SOIL_HEADER = [
    "zone_id",
    "test_year",
    "p_mg_l",
    "k_mg_l",
    "mg_mg_l",
    "ph",
    "soil_type",
    "stone_content",
    "organic_matter",
    "caco3",
]
WEATHER_HEADER = [
    "zone_id",
    "date",
    "t_min_c",
    "t_max_c",
    "precip_mm",
    "solar_mj_m2",
    "humidity_pct",
]
CROP_HEADER = ["zone_id", "year", "crop", "sowing_date", "harvest_date", "yield_t_ha"]

REJECTION_LOG_HEADER = ["source", "line", "reason"]

WINTER_WHEAT = "winter_wheat"


class SchemaError(ValueError):
    """File-level problem: missing file or header not matching the schema."""


_ISO_DATE = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII)


def parse_date(text: str) -> date:
    """Parse exactly YYYY-MM-DD. ``date.fromisoformat`` also takes ``20121024``
    or ``2012-W43-3`` from Python 3.11 on; here they fail, with its message."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return date.fromisoformat(text)


@dataclass(frozen=True)
class LogEntry:
    source: str
    line: int
    reason: str


@dataclass
class RejectionLog:
    """Per-file record of every input line that did not become a record."""

    entries: list[LogEntry] = field(default_factory=list)

    def add(self, source: str, line: int, reason: str) -> None:
        self.entries.append(LogEntry(source, line, reason))

    def extend(self, other: "RejectionLog") -> None:
        self.entries.extend(other.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REJECTION_LOG_HEADER)
            for entry in self.entries:
                writer.writerow([entry.source, entry.line, entry.reason])


def _open_rows(path: str | Path, expected_header: list[str]):
    """Yield (line_number, row) for the data rows of a schema'd CSV."""
    path = Path(path)
    if not path.is_file():
        raise SchemaError(f"input file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected header") from None
        if [h.strip() for h in header] != expected_header:
            raise SchemaError(
                f"{path}: header {header!r} does not match expected {expected_header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            yield lineno, row


def _parse_records(path, header, make, key, what, ranges, ordinals=None):
    """The records ``make(row)`` builds from a schema'd CSV, in input order,
    and the rejection log. A row is rejected for the first of: a wrong
    field count; a reason ``make`` returns instead of parsing; a value it
    cannot parse; a failed :func:`validate`; a ``key`` already taken (the
    first valid row of a key wins), logged as a duplicate ``what``.
    """
    source = str(path)
    log = RejectionLog()
    records = []
    seen = set()
    for lineno, row in _open_rows(path, header):
        if len(row) != len(header):
            log.add(source, lineno, f"expected {len(header)} fields, got {len(row)}")
            continue
        try:
            record = make(row)
        except ValueError as exc:
            log.add(source, lineno, f"unparseable value: {exc}")
            continue
        bad = record if isinstance(record, str) else validate(record, ranges, ordinals)
        if bad is not None:
            log.add(source, lineno, str(bad))
            continue
        k = key(record)
        if k in seen:
            log.add(source, lineno, f"duplicate {what} for zone {k[0]} year {k[1]}")
            continue
        seen.add(k)
        records.append(record)
    return records, log


def parse_soil(
    path: str | Path,
    ranges: ValidationRanges = DEFAULT_RANGES,
    ordinals: OrdinalSpec | None = None,
) -> tuple[list[SoilRecord], RejectionLog]:
    """Parse soil.csv into validated records plus a rejection log.

    Output order is input order. Duplicate (zone_id, test_year) keeps the
    first occurrence; later ones are rejected.
    """

    def make(row: list[str]) -> SoilRecord:
        return SoilRecord(
            zone_id=row[0],
            test_year=int(row[1]),
            p=float(row[2]),
            k=float(row[3]),
            mg=float(row[4]),
            ph=float(row[5]),
            soil_type=row[6],
            stone_content=row[7],
            organic_matter=row[8],
            caco3=row[9],
        )

    return _parse_records(
        path, SOIL_HEADER, make, lambda r: (r.zone_id, r.test_year), "soil test", ranges, ordinals
    )


def parse_weather(
    path: str | Path, ranges: ValidationRanges = DEFAULT_RANGES
) -> tuple[np.ndarray, RejectionLog]:
    """Parse weather.csv into one ``WEATHER_DTYPE`` array of the accepted rows
    (input order) and a rejection log (line order).

    Rows are parsed one by one into typed columns; the range checks and the
    first-valid-wins (zone_id, date) duplicate search then run on whole columns.
    """
    entries: list[tuple[int, str]] = []
    lines, codes, days, values = array("q"), array("q"), array("q"), array("d")
    zones: dict[str, int] = {}
    day_of: dict[str, int] = {}  # date text -> ordinal: each date recurs once per zone
    for lineno, row in _open_rows(path, WEATHER_HEADER):
        if len(row) != len(WEATHER_HEADER):
            entries.append((lineno, f"expected {len(WEATHER_HEADER)} fields, got {len(row)}"))
            continue
        try:
            day = day_of.get(row[1]) or day_of.setdefault(row[1], parse_date(row[1]).toordinal())
            parsed = list(map(float, row[2:]))
        except ValueError as exc:
            entries.append((lineno, f"unparseable value: {exc}"))
            continue
        lines.append(lineno)
        codes.append(zones.setdefault(row[0], len(zones)))
        days.append(day)
        values.extend(parsed)

    table = np.empty(len(lines), WEATHER_DTYPE)
    zone_code = np.frombuffer(codes, np.int64)
    table["zone_id"] = np.array(list(zones), dtype=object)[zone_code]
    table["day"] = days
    columns = np.frombuffer(values).reshape(-1, len(WEATHER_FIELDS)).T
    for name, column in zip(WEATHER_FIELDS, columns):
        table[name] = column
    rejected = weather_rejections(table, ranges)
    entries += [(lines[i], str(bad)) for i, bad in rejected.items()]
    valid = np.ones(len(table), bool)
    valid[list(rejected)] = False
    rows = np.flatnonzero(valid)
    key = (zone_code[rows] << 32) | table["day"][rows]
    first = np.zeros(len(table), bool)
    # return_index takes numpy's sort path; a plain np.unique (and so
    # np.setdiff1d) hashes from numpy 2.3 on: 0.45 s against 0.01 s on the
    # 524k keys of a default-scale file
    first[rows[np.unique(key, return_index=True)[1]]] = True
    for i in np.flatnonzero(valid & ~first).tolist():
        zone, day = table[i].item()[:2]
        entries.append((lines[i], f"duplicate weather for zone {zone} on {date.fromordinal(day)}"))
    log = RejectionLog([LogEntry(str(path), line, reason) for line, reason in sorted(entries)])
    return table[first], log


def parse_crop(
    path: str | Path, ranges: ValidationRanges = DEFAULT_RANGES
) -> tuple[list[CropRecord], RejectionLog]:
    """Parse crop.csv, keeping only winter wheat rows.

    Non-wheat rows are logged with a "filtered" reason so they can be told
    apart from genuinely bad rows. Duplicate (zone_id, year) keeps the
    first occurrence.
    """

    def make(row: list[str]) -> CropRecord | str:
        if row[2].strip().lower() != WINTER_WHEAT:
            return f"filtered: crop={row[2]!r}"
        return CropRecord(
            zone_id=row[0],
            year=int(row[1]),
            sowing_date=parse_date(row[3]),
            harvest_date=parse_date(row[4]),
            yield_t_ha=float(row[5]),
        )

    return _parse_records(path, CROP_HEADER, make, lambda r: (r.zone_id, r.year), "yield", ranges)


def write_soil_csv(records: list[SoilRecord], path: str | Path) -> None:
    """Re-emit soil records in schema format, losslessly (shortest
    round-trip float representation)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SOIL_HEADER)
        for r in records:
            writer.writerow(
                [r.zone_id, r.test_year, repr(r.p), repr(r.k), repr(r.mg), repr(r.ph),
                 r.soil_type, r.stone_content, r.organic_matter, r.caco3]
            )


def _texts(column: np.ndarray, text) -> list[str]:
    """``text(value)`` for every cell of a 64-bit numeric column, called once
    per distinct bit pattern, so -0.0 and 0.0 keep their own texts."""
    distinct, inverse = np.unique(column.view(np.int64), return_inverse=True)
    texts = np.array([text(v) for v in distinct.view(column.dtype).tolist()], dtype=object)
    return texts[inverse].tolist()


def write_weather_csv(table: np.ndarray, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(WEATHER_HEADER)
        # a chunk at a time, so that the text columns stay small
        for start in range(0, len(table), 65536):
            rows = table[start:start + 65536]
            writer.writerows(zip(
                rows["zone_id"].tolist(),
                _texts(rows["day"], lambda day: date.fromordinal(day).isoformat()),
                *(_texts(rows[name], repr) for name in WEATHER_FIELDS),
            ))


def write_crop_csv(records: list[CropRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CROP_HEADER)
        for r in records:
            writer.writerow(
                [r.zone_id, r.year, WINTER_WHEAT, r.sowing_date.isoformat(),
                 r.harvest_date.isoformat(), repr(r.yield_t_ha)]
            )


def carry_forward_soil(
    records: list[SoilRecord], zone_id: str, year: int
) -> SoilRecord | None:
    """Most recent soil test for ``zone_id`` with test_year <= ``year``.

    Returns ``None`` when the zone has no test at or before that year.
    Ties on test_year cannot occur after dedup.
    """
    best: SoilRecord | None = None
    for record in records:
        if record.zone_id != zone_id or record.test_year > year:
            continue
        if best is None or record.test_year > best.test_year:
            best = record
    return best
