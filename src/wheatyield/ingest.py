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

Dates are ISO-8601 (YYYY-MM-DD). Duplicates resolve keep-first in file
order. Crop rows whose crop column is not winter_wheat (case-insensitive)
are logged as filtered, which is distinct from rejected.

The ``write_*_csv`` functions emit the same schemas with floats as their
shortest round-trip text; they are the only CSV writers for these files,
so the generator's output and a cleaned copy of it are byte-identical.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from .domain import (
    CropRecord,
    OrdinalSpec,
    SoilRecord,
    ValidationRanges,
    DEFAULT_RANGES,
    WeatherDaily,
    validate,
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


def parse_soil(
    path: str | Path,
    ranges: ValidationRanges = DEFAULT_RANGES,
    ordinals: OrdinalSpec | None = None,
) -> tuple[list[SoilRecord], RejectionLog]:
    """Parse soil.csv into validated records plus a rejection log.

    Output order is input order. Duplicate (zone_id, test_year) keeps the
    first occurrence; later ones are rejected.
    """
    source = str(path)
    log = RejectionLog()
    records: list[SoilRecord] = []
    seen: set[tuple[str, int]] = set()
    for lineno, row in _open_rows(path, SOIL_HEADER):
        if len(row) != len(SOIL_HEADER):
            log.add(source, lineno, f"expected {len(SOIL_HEADER)} fields, got {len(row)}")
            continue
        try:
            record = SoilRecord(
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
        except ValueError as exc:
            log.add(source, lineno, f"unparseable value: {exc}")
            continue
        bad = validate(record, ranges, ordinals)
        if bad is not None:
            log.add(source, lineno, str(bad))
            continue
        key = (record.zone_id, record.test_year)
        if key in seen:
            log.add(source, lineno, f"duplicate soil test for zone {key[0]} year {key[1]}")
            continue
        seen.add(key)
        records.append(record)
    return records, log


def parse_weather(
    path: str | Path, ranges: ValidationRanges = DEFAULT_RANGES
) -> tuple[list[WeatherDaily], RejectionLog]:
    """Parse weather.csv; analogous to :func:`parse_soil`.

    Duplicate (zone_id, date) keeps the first occurrence.
    """
    source = str(path)
    log = RejectionLog()
    records: list[WeatherDaily] = []
    seen: set[tuple[str, date]] = set()
    for lineno, row in _open_rows(path, WEATHER_HEADER):
        if len(row) != len(WEATHER_HEADER):
            log.add(source, lineno, f"expected {len(WEATHER_HEADER)} fields, got {len(row)}")
            continue
        try:
            record = WeatherDaily(
                zone_id=row[0],
                date=date.fromisoformat(row[1]),
                t_min=float(row[2]),
                t_max=float(row[3]),
                precip=float(row[4]),
                solar=float(row[5]),
                humidity=float(row[6]),
            )
        except ValueError as exc:
            log.add(source, lineno, f"unparseable value: {exc}")
            continue
        bad = validate(record, ranges)
        if bad is not None:
            log.add(source, lineno, str(bad))
            continue
        key = (record.zone_id, record.date)
        if key in seen:
            log.add(source, lineno, f"duplicate weather for zone {key[0]} on {key[1]}")
            continue
        seen.add(key)
        records.append(record)
    return records, log


def parse_crop(
    path: str | Path, ranges: ValidationRanges = DEFAULT_RANGES
) -> tuple[list[CropRecord], RejectionLog]:
    """Parse crop.csv, keeping only winter wheat rows.

    Non-wheat rows are logged with a "filtered" reason so they can be told
    apart from genuinely bad rows. Duplicate (zone_id, year) keeps the
    first occurrence.
    """
    source = str(path)
    log = RejectionLog()
    records: list[CropRecord] = []
    seen: set[tuple[str, int]] = set()
    for lineno, row in _open_rows(path, CROP_HEADER):
        if len(row) != len(CROP_HEADER):
            log.add(source, lineno, f"expected {len(CROP_HEADER)} fields, got {len(row)}")
            continue
        crop = row[2].strip().lower()
        if crop != WINTER_WHEAT:
            log.add(source, lineno, f"filtered: crop={row[2]!r}")
            continue
        try:
            record = CropRecord(
                zone_id=row[0],
                year=int(row[1]),
                sowing_date=date.fromisoformat(row[3]),
                harvest_date=date.fromisoformat(row[4]),
                yield_t_ha=float(row[5]),
            )
        except ValueError as exc:
            log.add(source, lineno, f"unparseable value: {exc}")
            continue
        bad = validate(record, ranges)
        if bad is not None:
            log.add(source, lineno, str(bad))
            continue
        key = (record.zone_id, record.year)
        if key in seen:
            log.add(source, lineno, f"duplicate yield for zone {key[0]} year {key[1]}")
            continue
        seen.add(key)
        records.append(record)
    return records, log


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


def write_weather_csv(records: list[WeatherDaily], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(WEATHER_HEADER)
        for r in records:
            writer.writerow(
                [r.zone_id, r.date.isoformat(), repr(r.t_min), repr(r.t_max),
                 repr(r.precip), repr(r.solar), repr(r.humidity)]
            )


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
