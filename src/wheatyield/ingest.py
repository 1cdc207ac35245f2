"""CSV ingestion for soil, weather and crop files.

Each parser reads one documented schema, validates every row, and splits
the input into accepted records plus a rejection log. Row-level problems
(bad numbers, invalid categories, duplicates, range violations) never
abort a run; only structural problems with the file itself (missing or
undecodable file, wrong header, a field ``csv.reader`` refuses) raise.

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
import locale
import re
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
    Weather,
    validate,
    weather_rejections,
    zone_day_key,
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
    """File-level problem: a missing or undecodable file, a header not
    matching the schema, or text ``csv.reader`` refuses."""


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

    def __len__(self) -> int:
        return len(self.entries)

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REJECTION_LOG_HEADER)
            for entry in self.entries:
                writer.writerow([entry.source, entry.line, entry.reason])


def _decode_error(path: Path, exc: UnicodeDecodeError, offset: int = 0) -> SchemaError:
    return SchemaError(f"{path}: byte 0x{exc.object[exc.start]:02x} at offset "
                       f"{offset + exc.start} is not {exc.encoding} text")


def _check_header(path: Path, header: list[str], expected_header: list[str]) -> None:
    if [h.strip() for h in header] != expected_header:
        raise SchemaError(
            f"{path}: header {header!r} does not match expected {expected_header!r}"
        )


def _open_rows(path: str | Path, expected_header: list[str]):
    """Yield (line_number, row) for the data rows of a schema'd CSV."""
    path = Path(path)
    if not path.is_file():
        raise SchemaError(f"input file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"{path}: empty file, expected header") from None
            _check_header(path, header, expected_header)
            yield from enumerate(reader, start=2)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise SchemaError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            # the stream's error offset is within one read, so find the file's
            try:
                path.read_bytes().decode(fh.encoding)
            except UnicodeDecodeError as exc:
                raise _decode_error(path, exc) from None
            raise


def _parse_records(path, header, make, key, what, ranges, ordinals=None):
    """The records ``make(row)`` builds from a schema'd CSV, in input order,
    and the rejection log. A row is rejected for the first of: a wrong
    field count; a reason ``make`` returns instead of parsing; a value it
    cannot parse; a failed :func:`validate`; a ``key`` already taken (the
    first valid row of a key wins), logged as a duplicate ``what``.
    """
    entries: list[tuple[int, str]] = []
    records = []
    seen = set()
    for lineno, row in _open_rows(path, header):
        if len(row) != len(header):
            entries.append((lineno, f"expected {len(header)} fields, got {len(row)}"))
            continue
        try:
            record = make(row)
        except ValueError as exc:
            entries.append((lineno, f"unparseable value: {exc}"))
            continue
        bad = record if isinstance(record, str) else validate(record, ranges, ordinals)
        if bad is not None:
            entries.append((lineno, str(bad)))
            continue
        k = key(record)
        if k in seen:
            entries.append((lineno, f"duplicate {what} for zone {k[0]} year {k[1]}"))
            continue
        seen.add(k)
        records.append(record)
    return records, RejectionLog([LogEntry(str(path), line, reason) for line, reason in entries])


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


_BLOCK = 1 << 20  # bytes read at a time from weather.csv
_ROWS = 1 << 16  # sorted weather keys compared at a time

# _MASK[k] keeps the first k bytes of a little-endian 8-byte word
_MASK = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
_SHORT = 15  # longest field text packed into two words beside its length


def _weather_rows(path: Path, table: np.ndarray):
    """The row loop: ``csv.reader`` rows parsed one by one into ``table``, a
    row per record. Returns the number of records, the zone ids by code and,
    by row, the reason of every row that does not parse."""
    failed: dict[int, str] = {}
    zones: dict[str, int] = {}
    day_of: dict[str, int] = {}  # date text -> ordinal: each date recurs once per zone
    width, i = len(WEATHER_HEADER), -1
    for i, (_, row) in enumerate(_open_rows(path, WEATHER_HEADER)):
        if len(row) != width:
            failed[i] = f"expected {width} fields, got {len(row)}"
            continue
        zone = zones.setdefault(row[0], len(zones))
        try:
            day = day_of.get(row[1]) or day_of.setdefault(row[1], parse_date(row[1]).toordinal())
            table[i] = (zone, day, *map(float, row[2:]))
        except ValueError as exc:
            failed[i] = f"unparseable value: {exc}"
    return i + 1, list(zones), failed


def _scan(path: Path) -> tuple[int, bool]:
    """An upper bound on the number of records in ``path``, its line ends
    + 1 (a quoted field may hold line ends), and whether it holds a quote
    character."""
    if not path.is_file():
        raise SchemaError(f"input file not found: {path}")
    records, quoted = 1, False
    with open(path, "rb") as fh:
        while chunk := fh.read(_BLOCK):
            quoted = quoted or b'"' in chunk
            records += chunk.count(b"\n")
            if b"\r" in chunk:  # a CRLF split between two chunks counts twice
                records += chunk.count(b"\r") - chunk.count(b"\r\n")
    return records, quoted


def _blocks(path: Path):
    """(offset, bytes) of consecutive blocks of about ``_BLOCK`` bytes, each
    ending just after a line end, except the last, which ends the file. The
    bytes after a block's last line end are read again with the next block,
    so that only one copy of a block is held."""
    offset, size = 0, _BLOCK
    with open(path, "rb") as fh:
        while block := fh.read(size):
            # a final CR may be the first half of a CRLF: cut there only once
            # the next byte is known
            cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, len(block) - 1)) + 1
            if len(block) < size:  # the file's end
                cut = len(block)
            elif not cut:  # a line longer than the block: read twice as much
                size *= 2
                fh.seek(offset)
                continue
            block = block[:cut]
            yield offset, block
            offset, size = offset + cut, _BLOCK
            fh.seek(offset)


def _records(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offsets of the records of a block, line ends excluded.
    A record ends at LF, CRLF or a lone CR, as for ``csv.reader`` on a file
    opened with ``newline=""``, and the block's end ends the last one."""
    lf, cr = a == 10, a == 13
    stop = lf.copy()
    stop[:-1] |= cr[:-1] & ~lf[1:]
    stop[-1] |= cr[-1]
    stops = np.flatnonzero(stop)
    crlf = lf[stops] & cr[np.maximum(stops - 1, 0)] & (stops > 0)
    starts = np.concatenate(([0], stops + 1))
    ends = np.concatenate((stops - crlf, [len(a)]))
    if starts[-1] == len(a):
        starts, ends = starts[:-1], ends[:-1]
    return starts, ends


def _distinct(windows: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Each field's index among the distinct texts of its column, and a row
    holding each text. ``windows[i]`` is the 8 bytes at offset i of the
    block. A text of up to ``_SHORT`` bytes is packed into one or two 64-bit
    words with its length; a longer one counts as a text of its own, and so
    does every text of a column whose texts are mostly longer."""

    def word(at, size):
        return windows[at].view("<u8")[:, 0] & _MASK[size]

    short = lengths <= _SHORT
    if 2 * np.count_nonzero(short) < len(lengths):
        each = np.arange(len(lengths))
        return each, each
    if lengths.max(initial=0) < 8:
        key = word(starts, lengths) | (lengths.astype(np.uint64) << np.uint64(56))
    else:
        low = word(starts, np.minimum(lengths, 8))
        low[~short] = np.flatnonzero(~short)
        high = word(starts + 8, np.clip(lengths - 8, 0, 7))
        high |= np.where(short, lengths, 0xFF).astype(np.uint64) << np.uint64(56)
        key = 0
        for part in (low, high):
            _, inverse = np.unique(part, return_inverse=True)
            key = key * (inverse.max() + 1) + inverse
    # return_inverse alone sorts unstably, which is faster than return_index
    distinct, inverse = np.unique(key, return_inverse=True)
    holder = np.empty(len(distinct), np.intp)
    holder[inverse] = np.arange(len(inverse))
    return inverse, holder


def _column(block: bytes, windows, starts, ends, convert):
    """The value of each field of one column of a block, ``convert`` of its
    bytes once per distinct text (0 where it raises ``ValueError``), and
    the reason each field that does not parse gives, by field."""
    inverse, holder = _distinct(windows, starts, ends - starts)
    values, reasons = [], {}
    for i, j in zip(starts[holder].tolist(), ends[holder].tolist()):
        try:
            values.append(convert(block[i:j]))
        except ValueError as exc:
            reasons[len(values)] = f"unparseable value: {exc}"
            values.append(0)
    bad = np.zeros(len(values), bool)
    bad[list(reasons)] = True
    failed = {i: reasons[int(inverse[i])] for i in np.flatnonzero(bad[inverse]).tolist()}
    return np.array(values)[inverse], failed


def _weather_blocks(path: Path, table: np.ndarray):
    """:func:`_weather_rows` by a byte tokenizer, for a file without quotes,
    where every comma ends a field. It reads the file a block at a time
    and converts each distinct field text of a block once."""
    encoding = locale.getpreferredencoding(False)  # what open() decodes with
    targets = [table[name] for name in WEATHER_DTYPE.names]
    zones: dict[str, int] = {}

    def number(text: bytes) -> float:
        # float reads ASCII bytes as it reads their text and fails on others,
        # so only a text it fails on is decoded, for its value or its message
        try:
            return float(text)
        except ValueError:
            return float(text.decode(encoding))

    converters = [lambda text: zones.setdefault(text.decode(encoding), len(zones)),
                  lambda text: parse_date(text.decode(encoding)).toordinal()] + [number] * 5
    width = len(WEATHER_HEADER)
    failed: dict[int, str] = {}
    n, header = 0, None
    for offset, block in _blocks(path):
        if not block.isascii():
            try:
                block.decode(encoding)
            except UnicodeDecodeError as exc:
                raise _decode_error(path, exc, offset) from None
        a = np.frombuffer(block, np.uint8)
        starts, ends = _records(a)
        if header is None:
            text = block[starts[0]:ends[0]].decode(encoding)
            header = text.split(",") if text else []
            _check_header(path, header, WEATHER_HEADER)
            starts, ends = starts[1:], ends[1:]
        commas = np.flatnonzero(a == 44)
        first_comma = np.searchsorted(commas, starts)
        fields = np.where(ends > starts, np.searchsorted(commas, ends) - first_comma + 1, 0)
        for i in np.flatnonzero(fields != width).tolist():
            failed[n + i] = f"expected {width} fields, got {fields[i]}"
        rows = np.flatnonzero(fields == width)
        first_comma = first_comma[rows]
        # the 8 bytes at every offset up to 8 past the end: a field starts
        # at the end at the latest, and its second word 8 bytes later
        padded = np.frombuffer(block + bytes(16), np.uint8)
        windows = np.lib.stride_tricks.as_strided(padded, (len(block) + 9, 8), (1, 1))
        # each column goes straight into the rows of the block's records;
        # a record of the wrong width keeps its zeros
        at = slice(n, n + len(rows)) if len(rows) == len(starts) else n + rows
        field_starts = starts[rows]
        for col, (convert, target) in enumerate(zip(converters, targets)):
            field_ends = commas[first_comma + col] if col < width - 1 else ends[rows]
            target[at], reasons = _column(block, windows, field_starts, field_ends, convert)
            for i, reason in reasons.items():  # a row's first column that does not parse
                failed.setdefault(n + int(rows[i]), reason)
            field_starts = field_ends + 1
        n += len(starts)
        del commas, padded, windows  # the largest arrays go before the next block is read
    if header is None:
        raise SchemaError(f"{path}: empty file, expected header")
    return n, list(zones), failed


def parse_weather(
    path: str | Path, ranges: ValidationRanges = DEFAULT_RANGES
) -> tuple[Weather, RejectionLog]:
    """Parse weather.csv into the accepted rows (input order), zone ids
    coded by first appearance, and a rejection log (line order).

    A file without a ``"`` is tokenized a block of bytes at a time, each
    distinct field text converted once; a file with one takes the
    ``csv.reader`` row loop, which reads CSV quoting. Either fills the one
    table allocated here, a row per record, so row i is line i + 2. Every
    rejection is then decided here, on whole columns: a parse reason, else
    the range checks, else the first-valid-wins (zone_id, date) duplicate
    search, which holds one key and one sort order beside the table.
    """
    bound, quoted = _scan(Path(path))
    table = np.zeros(bound, WEATHER_DTYPE)  # a row that does not parse keeps its zeros
    n, zones, rejected = (_weather_rows if quoted else _weather_blocks)(Path(path), table)
    table = table[:n]
    for i, bad in weather_rejections(table, ranges).items():
        rejected.setdefault(i, str(bad))
    # each row's (zone, day) key with a low bit set if the row is rejected:
    # the stable sort puts each zone-day's valid rows first, in file order,
    # and its rejected rows after them
    key = table["zone"].astype(np.int64)
    zone_day_key(key, table["day"], out=key)
    key <<= 1
    key[list(rejected)] += 1
    order = np.argsort(key, kind="stable")
    # so a valid row whose sorted predecessor has its key repeats that
    # valid row's zone-day, and the first valid row of a zone-day has none.
    # The sorted keys are compared ``_ROWS`` at a time, each slice after the
    # first starting one row back
    for start in range(0, len(order), _ROWS):
        rows = order[max(start - 1, 0):start + _ROWS]
        sorted_key = key[rows]
        at = np.flatnonzero(sorted_key[1:] == sorted_key[:-1]) + 1
        for i in rows[at[sorted_key[at] % 2 == 0]].tolist():
            rejected[i] = (f"duplicate weather for zone {zones[table['zone'][i]]} "
                           f"on {date.fromordinal(int(table['day'][i]))}")
    del key, order
    log = RejectionLog([LogEntry(str(path), i + 2, reason)
                        for i, reason in sorted(rejected.items())])
    # keep the accepted rows in place, a column at a time: table[keep]
    # would hold a second copy of the table at once
    keep = np.ones(len(table), bool)
    keep[list(rejected)] = False
    n = int(np.count_nonzero(keep))
    for name in WEATHER_DTYPE.names:
        table[name][:n] = table[name][keep]
    return Weather(tuple(zones), table[:n]), log


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


_WRITE_ROWS = 65536  # weather rows formatted and written at a time


def _texts(column: np.ndarray, text) -> list[str]:
    """``text(value)`` for every cell of a numeric column, called once per
    distinct bit pattern, so -0.0 and 0.0 keep their own texts."""
    distinct, inverse = np.unique(column.view(f"i{column.itemsize}"), return_inverse=True)
    texts = np.array([text(v) for v in distinct.view(column.dtype).tolist()], dtype=object)
    return texts[inverse].tolist()


def write_weather_csv(weather: Weather, path: str | Path) -> None:
    zone_ids = np.array(weather.zones, dtype=object)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(WEATHER_HEADER)
        # a chunk at a time, so that the text columns stay small
        for start in range(0, len(weather), _WRITE_ROWS):
            rows = weather.table[start:start + _WRITE_ROWS]
            writer.writerows(zip(
                zone_ids[rows["zone"]].tolist(),
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
