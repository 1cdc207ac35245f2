"""Seeded corruption of a clean synthetic input set.

    python corrupt.py CLEAN_DIR OUT_DIR SEED SOURCE_PREFIX EXPECTED_JSON

``corrupt`` reads the soil.csv / weather.csv / crop.csv that ``wheatyield
synth`` wrote, damages about 1% of the rows with the README's row-level
reason classes, and returns the rejection log lines, skipped zone-years
and surviving instances the pipeline must produce. The expectations are
derived from what was injected, never from running the pipeline.

Reason classes injected: unparseable number, out of range (including
t_min above t_max), wrong field count, duplicate key, bad date, non-wheat
crop, and dropped weather days that leave missing weeks. Non-finite cells
(``inf``, ``1e308`` overflow) are left out on purpose: they pass ingest and
then abort ``features``, so every run would fail.

The expectations assume the default config: validation bounds, the
growth window of weeks 17..40 and min_days_per_week = 7.
"""

from __future__ import annotations

import json
import random
import sys
from bisect import bisect_left
from dataclasses import asdict, dataclass
from datetime import date
from pathlib import Path

DAYS_PER_SEASON = 280  # synthgen writes 40 weeks of weather from sowing
FIRST_WINDOW_DAY = 7 * (17 - 1)  # the growth window is weeks 17..40, the season's end

WEATHER_SHARE = 0.009  # share of weather rows damaged outside the growth window
WINDOW_DAMAGE_SHARE = 0.025  # share of zone-years damaged inside the window
SOIL_SHARE = 0.01
CROP_SHARE = 0.01


@dataclass
class Expected:
    """What the pipeline must report for a corrupted input set."""

    rejections: list[tuple[str, int, str]]  # (source, line, reason), cli order
    skipped: list[str]  # skipped_instances.csv data lines
    instances: list[tuple[str, int]]  # (zone_id, year) in crop order
    rows_read: int
    bytes_read: int


def _error_text(parse, token: str) -> str:
    try:
        parse(token)
    except ValueError as exc:
        return f"unparseable value: {exc}"
    raise ValueError(f"token {token!r} parses; it cannot stand for a bad cell")


def _num(token: str) -> str:
    return repr(float(token))


class _File:
    """Rows of one schema'd CSV plus the damage done to them."""

    def __init__(self, path: Path, source: str):
        lines = path.read_text().split("\n")
        if lines[-1] == "":
            lines.pop()
        self.header = lines[0]
        self.lines = lines[1:]
        self.edited: dict[int, list[str]] = {}  # row index -> its damaged fields
        self.source = source
        self.width = len(self.row(0))
        self.reasons: dict[int, str] = {}  # row index -> rejection reason
        self.dropped: list[int] = []  # sorted row indices removed from the file
        self.touched: set[int] = set()

    def row(self, i: int) -> list[str]:
        return self.edited[i] if i in self.edited else self.lines[i].split(",")

    def pick(self, rng: random.Random, draw, k: int) -> list[int]:
        """k untouched rows from ``draw()``, no two adjacent, so every
        duplicate's source row and every kept neighbour stays clean."""
        chosen: list[int] = []
        for _ in range(100 * k):
            if len(chosen) == k:
                break
            i = draw()
            if {i - 1, i, i + 1} & self.touched:
                continue
            self.touched.add(i)
            chosen.append(i)
        return sorted(chosen)

    def set(self, i: int, col: int, token: str, reason: str | None) -> None:
        self.edited[i] = self.row(i)
        self.edited[i][col] = token
        if reason is not None:
            self.reasons[i] = reason

    def wrong_width(self, i: int, rng: random.Random) -> None:
        row = self.edited[i] = self.row(i)
        if rng.random() < 0.5:
            row.pop()
        else:
            row.append("0")
        self.reasons[i] = f"expected {self.width} fields, got {len(row)}"

    def line_of(self, i: int) -> int:
        return i + 2 - bisect_left(self.dropped, i)

    def write(self, path: Path) -> int:
        lines = list(self.lines)
        for i, row in self.edited.items():
            lines[i] = ",".join(row)
        for i in reversed(self.dropped):
            del lines[i]
        text = "\n".join([self.header] + lines) + "\n"
        path.write_text(text)
        return len(text.encode())

    def log(self) -> list[tuple[str, int, str]]:
        return [(self.source, self.line_of(i), r) for i, r in sorted(self.reasons.items())]


def _bad_date(rng: random.Random, iso: str) -> str:
    year = iso[:4]
    return rng.choice([f"{year}-02-30", f"{year}-13-01", iso.replace("-", "/"), ""])


def _corrupt_soil(soil: _File, rng: random.Random) -> None:
    rows = [soil.row(i) for i in range(len(soil.lines))]
    n = max(5, round(SOIL_SHARE * len(rows)))
    same_zone = [i for i in range(1, len(rows)) if rows[i][0] == rows[i - 1][0]]
    for i in soil.pick(rng, lambda: rng.choice(same_zone), n // 5):
        prev_year = rows[i - 1][1]
        soil.set(i, 1, prev_year, f"duplicate soil test for zone {rows[i][0]} year {prev_year}")
    for k, i in enumerate(soil.pick(rng, lambda: rng.randrange(len(rows)), n - n // 5)):
        kind = k % 4
        if kind == 0:
            token = rng.choice(["", "n/a", "12..5", "--"])
            soil.set(i, 2, token, _error_text(float, token))
        elif kind == 1:
            token = f"{14.1 + rng.random() * 3:.2f}"
            soil.set(i, 5, token, f"ph={_num(token)}: above upper bound 14.0")
        elif kind == 2:
            token = f"-{1 + rng.random() * 50:.1f}"
            soil.set(i, 3, token, f"k={_num(token)}: below lower bound 0.0")
        else:
            soil.wrong_width(i, rng)


def _corrupt_crop(crop: _File, rng: random.Random) -> None:
    rows = [crop.row(i) for i in range(len(crop.lines))]
    n = max(8, round(CROP_SHARE * len(rows)))
    same_year = [i for i in range(1, len(rows)) if rows[i][1] == rows[i - 1][1]]
    for i in crop.pick(rng, lambda: rng.choice(same_year), n // 6):
        prev_zone = rows[i - 1][0]
        crop.set(i, 0, prev_zone, f"duplicate yield for zone {prev_zone} year {rows[i][1]}")
    for k, i in enumerate(crop.pick(rng, lambda: rng.randrange(len(rows)), n - n // 6)):
        kind = k % 5
        if kind == 0:
            token = rng.choice(["barley", "Spring_Wheat", "oilseed_rape"])
            crop.set(i, 2, token, f"filtered: crop={token!r}")
        elif kind == 1:
            # case variants are still winter wheat and must be kept
            crop.set(i, 2, rng.choice(["WINTER_WHEAT", "Winter_Wheat"]), None)
        elif kind == 2:
            token = rng.choice([f"{18.5 + rng.random() * 10:.2f}", f"{rng.random() * 0.9:.2f}"])
            side = "above upper bound 18.0" if float(token) > 18 else "below lower bound 1.0"
            crop.set(i, 5, token, f"yield_t_ha={_num(token)}: {side}")
        elif kind == 3:
            token = _bad_date(rng, rows[i][3])
            crop.set(i, 3, token, _error_text(date.fromisoformat, token))
        else:
            crop.wrong_width(i, rng)


def _damage_weather_row(weather: _File, i: int, kind: int, rng: random.Random) -> None:
    row = weather.row(i)
    if kind == 0:
        col = rng.randrange(2, 7)
        token = rng.choice(["", "n/a", "1.2.3", "--"])
        weather.set(i, col, token, _error_text(float, token))
    elif kind == 1:
        choice = rng.randrange(4)
        if choice == 0:
            token = f"{100.5 + rng.random() * 20:.1f}"
            weather.set(i, 6, token, f"humidity={_num(token)}: above upper bound 100.0")
        elif choice == 1:
            token = f"-{0.5 + rng.random() * 5:.2f}"
            weather.set(i, 4, token, f"precip={_num(token)}: below lower bound 0.0")
        elif choice == 2:
            token = f"-{60.5 + rng.random() * 20:.1f}"
            weather.set(i, 2, token, f"t_min={_num(token)}: below lower bound -60.0")
        else:
            token = f"{float(row[3]) + 0.5 + rng.random() * 3:.1f}"
            weather.set(i, 2, token, f"t_min={_num(token)}: exceeds t_max {_num(row[3])}")
    elif kind == 2:
        weather.wrong_width(i, rng)
    elif kind == 3:
        prev_date = weather.row(i - 1)[1]
        weather.set(i, 1, prev_date, f"duplicate weather for zone {row[0]} on {prev_date}")
    elif kind == 4:
        token = _bad_date(rng, row[1])
        weather.set(i, 1, token, _error_text(date.fromisoformat, token))
    else:
        weather.dropped.append(i)


def _corrupt_weather(weather: _File, rng: random.Random) -> set[int]:
    """Damage weather rows; returns the indices of every row that will be
    missing from the accepted records."""
    n_blocks = len(weather.lines) // DAYS_PER_SEASON

    def before_window() -> int:  # never a block's first day: a duplicate needs a predecessor
        return rng.randrange(n_blocks) * DAYS_PER_SEASON + rng.randrange(1, FIRST_WINDOW_DAY)

    damaged = weather.pick(rng, before_window, round(WEATHER_SHARE * len(weather.lines)))
    for block in rng.sample(range(n_blocks), round(WINDOW_DAMAGE_SHARE * n_blocks)):
        base = block * DAYS_PER_SEASON
        in_window = lambda: base + rng.randrange(FIRST_WINDOW_DAY, DAYS_PER_SEASON)  # noqa: E731
        damaged += weather.pick(rng, in_window, rng.randint(1, 3))
    for k, i in enumerate(sorted(damaged)):
        _damage_weather_row(weather, i, k % 6, rng)
    weather.dropped.sort()
    return set(damaged)


def _check_layout(soil: _File, weather: _File, crop: _File) -> None:
    if len(weather.lines) != DAYS_PER_SEASON * len(crop.lines):
        raise ValueError("weather rows are not 280 per crop row; not a synth input set")
    for b in range(len(crop.lines)):
        row, first = crop.row(b), weather.row(b * DAYS_PER_SEASON)
        if first[0] != row[0] or first[1] != row[3]:
            raise ValueError(f"weather block {b} does not start at its crop's sowing date")
    if any(len(soil.row(i)) != soil.width for i in range(len(soil.lines))):
        raise ValueError("soil rows have uneven widths")


def corrupt(clean_dir: Path, out_dir: Path, seed: int, source_prefix: str) -> Expected:
    """Write a damaged copy of ``clean_dir`` into ``out_dir``.

    ``source_prefix`` is the directory as the run config names it; the
    rejection log's source column is ``<source_prefix>/<file>``.
    """
    rng = random.Random(f"perfbench-corrupt-{seed}")
    files = {
        name: _File(clean_dir / f"{name}.csv", f"{source_prefix}/{name}.csv")
        for name in ("soil", "weather", "crop")
    }
    soil, weather, crop = files["soil"], files["weather"], files["crop"]
    _check_layout(soil, weather, crop)
    clean_soil = [soil.row(i) for i in range(len(soil.lines))]
    clean_crops = [(row[0], int(row[1])) for row in map(crop.row, range(len(crop.lines)))]

    _corrupt_soil(soil, rng)
    _corrupt_crop(crop, rng)
    missing_days = _corrupt_weather(weather, rng)

    out_dir.mkdir(parents=True, exist_ok=True)
    bytes_read = sum(f.write(out_dir / f"{name}.csv") for name, f in files.items())

    tests: dict[str, list[int]] = {}
    for i, row in enumerate(clean_soil):
        if i not in soil.reasons:
            tests.setdefault(row[0], []).append(int(row[1]))

    missing_weeks: dict[int, set[int]] = {}
    for i in missing_days:
        offset = i % DAYS_PER_SEASON
        if offset >= FIRST_WINDOW_DAY:
            missing_weeks.setdefault(i // DAYS_PER_SEASON, set()).add(offset // 7 + 1)

    skipped: list[str] = []
    instances: list[tuple[str, int]] = []
    for b, (zone, year) in enumerate(clean_crops):
        if b in crop.reasons:
            continue
        if not any(t <= year for t in tests.get(zone, [])):
            skipped.append(f"{zone},{year},no soil test at or before {year}")
        elif b in missing_weeks:
            weeks = sorted(missing_weeks[b])
            skipped.append(f"{zone},{year},missing weeks {weeks} in growth window")
        else:
            instances.append((zone, year))

    rows_read = sum(len(f.lines) - len(f.dropped) for f in files.values())
    return Expected(
        rejections=soil.log() + weather.log() + crop.log(),
        skipped=skipped,
        instances=instances,
        rows_read=rows_read,
        bytes_read=bytes_read,
    )


def main(argv: list[str]) -> None:
    clean_dir, out_dir, seed, source_prefix, expected_path = argv
    expected = corrupt(Path(clean_dir), Path(out_dir), int(seed), source_prefix)
    Path(expected_path).write_text(json.dumps(asdict(expected)))


if __name__ == "__main__":
    main(sys.argv[1:])
