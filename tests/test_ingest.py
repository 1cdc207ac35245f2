import csv
import math
import sys
import tempfile
import tracemalloc
from datetime import date
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wheatyield import ingest
from wheatyield.domain import DEFAULT_RANGES, WEATHER_DTYPE, WEATHER_FIELDS, Rejection, SoilRecord
from test_domain import named_rows, weather_of
from wheatyield.ingest import (
    SchemaError,
    carry_forward_soil,
    parse_crop,
    parse_date,
    parse_soil,
    parse_weather,
    write_weather_csv,
)

SOIL_HEADER = "zone_id,test_year,p_mg_l,k_mg_l,mg_mg_l,ph,soil_type,stone_content,organic_matter,caco3"
WEATHER_HEADER = "zone_id,date,t_min_c,t_max_c,precip_mm,solar_mj_m2,humidity_pct"
CROP_HEADER = "zone_id,year,crop,sowing_date,harvest_date,yield_t_ha"


def write(tmp_path, name, header, rows):
    path = tmp_path / name
    path.write_text("\n".join([header] + rows) + "\n")
    return path


class TestParseSoil:
    def test_well_formed_row(self, tmp_path):
        path = write(tmp_path, "soil.csv", SOIL_HEADER,
                     ["Z1,2015,25.0,180.0,60.0,6.8,medium,low,moderate,calc"])
        records, log = parse_soil(path)
        assert len(records) == 1 and len(log) == 0
        rec = records[0]
        assert rec.zone_id == "Z1" and rec.test_year == 2015
        assert rec.p == 25.0 and rec.ph == 6.8
        assert rec.caco3 == "calc"

    def test_unknown_category_logged(self, tmp_path):
        path = write(tmp_path, "soil.csv", SOIL_HEADER,
                     ["Z1,2015,25.0,180.0,60.0,6.8,granite,low,moderate,calc"])
        records, log = parse_soil(path)
        assert records == []
        assert len(log) == 1
        entry = log.entries[0]
        assert entry.line == 2 and "granite" in entry.reason

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "soil.csv", SOIL_HEADER, [])
        records, log = parse_soil(path)
        assert records == [] and len(log) == 0

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(SchemaError):
            parse_soil(tmp_path / "nope.csv")

    def test_wrong_header_fatal(self, tmp_path):
        path = write(tmp_path, "soil.csv", "zone,year", ["Z1,2015"])
        with pytest.raises(SchemaError):
            parse_soil(path)

    def test_duplicate_zone_year_keeps_first(self, tmp_path):
        path = write(tmp_path, "soil.csv", SOIL_HEADER, [
            "Z1,2015,25.0,180.0,60.0,6.8,medium,low,moderate,calc",
            "Z1,2015,30.0,190.0,70.0,7.0,medium,low,moderate,calc",
        ])
        records, log = parse_soil(path)
        assert len(records) == 1 and records[0].p == 25.0
        assert len(log) == 1 and "duplicate" in log.entries[0].reason

    def test_unparseable_value_logged(self, tmp_path):
        path = write(tmp_path, "soil.csv", SOIL_HEADER,
                     ["Z1,2015,abc,180.0,60.0,6.8,medium,low,moderate,calc"])
        records, log = parse_soil(path)
        assert records == [] and len(log) == 1

    def test_row_count_invariant(self, tmp_path):
        rows = [
            "Z1,2015,25.0,180.0,60.0,6.8,medium,low,moderate,calc",
            "Z2,2015,-1,180.0,60.0,6.8,medium,low,moderate,calc",
            "Z3,2015,25.0,180.0,60.0,20.0,medium,low,moderate,calc",
            "Z1,2015,11.0,180.0,60.0,6.8,medium,low,moderate,calc",
        ]
        path = write(tmp_path, "soil.csv", SOIL_HEADER, rows)
        records, log = parse_soil(path)
        assert len(records) + len(log) == len(rows)

    def test_determinism(self, tmp_path):
        rows = ["Z1,2015,25.0,180.0,60.0,6.8,medium,low,moderate,calc",
                "Z2,2016,11.0,120.0,40.0,7.2,shallow,gravel,low,slightly calc"]
        path = write(tmp_path, "soil.csv", SOIL_HEADER, rows)
        assert parse_soil(path) == parse_soil(path)


class TestParseWeather:
    def test_well_formed_row(self, tmp_path):
        path = write(tmp_path, "weather.csv", WEATHER_HEADER,
                     ["Z1,2017-03-02,1.5,9.0,4.2,8.1,82.0"])
        records, log = parse_weather(path)
        assert len(records) == 1 and len(log) == 0
        assert named_rows(records) == [("Z1", date(2017, 3, 2).toordinal(), 1.5, 9.0, 4.2, 8.1, 82.0)]

    def test_tmin_above_tmax_rejected(self, tmp_path):
        path = write(tmp_path, "weather.csv", WEATHER_HEADER,
                     ["Z1,2017-03-02,12.0,8.0,4.2,8.1,82.0"])
        records, log = parse_weather(path)
        assert len(records) == 0 and len(log) == 1

    def test_duplicate_zone_date_second_rejected(self, tmp_path):
        path = write(tmp_path, "weather.csv", WEATHER_HEADER, [
            "Z1,2017-03-02,1.5,9.0,4.2,8.1,82.0",
            "Z1,2017-03-02,2.0,10.0,0.0,9.0,70.0",
        ])
        records, log = parse_weather(path)
        assert len(records) == 1 and records.table["t_min"][0] == 1.5
        assert "duplicate" in log.entries[0].reason

    def test_bad_date_logged(self, tmp_path):
        path = write(tmp_path, "weather.csv", WEATHER_HEADER,
                     ["Z1,02/03/2017,1.5,9.0,4.2,8.1,82.0"])
        records, log = parse_weather(path)
        assert len(records) == 0 and len(log) == 1


class TestIsoDates:
    @pytest.mark.parametrize("text", ["20121024", "2012-W43-3", "2012-298", "2012-10-24T00:00",
                                      " 2012-10-24", "2012-10-2", "\uff12012-10-24", ""])
    def test_only_yyyy_mm_dd_parses(self, text):
        with pytest.raises(ValueError, match="Invalid isoformat string"):
            parse_date(text)

    def test_calendar_errors_keep_fromisoformat_text(self):
        with pytest.raises(ValueError, match="day is out of range for month"):
            parse_date("2012-02-30")
        assert parse_date("2012-10-24") == date(2012, 10, 24)

    def test_lenient_iso_spellings_are_rejected_rows(self, tmp_path):
        weather = write(tmp_path, "weather.csv", WEATHER_HEADER,
                        ["Z1,20121024,1.5,9.0,4.2,8.1,82.0"])
        crop = write(tmp_path, "crop.csv", CROP_HEADER,
                     ["Z1,2013,winter_wheat,2012-W43-3,2013-08-01,9.5"])
        records, log = parse_weather(weather)
        assert len(records) == 0
        assert log.entries[0].reason == "unparseable value: Invalid isoformat string: '20121024'"
        records, log = parse_crop(crop)
        assert records == []
        assert log.entries[0].reason == "unparseable value: Invalid isoformat string: '2012-W43-3'"


def reference_parse_weather(path):
    """Row-at-a-time parser: width, then parse, then each field's bound in
    field order, then t_min <= t_max, then first-wins (zone_id, date)."""
    accepted, log, seen = [], [], set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 7:
                log.append((lineno, f"expected 7 fields, got {len(row)}"))
                continue
            try:
                day = parse_date(row[1])
                values = [float(text) for text in row[2:]]
            except ValueError as exc:
                log.append((lineno, f"unparseable value: {exc}"))
                continue
            bad = None
            for name, value in zip(WEATHER_FIELDS, values):
                bad = getattr(DEFAULT_RANGES, name).check(name, value)
                if bad is not None:
                    break
            if bad is None and values[0] > values[1]:
                bad = Rejection("t_min", values[0], f"exceeds t_max {values[1]}")
            if bad is not None:
                log.append((lineno, str(bad)))
                continue
            if (row[0], day) in seen:
                log.append((lineno, f"duplicate weather for zone {row[0]} on {day}"))
                continue
            seen.add((row[0], day))
            accepted.append((row[0], day.toordinal(), *values))
    return accepted, log


# full-precision texts too, so that a column can hold mostly texts of more than 15 bytes
CELL = st.sampled_from(["-60.5", "-60", "-3.5", "0", "0.0", "2.25", "9.3", "60", "99.9",
                        "100", "100.5", "12.345678901234567", "-3.0000000000000004"])
# csv.reader reads NUL as a character from Python 3.11 on; 3.10's raises on it
NUL = ["60\x00", "Z\x00"] if sys.version_info >= (3, 11) else []
BAD_TOKENS = ["inf", "-inf", "nan", "1e308", "", "abc", "2012-02-30", "2012-13-01",
              "2012/10/24", "20121024", "2012-W43-3",
              # -0.0 beside 0.0, what float() takes besides plain decimals (a
              # non-ASCII digit and space too), fields of more than 16 bytes
              # with a common prefix
              "-0.0", " 1.5", "+2", "1_000", "\u0661", "1\u00a0", "1.000000000000000000001",
              "1.0000000000000000e-5", "x" * 17] + NUL[:1]
# a non-ASCII id, a long one, and a quoted one, which makes the file take the row loop
ZONE_TOKENS = ["Z\u00e9", "Z\U0001f33e", "Z" * 20, '"Z1"'] + NUL[1:]
WEATHER_ROW = st.tuples(st.sampled_from(["Z1", "Z2"]), st.integers(1, 6),
                        *[CELL] * 5).map(lambda r: [r[0], f"2012-10-0{r[1]}", *r[2:]])
EDIT = st.one_of(
    st.tuples(st.just("cell"), st.integers(0, 99), st.integers(1, 6), st.sampled_from(BAD_TOKENS)),
    st.tuples(st.just("zone"), st.integers(0, 99), st.sampled_from(ZONE_TOKENS)),
    st.tuples(st.just("copy"), st.integers(0, 99)),
    st.tuples(st.just("width"), st.integers(0, 99), st.booleans()),
    st.tuples(st.just("blank"), st.integers(0, 99)),
)
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@settings(max_examples=200, deadline=None)
# texts that differ only in a trailing NUL, past their 15th byte, or in a sign
@example(rows=[["Z1", "2012-10-01", "0.0", "2", "3", "4", "60"],
               ["Z1", "2012-10-02", "-0.0", "2", "3", "4", (NUL or ["60"])[0]],
               ["Z1", "2012-10-03", "1", "2", "3", "1.000000000000000000001", "4"],
               ["Z1", "2012-10-04", "1", "2", "3", "1.0000000000000000e-5", "4"]],
          edits=[], ends=["\n"] * 27, final_end=True)
# a column of mostly long texts, and texts float() reads only once decoded
@example(rows=[["Z1", "2012-10-01", "12.345678901234567", "60", "3", "4", "60"],
               ["Z1", "2012-10-02", "-3.0000000000000004", "\u0661", "3", "4", "60"],
               ["Z1", "2012-10-03", "1.000000000000000000001", "1\u00a0", "3", "4", "60"],
               ["Z1", "2012-10-04", "x" * 17, "1", "3", "4", "60"]],
          edits=[], ends=["\n"] * 27, final_end=True)
# the duplicate search: a rejected row, then a valid one of its zone-day
# (kept, and not logged as a duplicate); a valid row, a rejected copy, a
# valid copy; and a duplicate pair of 25-byte lines, which 29-byte blocks
# hold one a block, in sorted places 1 and 2, across a two-row slice
@example(rows=[["Z1", "2012-10-01", "99.9", "2", "3", "4", "60"],
               ["Z1", "2012-10-01", "1", "2", "3", "4", "60"]],
          edits=[], ends=["\n"] * 27, final_end=True)
@example(rows=[["Z1", "2012-10-01", "1", "2", "3", "4", "60"],
               ["Z1", "2012-10-01", "1", "2", "3", "4", "100.5"],
               ["Z1", "2012-10-01", "2", "2", "3", "4", "60"]],
          edits=[], ends=["\n"] * 27, final_end=True)
@example(rows=[["Z1", "2012-10-01", "1", "2", "3", "4", "60"],
               ["Z1", "2012-10-02", "1", "2", "3", "4", "60"],
               ["Z1", "2012-10-02", "2", "2", "3", "4", "60"]],
          edits=[], ends=["\n"] * 27, final_end=True)
# a column of a text float() reads only once decoded, one it does not read
# at all and one it reads as bytes
@example(rows=[["Z1", "2012-10-01", "abc", "9.3", "3", "4", "60"],
               ["Z1", "2012-10-02", "\u0661", "9.3", "3", "4", "60"],
               ["Z1", "2012-10-03", "2.5", "9.3", "3", "4", "60"]],
          edits=[], ends=["\n"] * 27, final_end=True)
# a row that does not parse, then a valid row of its zone-day (kept, and
# not logged as a duplicate)
@example(rows=[["Z1", "2012-10-01", "abc", "2", "3", "4", "60"],
               ["Z1", "2012-10-01", "1", "2", "3", "4", "60"]],
          edits=[], ends=["\n"] * 27, final_end=True)
# rows of the wrong width, that do not parse and out of range ahead of a
# duplicate pair, in a file read by the tokenizer and in one whose quoted
# zone id sends it through the row loop
@example(rows=[["Z1", "2012-10-01", "1", "2", "3", "4"],
               ["Z1", "2012-10-02", "abc", "2", "3", "4", "60"],
               ["Z1", "2012-10-03", "1", "2", "3", "4", "100.5"],
               ["Z1", "2012-10-04", "1", "2", "3", "4", "60"],
               ["Z1", "2012-10-04", "2", "2", "3", "4", "60"]],
          edits=[], ends=["\n"] * 27, final_end=True)
@example(rows=[["Z1", "2012-10-01", "1", "2", "3", "4"],
               ["Z1", "2012-10-02", "abc", "2", "3", "4", "60"],
               ["Z1", "2012-10-03", "1", "2", "3", "4", "100.5"],
               ['"Z1"', "2012-10-04", "1", "2", "3", "4", "60"],
               ["Z1", "2012-10-04", "2", "2", "3", "4", "60"]],
          edits=[], ends=["\n"] * 27, final_end=True)
@given(rows=st.lists(WEATHER_ROW, min_size=1, max_size=25), edits=st.lists(EDIT, max_size=12),
       ends=st.lists(LINE_ENDS, min_size=27, max_size=27), final_end=st.booleans())
def test_parse_weather_matches_row_at_a_time_reference(rows, edits, ends, final_end):
    for edit in edits:
        row = rows[edit[1] % len(rows)]
        if edit[0] in ("cell", "zone") and not row:
            continue  # a blank line has no cell
        if edit[0] == "cell":
            row[edit[2] % len(row)] = edit[3]
        elif edit[0] == "zone":
            row[0] = edit[2]
        elif edit[0] == "copy":
            rows.append(list(row))
        elif edit[0] == "blank":
            rows.insert(edit[1] % len(rows), [])
        else:
            row[:] = row + ["1.0"] if edit[2] else row[:-1]
    lines = [WEATHER_HEADER] + [",".join(r) for r in rows]
    # each line its own line end (LF, CRLF or a lone CR), the last one optional
    text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
    if not final_end:
        text = text.rstrip("\r\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "weather.csv"
        path.write_bytes(text.encode())
        want_rows, want_log = reference_parse_weather(path)
        want = np.array([r[2:] for r in want_rows], np.float64).reshape(-1, len(WEATHER_FIELDS))
        # the default sizes, then blocks of a few dozen bytes, so that rows
        # straddle block boundaries, and slices of two rows, so that every
        # row-slice boundary is crossed
        for block, rows_at_a_time in ((ingest._BLOCK, ingest._ROWS), (29, 2)):
            with patch.object(ingest, "_BLOCK", block), \
                    patch.object(ingest, "_ROWS", rows_at_a_time), \
                    patch.object(ingest, "_weather_rows", wraps=ingest._weather_rows) as loop:
                weather, log = parse_weather(path)
            assert loop.called == ('"' in text)
            table = weather.table
            assert table.dtype == WEATHER_DTYPE
            assert [row[:2] for row in named_rows(weather)] == [r[:2] for r in want_rows]
            for k, name in enumerate(WEATHER_FIELDS):  # bit patterns: -0.0 is not 0.0
                assert table[name].view(np.int64).tolist() == want[:, k].view(np.int64).tolist()
            assert [(e.source, e.line, e.reason) for e in log.entries] == [
                (str(path), line, reason) for line, reason in want_log
            ]


class TestParseCrop:
    def test_winter_wheat_kept(self, tmp_path):
        path = write(tmp_path, "crop.csv", CROP_HEADER,
                     ["Z1,2014,winter_wheat,2013-10-01,2014-08-01,10.78"])
        records, log = parse_crop(path)
        assert len(records) == 1 and records[0].yield_t_ha == 10.78

    def test_other_crop_filtered_distinctly(self, tmp_path):
        path = write(tmp_path, "crop.csv", CROP_HEADER,
                     ["Z1,2014,spring_barley,2014-03-01,2014-09-01,6.5"])
        records, log = parse_crop(path)
        assert records == []
        assert len(log) == 1 and log.entries[0].reason.startswith("filtered")

    def test_crop_filter_case_insensitive(self, tmp_path):
        path = write(tmp_path, "crop.csv", CROP_HEADER,
                     ["Z1,2014,Winter_Wheat,2013-10-01,2014-08-01,10.78"])
        records, _ = parse_crop(path)
        assert len(records) == 1

    def test_duplicate_zone_year_keeps_first(self, tmp_path):
        path = write(tmp_path, "crop.csv", CROP_HEADER, [
            "Z1,2014,winter_wheat,2013-10-01,2014-08-01,10.78",
            "Z1,2014,winter_wheat,2013-10-01,2014-08-01,8.00",
        ])
        records, log = parse_crop(path)
        assert len(records) == 1 and records[0].yield_t_ha == 10.78
        assert "duplicate" in log.entries[0].reason

    def test_implausible_yield_rejected(self, tmp_path):
        path = write(tmp_path, "crop.csv", CROP_HEADER,
                     ["Z1,2014,winter_wheat,2013-10-01,2014-08-01,55.0"])
        records, log = parse_crop(path)
        assert records == [] and len(log) == 1



@pytest.mark.parametrize("parse, header, rows, want", [
    (parse_soil, SOIL_HEADER, [
        "Z1,2015,25.0,180.0,60.0,6.8,medium,low,moderate",
        "Z1,20x5,abc,180.0,60.0,6.8,medium,low,moderate,calc",
        "Z1,2015,abc,1e,60.0,6.8,medium,low,moderate,calc",
        "Z1,2015,25.0,180.0,60.0,6.8,bogus,low,moderate,calc",
        "Z1,2015,25.0,180.0,60.0,6.8,medium,low,moderate,calc",
        "Z1,2015,30.0,190.0,70.0,7.0,medium,low,moderate,calc",
    ], [
        (2, "expected 10 fields, got 9"),
        (3, "unparseable value: invalid literal for int() with base 10: '20x5'"),
        (4, "unparseable value: could not convert string to float: 'abc'"),
        (5, "soil_type='bogus': unknown category"),
        (7, "duplicate soil test for zone Z1 year 2015"),
    ]),
    (parse_crop, CROP_HEADER, [
        "Z1,2014,winter_wheat,2013-10-01,2014-08-01",
        "Z1,20x4,barley,bad,bad,x",
        "Z1,20x4,winter_wheat,bad,2014-08-01,10.0",
        "Z1,2014,winter_wheat,2013-10-01,2014-13-01,10.0",
        "Z1,2014,winter_wheat,2013-10-01,2014-08-01,55.0",
        "Z1,2014,Winter_Wheat,2013-10-01,2014-08-01,10.78",
        "Z1,2014,winter_wheat,2013-10-02,2014-08-01,9.0",
    ], [
        (2, "expected 6 fields, got 5"),
        (3, "filtered: crop='barley'"),
        (4, "unparseable value: invalid literal for int() with base 10: '20x4'"),
        (5, "unparseable value: month must be in 1..12"),
        (6, "yield_t_ha=55.0: above upper bound 18.0"),
        (8, "duplicate yield for zone Z1 year 2014"),
    ]),
], ids=["soil", "crop"])
def test_row_checks_run_in_order_and_first_valid_key_wins(tmp_path, parse, header, rows, want):
    """Each row names the first check it fails: field count, then (crops) the
    crop filter, then the first unparseable field, then validation, then a
    duplicate of an earlier valid row's key. One row per file survives."""
    path = write(tmp_path, "in.csv", header, rows)
    records, log = parse(path)
    assert [(e.line, e.reason) for e in log.entries] == want
    assert len(records) == 1 and records[0].zone_id == "Z1"

def soil_test(zone, year) -> SoilRecord:
    return SoilRecord(zone, year, 25.0, 180.0, 60.0, 6.8,
                      "medium", "low", "moderate", "calc")


class TestCarryForward:
    def test_most_recent_past_test(self):
        records = [soil_test("Z1", 2013), soil_test("Z1", 2016)]
        got = carry_forward_soil(records, "Z1", 2018)
        assert got is not None and got.test_year == 2016

    def test_same_year_test_used(self):
        records = [soil_test("Z1", 2015)]
        got = carry_forward_soil(records, "Z1", 2015)
        assert got is not None and got.test_year == 2015

    def test_only_future_test_gives_none(self):
        records = [soil_test("Z1", 2019)]
        assert carry_forward_soil(records, "Z1", 2018) is None

    def test_other_zone_ignored(self):
        records = [soil_test("Z2", 2015)]
        assert carry_forward_soil(records, "Z1", 2018) is None

    def test_never_returns_future_year(self):
        records = [soil_test("Z1", y) for y in (2012, 2014, 2017, 2019)]
        for query in range(2012, 2021):
            got = carry_forward_soil(records, "Z1", query)
            if got is not None:
                assert got.test_year <= query


def test_cleaned_output_round_trips_losslessly(tmp_path):
    path = write(tmp_path, "weather.csv", WEATHER_HEADER,
                 ["Z1,2017-03-02,1.53917,9.00001,4.2,8.1,82.0"])
    records, _ = parse_weather(path)
    out = tmp_path / "clean.csv"
    write_weather_csv(records, out)
    reparsed, log = parse_weather(out)
    assert len(log) == 0
    assert named_rows(reparsed) == named_rows(records)


@pytest.mark.parametrize("zone", ["Z2", '"Z2"'], ids=["tokenizer", "quoted"])
def test_first_and_last_calendar_days_fit_the_table(tmp_path, zone):
    """The day and zone fields are 4-byte ints: 0001-01-01 and 9999-12-31
    keep their ordinals, a repeated last day is still a duplicate, and the
    table writes back its own input's bytes."""
    rows = ["Z1,0001-01-01,1.5,9.0,4.2,8.1,82.0", "Z1,9999-12-31,2.0,3.0,0.0,0.5,60.0",
            f"{zone},0001-01-01,-1.5,0.0,0.0,1.0,90.0", f"{zone},9999-12-31,1.0,2.0,3.0,4.0,5.0"]
    path = write(tmp_path, "weather.csv", WEATHER_HEADER,
                 rows + [f"{zone},9999-12-31,0.0,1.0,0.0,0.0,50.0"])
    weather, log = parse_weather(path)
    assert weather.zones == ("Z1", "Z2")
    assert weather.table[["zone", "day"]].tolist() == [(0, 1), (0, 3652059), (1, 1), (1, 3652059)]
    assert [(e.line, e.reason) for e in log.entries] == [
        (6, "duplicate weather for zone Z2 on 9999-12-31")]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_weather_csv(weather, first)
    write_weather_csv(parse_weather(first)[0], second)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().splitlines() == [WEATHER_HEADER] + [r.replace('"', "") for r in rows]


def reference_write_weather(weather, path):
    """Row-at-a-time writer: csv.writer quoting, ISO dates, repr of each float."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(WEATHER_HEADER.split(","))
        for zone, day, *values in named_rows(weather):
            writer.writerow([zone, date.fromordinal(day).isoformat(), *map(repr, values)])


# signed zeros, the infinities and NaNs of either sign and another payload
# (repr prints every NaN as "nan")
SPECIAL_FLOATS = [-0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan,
                  np.array([0x7FF8000000000001]).view(np.float64).item(), 1.5, 5e-324]
WEATHER_VALUE = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
# the second one needs quoting; the rest try the line ends, an empty id,
# outer spaces and a non-ASCII letter
ZONES = ["Z1", 'Z,"2"', "Z 3", "Z\r4", "Z\n5", "", " Z6 ", "Zé"]


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from(ZONES), st.integers(1, 800_000),
                               *[WEATHER_VALUE] * 5), max_size=30))
@example(rows=[])
def test_write_weather_csv_matches_row_at_a_time_reference(rows):
    weather = weather_of(rows)
    # the default chunk of rows, then one that most tables cross
    for chunk in (ingest._WRITE_ROWS, 7):
        with tempfile.TemporaryDirectory() as tmp, patch.object(ingest, "_WRITE_ROWS", chunk):
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            write_weather_csv(weather, got)
            reference_write_weather(weather, want)
            assert got.read_bytes() == want.read_bytes()


def test_write_weather_csv_memory_follows_output_not_longest_zone_id(tmp_path):
    # one 100 kB zone id among 2,000 rows: a writer that pads every row to
    # its column's longest text would hold 2,000 x 100 kB = 200 MB
    long_id = "Z," + "x" * 100_000
    day = date(2017, 3, 2).toordinal()
    weather = weather_of([(long_id if i == 0 else "Z1", day + i % 300, 1.5, -0.0, 2.25,
                           float(i), 0.1) for i in range(2000)])
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    tracemalloc.start()
    try:
        write_weather_csv(weather, got)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    reference_write_weather(weather, want)
    assert got.read_bytes() == want.read_bytes()
    assert peak < 10 * got.stat().st_size


def test_write_weather_csv_keeps_signed_zeros_apart(tmp_path):
    day = date(2017, 3, 2).toordinal()
    weather = weather_of([('Z,"1"', day, -0.0, 0.0, math.inf, -math.inf, math.nan),
                          ("Z1", day, 0.0, -0.0, 0.0, 0.0, -0.0),
                          ("Z1", day + 1, -0.0, -0.0, 2.5, 2.5, 0.0)])
    out = tmp_path / "weather.csv"
    write_weather_csv(weather, out)
    assert out.read_text().splitlines() == [
        WEATHER_HEADER,
        '"Z,""1""",2017-03-02,-0.0,0.0,inf,-inf,nan',
        "Z1,2017-03-02,0.0,-0.0,0.0,0.0,-0.0",
        "Z1,2017-03-03,-0.0,-0.0,2.5,2.5,0.0",
    ]


def test_rejection_log_csv_schema(tmp_path):
    path = write(tmp_path, "crop.csv", CROP_HEADER,
                 ["Z1,2014,spring_barley,2014-03-01,2014-09-01,6.5"])
    _, log = parse_crop(path)
    out = tmp_path / "rejections.csv"
    log.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "source,line,reason"
    assert lines[1].startswith(str(path)) and ",2," in lines[1]
