import math
import random
import sys
import tracemalloc
import warnings
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wheatyield.domain import WEATHER_DTYPE, CropRecord, SoilRecord, WeeklyWeather
from wheatyield.features import (
    EGD_THRESHOLD_C,
    FeatureParams,
    InstanceRejection,
    MODE_SOIL,
    MODE_SOIL_WEATHER,
    aggregate_windows,
    build_instances,
    build_matrix,
    feature_names,
    fsum_rows,
    soil_feature_values,
    weekly_aggregate,
    window_edges,
    zone_day_key,
)
from wheatyield import ingest
from wheatyield.ingest import carry_forward_soil, parse_weather, write_weather_csv
from wheatyield.synthgen import (
    _CHUNK_ZONE_YEARS,
    DAYS_PER_SEASON,
    GenConfig,
    YearSpec,
    generate_records,
)
from test_cli import _quoted
from test_domain import weather_of


def day(d: date, t_max=10.0, t_min=2.0, precip=1.0, solar=5.0, humidity=80.0, zone="Z1"):
    return (zone, d.toordinal(), t_min, t_max, precip, solar, humidity)


def table(days):
    return weather_of(days).table


def soil_record():
    return SoilRecord("Z1", 2015, 25.0, 180.0, 60.0, 6.8,
                      "medium", "low", "moderate", "calc")


def crop_record(year=2018, sowing=date(2017, 10, 1)):
    return CropRecord("Z1", year, sowing, sowing + timedelta(days=300), 9.0)


class TestAssignWeeks:
    """Days to sowing-anchored weeks, as ``window_edges`` places them."""

    SOWING = date(2017, 10, 1)
    FIRST_THREE = FeatureParams(week_start=1, week_end=3, min_days_per_week=1)

    def edges(self, days, params):
        days = table(days)
        key = zone_day_key(np.zeros(len(days), np.int64), days["day"])
        return days, window_edges(key, np.array([0]), np.array([self.SOWING.toordinal()]), params)

    def counts(self, days, params=FIRST_THREE):
        """Days in each growth-window week."""
        return np.diff(self.edges(days, params)[1][0]).tolist()

    def aggregate(self, days, params):
        days, edges = self.edges(days, params)
        return aggregate_windows(days, np.arange(len(days)), edges, params.min_days_per_week)

    def test_sowing_day_is_week_one(self):
        assert self.counts([day(self.SOWING)]) == [1, 0, 0]

    def test_day_seven_starts_week_two(self):
        assert self.counts([day(date(2017, 10, 8))]) == [0, 1, 0]

    def test_pre_sowing_excluded(self):
        assert self.counts([day(date(2017, 9, 30))]) == [0, 0, 0]

    def test_week_boundaries(self):
        days = [day(self.SOWING + timedelta(days=i)) for i in range(15)]
        assert self.counts(days) == [7, 7, 1]

    def test_only_window_weeks_with_enough_days(self):
        days = [day(self.SOWING + timedelta(days=i)) for i in range(33)]
        params = FeatureParams(week_start=2, week_end=5, min_days_per_week=6)
        assert self.counts(days, params) == [7, 7, 7, 5]
        _, complete, _ = self.aggregate(days, params)
        assert complete.tolist() == [[True, True, True, False]]

    def test_overflow_names_the_week(self):
        days = [day(self.SOWING + timedelta(days=i), precip=1e308 if i in (8, 9) else 1.0)
                for i in range(21)]
        _, _, overflow = self.aggregate(days, self.FIRST_THREE)
        assert self.FIRST_THREE.weeks()[overflow[0]] == 2


# day ordinals where a zone's rows and its windows start: the first
# ordinal, an ordinary date, and near the top of a zone's key range
BASES = (1, date(2017, 10, 1).toordinal(), 2**32 - 60)


@pytest.mark.parametrize("window", [
    dict(week_start=5, week_end=4),
    dict(week_start=0),
    dict(week_end=54),
    dict(min_days_per_week=0),
    dict(min_days_per_week=8),
])
def test_bad_window_refused(window):
    with pytest.raises(ValueError):
        FeatureParams(**window)


def reference_window_edges(zone_days, zone, sowing, params):
    """``window_edges`` by one search in each zone's own sorted days;
    ``zone_days[z]`` are the days of zone code z, codes past the list
    have none."""
    weeks = params.weeks()
    lo = np.cumsum([0] + [len(days) for days in zone_days])
    out = []
    for z, sown in zip(zone, sowing):
        days = sorted(zone_days[z]) if z < len(zone_days) else []
        starts = sown + 7 * np.arange(weeks.start - 1, weeks.stop)
        out.append(lo[min(z, len(zone_days))] + np.searchsorted(days, starts))
    return np.array(out).reshape(len(zone), len(weeks) + 1)


@settings(max_examples=200, deadline=None)
@given(
    zones=st.lists(st.tuples(st.sampled_from(BASES), st.lists(st.integers(0, 59), max_size=30)),
                   min_size=1, max_size=4),
    zone_years=st.lists(st.tuples(st.integers(0, 4), st.sampled_from(BASES),
                                  st.integers(-30, 60)), max_size=8),
    week_start=st.integers(1, 4),
    n_weeks=st.integers(1, 6),
)
# windows past the top of zone 0's days, and before the start of zone 1's,
# while the adjacent zone has rows there
@example(zones=[(2**32 - 60, list(range(60))), (1, list(range(12)))],
         zone_years=[(0, 2**32 - 60, 55)], week_start=1, n_weeks=2)
@example(zones=[(2**32 - 60, list(range(50, 60))), (1, list(range(12)))],
         zone_years=[(1, 1, -25)], week_start=1, n_weeks=2)
def test_window_edges_match_per_zone_search(zones, zone_years, week_start, n_weeks):
    params = FeatureParams(week_start, week_start + n_weeks - 1, 1)
    zone_days = [[base + offset for offset in offsets] for base, offsets in zones]
    code = np.array([z for z, days in enumerate(zone_days) for _ in days], np.int64)
    days = np.array([d for days in zone_days for d in days], np.int64)
    key = np.sort(zone_day_key(code, days))
    zone = np.array([z for z, _, _ in zone_years], np.int64)
    sowing = np.array([base + offset for _, base, offset in zone_years], np.int64)

    edges = window_edges(key, zone, sowing, params)

    assert edges.shape == (len(zone_years), n_weeks + 1)
    assert edges.tolist() == reference_window_edges(zone_days, zone, sowing, params).tolist()
    for z, row in zip(zone.tolist(), edges):
        assert (key[row[0]:row[-1]] // 2**32 == z).all()  # no week takes another zone's rows
        if z >= len(zone_days) or not zone_days[z]:
            assert (np.diff(row) == 0).all()  # a zone with no weather misses every week


class TestWeeklyAggregate:
    def test_hand_evaluated_week(self):
        pairs = [(10, 2), (12, 4), (8, 0), (6, -2), (14, 6), (10, 2), (4, -6)]
        sowing = date(2017, 10, 1)
        days = [
            day(sowing + timedelta(days=i), t_max=hi, t_min=lo)
            for i, (hi, lo) in enumerate(pairs)
        ]
        agg = weekly_aggregate(table(days))
        assert agg.dd_sum == pytest.approx(36.0)
        assert agg.egd_total == 4
        assert agg.t_avg == pytest.approx(35.0 / 7.0)

    def test_all_cold_week_has_zero_egd(self):
        days = [day(date(2017, 1, 1) + timedelta(days=i), t_max=4.0, t_min=0.0)
                for i in range(7)]
        assert weekly_aggregate(table(days)).egd_total == 0

    def test_zero_precip_sums_to_zero(self):
        days = [day(date(2017, 1, 1) + timedelta(days=i), precip=0.0) for i in range(7)]
        assert weekly_aggregate(table(days)).ap_sum == 0.0

    def test_empty_bucket_is_error(self):
        with pytest.raises(ValueError):
            weekly_aggregate(table([]))

    def test_more_than_seven_days_is_error(self):
        days = [day(date(2017, 1, 1) + timedelta(days=i)) for i in range(8)]
        with pytest.raises(ValueError):
            weekly_aggregate(table(days))

    def test_permutation_invariant_exactly(self):
        rng = random.Random(7)
        days = [
            day(date(2017, 1, 1) + timedelta(days=i),
                t_max=rng.uniform(-5, 25), t_min=rng.uniform(-15, 5),
                precip=rng.uniform(0, 12), solar=rng.uniform(0, 20),
                humidity=rng.uniform(40, 100))
            for i in range(7)
        ]
        base = weekly_aggregate(table(days))
        for _ in range(10):
            rng.shuffle(days)
            assert weekly_aggregate(table(days)) == base

    def test_identical_days_week(self):
        days = [day(date(2017, 1, 1) + timedelta(days=i), t_max=12.0, t_min=4.0)
                for i in range(7)]
        agg = weekly_aggregate(table(days))
        assert agg.t_avg == pytest.approx(8.0)
        assert agg.dd_sum == pytest.approx(7 * 8.0)

    def test_egd_within_day_count(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 7)
            days = []
            for i in range(n):
                t_min, t_max = sorted((rng.uniform(-20, 10), rng.uniform(-10, 30)))
                days.append(day(date(2017, 1, 1) + timedelta(days=i), t_max=t_max, t_min=t_min))
            agg = weekly_aggregate(table(days))
            assert 0 <= agg.egd_total <= n
            assert agg.dd_sum >= 0.0


def season(n_days=280, zone="Z1", sowing=date(2017, 10, 1)):
    return [day(sowing + timedelta(days=i), zone=zone) for i in range(n_days)]


class TestBuildInstance:
    """One zone-year row, as ``build_instances`` fills it."""

    def test_complete_window_gives_152_features(self):
        instances, skipped = build_instances(
            [crop_record()], [soil_record()], weather_of(season()), MODE_SOIL_WEATHER
        )
        assert skipped == []
        assert instances.rows.shape == (1, 152)
        assert instances.column_names == feature_names(MODE_SOIL_WEATHER)

    def test_soil_only_needs_no_weather(self):
        instances, skipped = build_instances(
            [crop_record()], [soil_record()], weather_of([]), MODE_SOIL
        )
        assert skipped == []
        assert instances.rows.shape == (1, 8)
        assert instances.meta == [("Z1", 2018)] and list(instances.target) == [9.0]

    def test_missing_week_rejected_by_name(self):
        days = season()
        del days[275]  # one of week 40's days
        instances, skipped = build_instances(
            [crop_record()], [soil_record()], weather_of(days), MODE_SOIL_WEATHER
        )
        assert len(instances) == 0
        got = skipped[0]
        assert isinstance(got, InstanceRejection)
        assert got.reason == "missing weeks [40] in growth window"

    def test_ordinals_encoded(self):
        instances, _ = build_instances(
            [crop_record()], [soil_record()], weather_of(season()), MODE_SOIL_WEATHER
        )
        row = dict(zip(instances.column_names, instances.rows[0].tolist()))
        assert row["soil_type"] == 1.0
        assert row["caco3"] == 2.0


class TestColumnOrder:
    def test_documented_order(self):
        names = feature_names(MODE_SOIL_WEATHER)
        assert names[:8] == ["p", "k", "mg", "ph", "soil_type", "stone_content",
                             "organic_matter", "caco3"]
        assert names[8:14] == ["w17_t_avg", "w17_dd_sum", "w17_egd_total",
                               "w17_ap_sum", "w17_sr_sum", "w17_h_avg"]
        assert names[-1] == "w40_h_avg"
        assert len(names) == 152
        assert len(set(names)) == 152


class TestBuildMatrix:
    def make_instances(self, n, mode=MODE_SOIL_WEATHER):
        sowing = date(2017, 10, 1)
        crops = [CropRecord(f"Z{i}", 2018, sowing, date(2018, 8, 1), 9.0 + i) for i in range(n)]
        soils = [replace(soil_record(), zone_id=f"Z{i}", p=20.0 + i) for i in range(n)]
        days = [d for i in range(n) for d in season(zone=f"Z{i}", sowing=sowing)]
        instances, skipped = build_instances(crops, soils, weather_of(days), mode)
        assert skipped == []
        return instances

    def test_shape_and_order(self):
        instances = self.make_instances(5)
        dm = build_matrix(instances, MODE_SOIL_WEATHER)
        assert dm.rows.shape == (5, 152)
        assert dm.meta == [(f"Z{i}", 2018) for i in range(5)]
        assert list(dm.target) == [9.0 + i for i in range(5)]

    def test_empty_matrix_keeps_columns(self):
        dm = build_matrix(self.make_instances(0), MODE_SOIL_WEATHER)
        assert dm.rows.shape == (0, 152)
        assert len(dm.column_names) == 152

    def test_duplicate_zone_year_is_error(self):
        instances = self.make_instances(2)
        with pytest.raises(ValueError, match="duplicate"):
            build_matrix(instances.take(np.array([0, 0])), MODE_SOIL_WEATHER)

    def test_shuffle_rows_permutes_matrix(self):
        instances = self.make_instances(6)
        dm = build_matrix(instances, MODE_SOIL_WEATHER)
        perm = [3, 1, 5, 0, 2, 4]
        dm2 = build_matrix(instances.take(np.array(perm)), MODE_SOIL_WEATHER)
        assert np.array_equal(dm2.rows, dm.rows[perm])

    def test_soil_matrix_from_weather_instances(self):
        dm = build_matrix(self.make_instances(3), MODE_SOIL)
        assert dm.rows.shape == (3, 8)

    def test_soil_cut_is_the_soil_matrix(self):
        cut = build_matrix(self.make_instances(4), MODE_SOIL)
        alone = build_matrix(self.make_instances(4, MODE_SOIL), MODE_SOIL)
        assert cut.column_names == alone.column_names == feature_names(MODE_SOIL)
        assert np.array_equal(cut.rows, alone.rows)
        assert np.array_equal(cut.target, alone.target)
        assert cut.meta == alone.meta

    def test_weather_columns_need_weather_instances(self):
        with pytest.raises(ValueError, match="soil_weather columns"):
            build_matrix(self.make_instances(2, MODE_SOIL), MODE_SOIL_WEATHER)

    def test_non_finite_rejected(self):
        instances = self.make_instances(1)
        instances.rows[0, 0] = float("inf")
        with pytest.raises(ValueError, match="non-finite"):
            build_matrix(instances, MODE_SOIL_WEATHER)

    def test_construction_is_deterministic(self):
        instances = self.make_instances(6)
        a = build_matrix(instances, MODE_SOIL_WEATHER)
        b = build_matrix(instances, MODE_SOIL_WEATHER)
        assert a.column_names == b.column_names
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.target, b.target)
        assert a.meta == b.meta


class TestBuildInstancesPipeline:
    def they(self, n_days, min_days=7):
        sowing = date(2017, 10, 1)
        days = [day(sowing + timedelta(days=i)) for i in range(n_days)]
        crop = CropRecord("Z1", 2018, sowing, sowing + timedelta(days=310), 9.0)
        params = FeatureParams(min_days_per_week=min_days)
        return build_instances([crop], [soil_record()], weather_of(days), MODE_SOIL_WEATHER, params)

    def test_full_season_builds(self):
        instances, skipped = self.they(280)
        assert len(instances) == 1 and skipped == []

    def test_incomplete_final_week_skipped(self):
        instances, skipped = self.they(279)
        assert len(instances) == 0
        assert [s.reason for s in skipped] == ["missing weeks [40] in growth window"]

    def test_min_days_override_accepts_partial_week(self):
        instances, skipped = self.they(279, min_days=6)
        assert len(instances) == 1 and skipped == []

    def test_no_past_soil_test_skipped(self):
        sowing = date(2017, 10, 1)
        days = [day(sowing + timedelta(days=i)) for i in range(280)]
        crop = CropRecord("Z1", 2018, sowing, sowing + timedelta(days=310), 9.0)
        old = SoilRecord("Z1", 2019, 25.0, 180.0, 60.0, 6.8,
                         "medium", "low", "moderate", "calc")
        instances, skipped = build_instances([crop], [old], weather_of(days), MODE_SOIL_WEATHER)
        assert len(instances) == 0
        assert "soil test" in skipped[0].reason

    def test_row_order_and_other_zones_do_not_matter(self):
        sowing = date(2017, 10, 1)
        crop = CropRecord("Z1", 2018, sowing, sowing + timedelta(days=310), 9.0)
        rng = random.Random(5)
        days = [day(sowing + timedelta(days=i), precip=rng.uniform(0, 9), zone=zone)
                for i in range(280) for zone in ("Z1", "Z2")]
        ours = [d for d in days if d[0] == "Z1"]
        rng.shuffle(days)
        mixed, _ = build_instances([crop], [soil_record()], weather_of(days), MODE_SOIL_WEATHER)
        alone, _ = build_instances([crop], [soil_record()], weather_of(ours), MODE_SOIL_WEATHER)
        assert len(mixed) == 1
        assert mixed.column_names == alone.column_names
        assert np.array_equal(mixed.rows, alone.rows)
        assert np.array_equal(mixed.target, alone.target)
        assert mixed.meta == alone.meta


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@st.composite
def fsum_row(draw):
    """1..7 doubles of exponents -1074..1023 (subnormals and +-0.0 too),
    often close in magnitude or cancelling, so additions round."""
    n = draw(st.integers(1, 7))
    top = draw(st.integers(-1074, 971))
    spread = draw(st.sampled_from([0, 1, 53, 110, 2045]))
    row: list[float] = []
    for _ in range(n):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            row.append(draw(st.sampled_from([0.0, -0.0])))
        elif kind == 1 and row:
            row.append(-draw(st.sampled_from(row)))
        else:
            exponent = max(top - draw(st.integers(0, spread)), -1074)
            row.append(math.ldexp(draw(st.integers(-(2**53) + 1, 2**53 - 1)), exponent))
    return row


class TestFsumRows:
    """``fsum_rows`` against math.fsum, row by row and bit for bit."""

    @staticmethod
    def check(batch):
        width = max(len(row) for row in batch)
        x = np.full((len(batch), width), -0.0)
        for i, row in enumerate(batch):
            x[i, : len(row)] = row
        sums, raised = fsum_rows(x, np.array([len(row) for row in batch]))
        for i, row in enumerate(batch):
            try:
                want = math.fsum(row)
            except (OverflowError, ValueError) as exc:
                assert type(raised[i]) is type(exc) and str(raised[i]) == str(exc)
                continue
            assert i not in raised
            assert bits(sums[i]) == bits(want), row

    @settings(max_examples=400, deadline=None)
    @given(st.lists(fsum_row(), min_size=1, max_size=12))
    @example([[1.0, 2.0**-53, 2.0**-106]])  # a half-even tie broken by the third term
    @example([[1.0, 2.0**-53, -(2.0**-106)], [2.0**-53, 1.0, 2.0**-106, 2.0**-160]])
    @example([[1.0, -1.0], [-0.0], [0.0, -0.0], [5e-324, -5e-324]])  # zero sums
    @example([[-0.0]])  # a one-term batch: no cascade at all
    @example([[1e308, 1e308], [1e308, 1e308, -1e308]])  # fsum's OverflowError
    @example([[-1e308, 2.0**970, sys.float_info.max]])  # fsum overflows, the exact sum does not
    @example([[math.inf, 1.0], [math.inf, -math.inf], [math.nan, 2.0]])
    def test_equals_fsum_bit_for_bit(self, batch):
        self.check(batch)

    def test_most_rows_are_proved_by_the_cascade(self, monkeypatch):
        x = np.round(np.random.default_rng(4).normal(8.0, 6.0, (1000, 7)), 1)
        want = [math.fsum(row) for row in x.tolist()]
        calls = []
        real_fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda values: calls.append(values) or real_fsum(values))
        sums, raised = fsum_rows(x, np.full(1000, 7))
        assert raised == {} and len(calls) < 10
        assert bits(sums) == bits(want)


def reference_weekly_aggregate(week, week_index=0):
    """The per-week aggregation, one Python loop per week."""
    n = len(week)
    if n == 0:
        raise ValueError("empty week bucket")
    if n > 7:
        raise ValueError(f"week bucket has {n} days, at most 7 allowed")
    means = [(hi + lo) / 2.0 for hi, lo in zip(week["t_max"].tolist(), week["t_min"].tolist())]
    return WeeklyWeather(
        week_index=week_index,
        t_avg=math.fsum(means) / n,
        dd_sum=math.fsum(max(0.0, m) for m in means),
        egd_total=sum(1 for m in means if m > EGD_THRESHOLD_C),
        ap_sum=math.fsum(week["precip"].tolist()),
        sr_sum=math.fsum(week["solar"].tolist()),
        h_avg=math.fsum(week["humidity"].tolist()) / n,
    )


def reference_window_weeks(days, sowing, params):
    weeks = params.weeks()
    starts = sowing + 7 * np.arange(weeks.start - 1, weeks.stop)
    edges = np.searchsorted(days["day"], starts).tolist()
    out = {}
    for week, lo, hi in zip(weeks, edges, edges[1:]):
        if hi - lo >= params.min_days_per_week:
            try:
                out[week] = reference_weekly_aggregate(days[lo:hi], week)
            except OverflowError:
                raise OverflowError(f"weekly aggregate overflows in week {week}") from None
    return out


def reference_instances(crops, soils, weather, params):
    """(rows, targets, meta, skipped) of soil_weather instances, one
    zone-year and one week at a time."""
    rows, targets, meta, skipped = [], [], [], []
    for crop in crops:
        soil = carry_forward_soil(soils, crop.zone_id, crop.year)
        if soil is None:
            reason = f"no soil test at or before {crop.year}"
            skipped.append(InstanceRejection(crop.zone_id, crop.year, reason))
            continue
        code = weather.zones.index(crop.zone_id) if crop.zone_id in weather.zones else -1
        days = weather.table[weather.table["zone"] == code]
        days = days[np.argsort(days["day"], kind="stable")]
        try:
            weeks = reference_window_weeks(days, crop.sowing_date.toordinal(), params)
        except OverflowError as exc:
            skipped.append(InstanceRejection(crop.zone_id, crop.year, str(exc)))
            continue
        missing = tuple(w for w in params.weeks() if w not in weeks)
        if missing:
            reason = f"missing weeks {list(missing)} in growth window"
            skipped.append(InstanceRejection(crop.zone_id, crop.year, reason))
            continue
        weekly = [
            v
            for w in params.weeks()
            for v in (weeks[w].t_avg, weeks[w].dd_sum, weeks[w].egd_total,
                      weeks[w].ap_sum, weeks[w].sr_sum, weeks[w].h_avg)
        ]
        rows.append(list(soil_feature_values(soil).values()) + weekly)
        targets.append(crop.yield_t_ha)
        meta.append((crop.zone_id, crop.year))
    return rows, targets, meta, skipped


@pytest.mark.parametrize("t_max, t_min", [(1e308, 1e308), (math.inf, -math.inf), (math.nan, 1.0)])
def test_non_finite_means_as_python_floats_give_them(t_max, t_min):
    week = table([day(date(2017, 1, 1) + timedelta(days=i), t_max=t_max, t_min=t_min)
                  for i in range(7)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = weekly_aggregate(week)
    assert repr(got) == repr(reference_weekly_aggregate(week))


class TestBatchedWindows:
    """``build_instances`` aggregates every zone-year's weeks in one batch;
    it must give the per-week reference's bits, rows and skip reasons."""

    SOWING = date(2017, 10, 1).toordinal()

    def assert_same(self, crops, soils, weather, params):
        got, skipped = build_instances(crops, soils, weather, MODE_SOIL_WEATHER, params)
        rows, targets, meta, want_skipped = reference_instances(crops, soils, weather, params)
        assert skipped == want_skipped
        assert got.meta == meta
        assert bits(got.rows) == bits(np.array(rows).reshape(len(rows), got.n_cols))
        assert bits(got.target) == bits(targets)
        return skipped

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        week_start=st.integers(1, 4),
        n_weeks=st.integers(1, 4),
        min_days=st.integers(1, 7),
        keep=st.sampled_from([0.55, 0.85, 1.0]),
    )
    def test_matches_per_week_reference(self, seed, week_start, n_weeks, min_days, keep):
        rng = np.random.default_rng(seed)
        params = FeatureParams(week_start, week_start + n_weeks - 1, min_days)
        last = 7 * params.week_end + 8
        cells = []
        for zone in ("Z0", "Z1", "Z2"):  # Z3 has crops and no weather
            for offset in range(-9, last):
                if rng.random() < keep:
                    t_min, t_max = np.round(rng.normal(6.0, 8.0, 2), 1).tolist()
                    if rng.random() < 0.1:
                        t_min, t_max = -0.0, rng.choice([-0.0, 0.0])
                    precip = 0.0 if rng.random() < 0.5 else float(rng.exponential(3.0))
                    if rng.random() < 0.03:
                        precip = 1e308
                    cells.append((zone, self.SOWING + offset, t_min, t_max, precip,
                                  float(rng.uniform(0.0, 25.0)), round(rng.uniform(40, 100), 1)))
        weather = weather_of([cells[i] for i in rng.permutation(len(cells))])
        crops = [
            CropRecord(zone, year, date.fromordinal(self.SOWING + int(rng.integers(-4, 5))),
                       date(year, 8, 1), round(float(rng.uniform(5, 12)), 2))
            for zone in ("Z0", "Z1", "Z2", "Z3") for year in (2018, 2019)
        ]
        soils = [replace(soil_record(), zone_id=zone, test_year=int(rng.choice([2016, 2019])))
                 for zone in ("Z0", "Z1", "Z2", "Z3")]
        self.assert_same(crops, soils, weather, params)

    def season_with(self, precip_by_offset, n_days=21, missing=()):
        sowing = date.fromordinal(self.SOWING)
        return weather_of([
            day(sowing + timedelta(days=i), precip=precip_by_offset.get(i, 1.0))
            for i in range(n_days) if i not in missing
        ])

    def test_overflow_after_incomplete_week_names_the_later_week(self):
        weather = self.season_with({8: 1e308, 9: 1e308}, missing=(2,))
        params = FeatureParams(week_start=1, week_end=3)
        skipped = self.assert_same([crop_record()], [soil_record()], weather, params)
        assert [s.reason for s in skipped] == ["weekly aggregate overflows in week 2"]

    def test_first_overflowing_week_is_named_whichever_sum_overflows(self):
        sowing = date.fromordinal(self.SOWING)
        weather = weather_of([
            day(sowing + timedelta(days=i),
                precip=1e308 if i in (8, 9) else 1.0,  # week 2's precipitation
                t_max=1e308 if 14 <= i < 18 else 10.0, t_min=0.0)  # week 3's mean temperature
            for i in range(21)
        ])
        params = FeatureParams(week_start=1, week_end=3)
        skipped = self.assert_same([crop_record()], [soil_record()], weather, params)
        assert [s.reason for s in skipped] == ["weekly aggregate overflows in week 2"]

    def test_overflow_in_incomplete_week_is_missing_week(self):
        weather = self.season_with({8: 1e308, 9: 1e308}, missing=(10,))
        params = FeatureParams(week_start=1, week_end=3)
        skipped = self.assert_same([crop_record()], [soil_record()], weather, params)
        assert [s.reason for s in skipped] == ["missing weeks [2] in growth window"]

    def test_eight_rows_in_one_week_is_error(self):
        weather = self.season_with({})  # and a second row for day 8:
        weather = replace(weather, table=np.concatenate([weather.table, weather.table[8:9]]))
        params = FeatureParams(week_start=1, week_end=3)
        with pytest.raises(ValueError, match=r"^week bucket has 8 days, at most 7 allowed$"):
            build_instances([crop_record()], [soil_record()], weather, MODE_SOIL_WEATHER, params)


@pytest.fixture(scope="module")
def default_scale(tmp_path_factory):
    """The default synth config's soil tests, crops and weather.csv."""
    soils, weather, crops = generate_records(GenConfig())
    path = tmp_path_factory.mktemp("default_scale") / "weather.csv"
    write_weather_csv(weather, path)
    return soils, crops, path, len(weather)


def traced_peak(call):
    """``call()``'s result and the most memory it held at once beyond what
    was held before it, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestMemory:
    """Peaks bounded by the design, not by a measurement: what must be live
    at once, with the parts that do not grow with the table bounded by a
    multiple of the block or by what the table-sized parts leave."""

    @pytest.mark.parametrize("copy", ["tokenizer", "quoted"])
    def test_parse_weather_holds_the_table_three_row_columns_and_one_block(
            self, default_scale, tmp_path, copy):
        _, _, path, n = default_scale
        if copy == "quoted":  # the csv.reader row loop fills the same table
            (tmp_path / "weather.csv").write_bytes(_quoted(path.read_bytes()))
            path = tmp_path / "weather.csv"
        (weather, log), peak = traced_peak(lambda: parse_weather(path))
        assert len(weather) == n and len(log) == 0
        # while the file is read, one block's scratch: the block, its padded
        # copy, 8-byte offsets of its commas and rows, the values of one
        # column (the row loop holds one row at a time); while duplicates
        # are sought, the (zone, day) key and the sort order (8 bytes a row
        # each), with the sort's buffer and one slice of sorted keys in the
        # block's share
        assert peak < weather.table.nbytes + 3 * 8 * n + 8 * ingest._BLOCK

    def test_build_instances_holds_one_key_and_one_order(self, default_scale):
        soils, crops, path, n = default_scale
        weather, _ = parse_weather(path)
        (instances, _), peak = traced_peak(
            lambda: build_instances(crops, soils, weather, MODE_SOIL_WEATHER))
        matrix = len(crops) * len(instances.column_names) * 8
        # the key, its sort order and, for a moment, its sorted copy (8
        # bytes a row each); then the per-week aggregates and the instance
        # matrix (one matrix each), while the gathering passes' few MB fit
        # in the 16 bytes a row the two keys leave
        assert peak < 3 * 8 * n + 2 * matrix

    def test_generate_records_rows_hold_no_object(self):
        _, weather, _ = generate_records(GenConfig(years={2018: YearSpec(2, 9.4, 1.7)}))
        assert not WEATHER_DTYPE.hasobject and weather.table.dtype == WEATHER_DTYPE

    def test_generate_records_holds_the_table_and_one_chunk_of_scratch(self):
        generate_records(GenConfig(years={2018: YearSpec(2, 9.4, 1.7)}))  # one-time caches
        (_, weather, crops), peak = traced_peak(lambda: generate_records(GenConfig()))
        # one chunk's daily draws and arithmetic: at most 16 float columns
        # of _CHUNK_ZONE_YEARS * DAYS_PER_SEASON cells at once (six draws,
        # the day ordinals, the temperature terms, numpy's temporaries and
        # the window key); beside them, each zone-year's crop record, soil
        # tests and window sums, under 1 kB
        chunk = 16 * 8 * _CHUNK_ZONE_YEARS * DAYS_PER_SEASON
        assert peak < weather.table.nbytes + chunk + 1024 * len(crops)
