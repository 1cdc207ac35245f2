import math
import sys
import tracemalloc
from datetime import date

import numpy as np
import pytest

from wheatyield.domain import WEATHER_DTYPE, CropRecord, validate, weather_rejections
from wheatyield.features import FeatureParams, soil_feature_values
from wheatyield.ingest import carry_forward_soil, parse_crop, parse_soil, parse_weather
from test_features import reference_window_weeks
from wheatyield import synthgen
from wheatyield.synthgen import (
    _CROP,
    _HUM_TROUGH,
    _SOL_PEAK,
    _T_PEAK,
    _WEATHER,
    _WET_PEAK,
    DAYS_PER_SEASON,
    GenConfig,
    YearSpec,
    gen_dataset,
    gen_sowing,
    gen_weather,
    gen_yield,
    generate_records,
    _rng,
    _seasonal,
    soil_tests_for_zone,
    zone_roster,
)

SMALL = GenConfig(
    years={2016: YearSpec(12, 9.9, 1.4), 2017: YearSpec(10, 10.2, 1.8),
           2018: YearSpec(10, 9.4, 1.7)},
    zone_pool=20,
    seed=5,
)


def window_totals(days):
    """Degree-day and precipitation totals over one zone-year's window weeks."""
    weekly = reference_window_weeks(days, int(days["day"][0]), FeatureParams()).values()
    return sum(w.dd_sum for w in weekly), sum(w.ap_sum for w in weekly)


class TestGenWeather:
    def test_covers_full_season(self):
        days = gen_weather(3, 2017, SMALL, seed=5)
        assert len(days) == DAYS_PER_SEASON
        assert days["day"][0] == gen_sowing(3, 2017, SMALL, seed=5).toordinal()
        assert np.array_equal(np.diff(days["day"]), np.ones(DAYS_PER_SEASON - 1))
        assert set(days["zone_id"]) == {SMALL.zone_id(3)}

    def test_records_pass_validation(self):
        assert weather_rejections(gen_weather(1, 2018, SMALL, seed=5)) == {}

    def test_tmin_strictly_below_tmax(self):
        days = gen_weather(2, 2016, SMALL, seed=5)
        assert (days["t_min"] < days["t_max"]).all()

    def test_humidity_clipped(self):
        humid = GenConfig(years=SMALL.years, zone_pool=20, hum_base=97.0, hum_sd=9.0)
        values = gen_weather(0, 2017, humid, seed=1)["humidity"]
        assert max(values) <= 100.0 and min(values) >= 0.0

    def test_deterministic(self):
        a = gen_weather(4, 2018, SMALL, seed=9)
        b = gen_weather(4, 2018, SMALL, seed=9)
        assert a.tolist() == b.tolist()

    def test_summer_warmer_than_winter_in_expectation(self):
        # Monte Carlo across many zone-seasons: July daily means minus
        # January daily means under the configured sinusoid
        july, january = [], []
        for zone in range(25):
            for _, day, t_min, t_max, _, _, _ in gen_weather(zone, 2017, SMALL, seed=3).tolist():
                mean = (t_max + t_min) / 2
                month = date.fromordinal(day).month
                if month == 7:
                    july.append(mean)
                elif month == 1:
                    january.append(mean)
        assert len(july) > 250 and len(january) > 400
        assert np.mean(july) > np.mean(january) + 8.0


class TestGenSoil:
    def test_record_passes_validation(self):
        for zone in range(30):
            assert validate(soil_tests_for_zone(zone, SMALL, seed=5)[0]) is None

    def test_ph_within_bounds(self):
        for zone in range(50):
            rec = soil_tests_for_zone(zone, SMALL, seed=2)[0]
            assert 0.0 <= rec.ph <= 14.0

    def test_deterministic(self):
        assert soil_tests_for_zone(7, SMALL, seed=4)[0] == soil_tests_for_zone(7, SMALL, seed=4)[0]

    def test_schedule_gaps_are_three_or_four_years(self):
        tests = soil_tests_for_zone(11, SMALL, seed=5)
        years = [t.test_year for t in tests]
        assert years == sorted(years)
        assert all(gap in (3, 4) for gap in np.diff(years))

    def test_many_zones_require_carry_forward(self):
        # most zones' latest test predates a given crop year
        stale = 0
        for zone in range(200):
            tests = soil_tests_for_zone(zone, SMALL, seed=5)
            latest = max(t.test_year for t in tests if t.test_year <= 2018)
            if latest < 2018:
                stale += 1
        assert stale > 0


class TestGenYield:
    def totals(self, zone=1, year=2017, seed=5, cfg=SMALL):
        return window_totals(gen_weather(zone, year, cfg, seed))

    def test_zero_weather_weight_removes_weather_dependence(self):
        cfg = SMALL.with_(weather_weight=0.0)
        soil = soil_feature_values(soil_tests_for_zone(1, cfg, seed=5)[0])
        y1 = gen_yield(soil, *self.totals(zone=1, cfg=cfg), cfg, 5, zone=1, year=2017)
        y2 = gen_yield(soil, *self.totals(zone=2, cfg=cfg), cfg, 5, zone=1, year=2017)
        assert y1 == y2

    def test_weather_weight_changes_yield(self):
        soil = soil_feature_values(soil_tests_for_zone(1, SMALL, seed=5)[0])
        y1 = gen_yield(soil, *self.totals(zone=1), SMALL, 5, zone=1, year=2017)
        y2 = gen_yield(soil, *self.totals(zone=2), SMALL, 5, zone=1, year=2017)
        assert y1 != y2

    def test_yields_within_validation_range(self):
        for zone in range(40):
            soil = soil_feature_values(soil_tests_for_zone(zone, SMALL, seed=5)[0])
            y = gen_yield(soil, *self.totals(zone=zone), SMALL, 5, zone=zone, year=2018)
            assert 1.0 <= y <= 18.0

    def test_cohort_moments_near_targets(self):
        cfg = GenConfig(years={2018: YearSpec(264, 9.36, 1.75)}, zone_pool=300, seed=0)
        _, _, crops = generate_records(cfg)
        values = np.array([c.yield_t_ha for c in crops])
        assert values.mean() == pytest.approx(9.36, abs=0.35)
        assert values.std(ddof=1) == pytest.approx(1.75, abs=0.35)


def reference_gen_weather(zone, year, cfg, seed):
    """``gen_weather`` for one zone-year with its own arithmetic: the block
    generator's independent one-zone-year copy."""
    sowing = gen_sowing(zone, year, cfg, seed)
    rng = _rng(seed, _WEATHER, zone, year)
    n = DAYS_PER_SEASON
    days = np.zeros(n, WEATHER_DTYPE)
    days["zone_id"] = sys.intern(cfg.zone_id(zone))
    days["day"] = ordinals = sowing.toordinal() + np.arange(n)

    zone_offset = rng.normal(0.0, cfg.t_zone_sd)
    t_mean = (
        _seasonal(ordinals, cfg.t_base, cfg.t_amp, _T_PEAK)
        + zone_offset
        + rng.normal(0.0, cfg.t_daily_sd, n)
    )
    half = np.maximum(
        cfg.t_halfrange + rng.normal(0.0, cfg.t_halfrange_sd, n), cfg.t_halfrange_min
    )
    days["t_min"] = np.round(t_mean - half, 1)
    days["t_max"] = np.round(t_mean + half, 1)

    zone_wet = math.exp(rng.normal(0.0, cfg.zone_wet_sd))
    wet_prob = np.clip(
        _seasonal(ordinals, cfg.wet_prob_base, cfg.wet_prob_amp, _WET_PEAK), 0.02, 0.98
    )
    wet = rng.random(n) < wet_prob
    days["precip"] = np.round(rng.exponential(cfg.rain_scale_mm, n) * wet * zone_wet, 2)

    days["solar"] = np.round(
        np.clip(
            _seasonal(ordinals, cfg.sol_base, cfg.sol_amp, _SOL_PEAK)
            + rng.normal(0.0, cfg.sol_sd, n),
            0.0,
            None,
        ),
        2,
    )
    days["humidity"] = np.round(
        np.clip(
            _seasonal(ordinals, cfg.hum_base, -cfg.hum_amp, _HUM_TROUGH)
            + rng.normal(0.0, cfg.hum_sd, n),
            0.0,
            100.0,
        ),
        1,
    )
    return days


def reference_records(cfg, params):
    """``generate_records`` one zone-year at a time, each window aggregated
    one week at a time; also returns each zone-year's window totals."""
    seed = cfg.seed
    rosters = {year: zone_roster(year, cfg, seed) for year in sorted(cfg.years)}
    used_zones = sorted({z for roster in rosters.values() for z in roster})
    tests_by_zone = {zone: soil_tests_for_zone(zone, cfg, seed) for zone in used_zones}
    soil = [rec for zone in used_zones for rec in tests_by_zone[zone]]
    weather, crops, totals = [], [], []
    for year in sorted(cfg.years):
        for zone in rosters[year]:
            days = reference_gen_weather(zone, year, cfg, seed)
            weather.append(days)
            sowing = int(days["day"][0])
            weekly = reference_window_weeks(days, sowing, params)
            dd_total = sum(weekly[w].dd_sum for w in params.weeks() if w in weekly)
            ap_total = sum(weekly[w].ap_sum for w in params.weeks() if w in weekly)
            totals.append((dd_total, ap_total))
            soil_rec = carry_forward_soil(tests_by_zone[zone], cfg.zone_id(zone), year)
            features = soil_feature_values(soil_rec)
            y = gen_yield(features, dd_total, ap_total, cfg, seed, zone, year)
            jitter = int(_rng(seed, _CROP, zone, year).integers(0, cfg.harvest_jitter_days + 1))
            crops.append(CropRecord(cfg.zone_id(zone), year, date.fromordinal(sowing),
                                    date.fromordinal(sowing + DAYS_PER_SEASON + jitter), y))
    return soil, np.concatenate(weather), crops, totals


class TestGenerateRecords:
    # the last three cut SMALL's 32 zone-years into blocks of 1, 5 and 31
    @pytest.mark.parametrize("cfg, params, chunk", [
        pytest.param(SMALL, FeatureParams(), None, id="cfg0-params0"),
        pytest.param(SMALL.with_(weather_weight=0.0), FeatureParams(), None, id="cfg1-params1"),
        pytest.param(SMALL.with_(seed=8), FeatureParams(week_start=30, week_end=43),  # past day 280
                     None, id="cfg2-params2"),
        pytest.param(SMALL.with_(seed=9),
                     FeatureParams(week_start=38, week_end=41, min_days_per_week=1),
                     None, id="cfg3-params3"),
        *(pytest.param(SMALL, FeatureParams(), chunk, id=f"chunk{chunk}") for chunk in (1, 5, 31)),
    ])
    def test_matches_per_zone_year_reference(self, cfg, params, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(synthgen, "_CHUNK_ZONE_YEARS", chunk)
        totals = []

        def recording_gen_yield(soil, dd_total, ap_total, *rest):
            totals.append((dd_total, ap_total))
            return gen_yield(soil, dd_total, ap_total, *rest)

        monkeypatch.setattr(synthgen, "gen_yield", recording_gen_yield)
        soil, weather, crops = generate_records(cfg, params)
        want_soil, want_weather, want_crops, want_totals = reference_records(cfg, params)
        assert soil == want_soil
        assert weather.tolist() == want_weather.tolist()
        assert crops == want_crops
        assert np.array(totals).view(np.int64).tolist() == (
            np.array(want_totals).view(np.int64).tolist()
        )

    def test_row_counts(self):
        soil, weather, crops = generate_records(SMALL)
        assert len(crops) == 32
        assert len(weather) == 32 * DAYS_PER_SEASON
        assert len(soil) >= 1

    def test_weather_is_one_table_with_one_str_per_zone(self):
        _, weather, crops = generate_records(SMALL)
        assert weather.dtype == WEATHER_DTYPE
        zones = {c.zone_id for c in crops}
        assert set(weather["zone_id"]) == zones
        assert len({id(z) for z in weather["zone_id"]}) == len(zones)

    def test_holds_one_table_and_one_block_of_draws(self):
        # the table, plus one block of zone-years' draws and window sums
        # beside it: half a table is a bound by design, not a measurement
        tracemalloc.start()
        try:
            _, weather, _ = generate_records(GenConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * weather.nbytes

    def test_single_zone_year_counts(self):
        cfg = GenConfig(years={2018: YearSpec(1, 9.4, 1.7)}, zone_pool=1, seed=1)
        soil, weather, crops = generate_records(cfg)
        assert len(crops) == 1
        assert len(weather) >= 280

    def test_roster_respects_counts_and_pool(self):
        roster = zone_roster(2016, SMALL, SMALL.seed)
        assert len(roster) == 12
        assert len(set(roster)) == 12
        assert all(0 <= z < SMALL.zone_pool for z in roster)

    def test_oversized_roster_is_error(self):
        cfg = GenConfig(years={2018: YearSpec(50, 9.4, 1.7)}, zone_pool=10)
        with pytest.raises(ValueError, match="pool"):
            zone_roster(2018, cfg, 0)

    def test_every_record_passes_validation(self):
        soil, weather, crops = generate_records(SMALL)
        for rec in soil[:50] + crops[:50]:
            assert validate(rec) is None
        assert weather_rejections(weather) == {}

    def test_at_least_one_zone_year_needs_carry_forward(self):
        soil, _, crops = generate_records(SMALL)
        by_zone = {}
        for t in soil:
            by_zone.setdefault(t.zone_id, []).append(t.test_year)
        assert any(
            max(y for y in by_zone[c.zone_id] if y <= c.year) < c.year for c in crops
        )


class TestGenDataset:
    def test_files_round_trip_with_zero_rejections(self, tmp_path):
        paths = gen_dataset(SMALL, tmp_path)
        soil, log_s = parse_soil(paths["soil"])
        weather, log_w = parse_weather(paths["weather"])
        crops, log_c = parse_crop(paths["crop"])
        assert len(log_s) == len(log_w) == len(log_c) == 0
        assert len(crops) == 32

    def test_parsed_records_equal_generated_records(self, tmp_path):
        # CSV formatting must not lose precision against the in-memory API
        paths = gen_dataset(SMALL, tmp_path)
        soil, weather, crops = generate_records(SMALL)
        parsed_soil, _ = parse_soil(paths["soil"])
        parsed_weather, _ = parse_weather(paths["weather"])
        parsed_crops, _ = parse_crop(paths["crop"])
        assert parsed_soil == soil
        assert parsed_weather.tolist() == weather.tolist()
        assert parsed_crops == crops

    def test_regeneration_is_byte_identical(self, tmp_path):
        a = gen_dataset(SMALL, tmp_path / "a")
        b = gen_dataset(SMALL, tmp_path / "b")
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = gen_dataset(SMALL, tmp_path / "a")
        b = gen_dataset(SMALL.with_(seed=6), tmp_path / "b")
        assert a["weather"].read_bytes() != b["weather"].read_bytes()

    def test_table_shaped_config_row_count(self, tmp_path):
        counts = {
            2013: 9, 2014: 8, 2015: 9, 2016: 5, 2017: 8, 2018: 6,
        }
        cfg = GenConfig(
            years={y: YearSpec(c, 10.0, 1.5) for y, c in counts.items()},
            zone_pool=12, seed=2,
        )
        paths = gen_dataset(cfg, tmp_path)
        crops, _ = parse_crop(paths["crop"])
        assert len(crops) == sum(counts.values())
