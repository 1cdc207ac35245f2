from datetime import timedelta

import numpy as np
import pytest

from wheatyield.domain import validate
from wheatyield.features import (
    DEFAULT_FEATURE_PARAMS,
    assign_weeks,
    soil_feature_values,
    weekly_aggregate,
)
from wheatyield.ingest import parse_crop, parse_soil, parse_weather
from wheatyield.synthgen import (
    DAYS_PER_SEASON,
    GenConfig,
    YearSpec,
    gen_dataset,
    gen_sowing,
    gen_weather,
    gen_yield,
    generate_records,
    soil_tests_for_zone,
    zone_roster,
)

SMALL = GenConfig(
    years={2016: YearSpec(12, 9.9, 1.4), 2017: YearSpec(10, 10.2, 1.8),
           2018: YearSpec(10, 9.4, 1.7)},
    zone_pool=20,
    seed=5,
)


def weekly_from_days(days):
    buckets = assign_weeks(days, days[0].date)
    return {w: weekly_aggregate(b, w) for w, b in buckets.items()}


class TestGenWeather:
    def test_covers_full_season(self):
        days = gen_weather(3, 2017, SMALL, seed=5)
        assert len(days) == DAYS_PER_SEASON
        assert days[0].date == gen_sowing(3, 2017, SMALL, seed=5)
        assert (days[-1].date - days[0].date).days == DAYS_PER_SEASON - 1

    def test_records_pass_validation(self):
        for day in gen_weather(1, 2018, SMALL, seed=5):
            assert validate(day) is None

    def test_tmin_strictly_below_tmax(self):
        for day in gen_weather(2, 2016, SMALL, seed=5):
            assert day.t_min < day.t_max

    def test_humidity_clipped(self):
        humid = GenConfig(years=SMALL.years, zone_pool=20, hum_base=97.0, hum_sd=9.0)
        values = [d.humidity for d in gen_weather(0, 2017, humid, seed=1)]
        assert max(values) <= 100.0 and min(values) >= 0.0

    def test_deterministic(self):
        a = gen_weather(4, 2018, SMALL, seed=9)
        b = gen_weather(4, 2018, SMALL, seed=9)
        assert a == b

    def test_summer_warmer_than_winter_in_expectation(self):
        # Monte Carlo across many zone-seasons: July daily means minus
        # January daily means under the configured sinusoid
        july, january = [], []
        for zone in range(25):
            for day in gen_weather(zone, 2017, SMALL, seed=3):
                mean = (day.t_max + day.t_min) / 2
                if day.date.month == 7:
                    july.append(mean)
                elif day.date.month == 1:
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
    def weekly(self, zone=1, year=2017, seed=5, cfg=SMALL):
        return weekly_from_days(gen_weather(zone, year, cfg, seed))

    def test_zero_weather_weight_removes_weather_dependence(self):
        cfg = SMALL.with_(weather_weight=0.0)
        soil = soil_feature_values(soil_tests_for_zone(1, cfg, seed=5)[0])
        y1 = gen_yield(soil, self.weekly(zone=1, cfg=cfg), cfg, 5, zone=1, year=2017)
        y2 = gen_yield(soil, self.weekly(zone=2, cfg=cfg), cfg, 5, zone=1, year=2017)
        assert y1 == y2

    def test_weather_weight_changes_yield(self):
        soil = soil_feature_values(soil_tests_for_zone(1, SMALL, seed=5)[0])
        y1 = gen_yield(soil, self.weekly(zone=1), SMALL, 5, zone=1, year=2017)
        y2 = gen_yield(soil, self.weekly(zone=2), SMALL, 5, zone=1, year=2017)
        assert y1 != y2

    def test_yields_within_validation_range(self):
        for zone in range(40):
            soil = soil_feature_values(soil_tests_for_zone(zone, SMALL, seed=5)[0])
            y = gen_yield(soil, self.weekly(zone=zone), SMALL, 5, zone=zone, year=2018)
            assert 1.0 <= y <= 18.0

    def test_cohort_moments_near_targets(self):
        cfg = GenConfig(years={2018: YearSpec(264, 9.36, 1.75)}, zone_pool=300, seed=0)
        _, _, crops = generate_records(cfg)
        values = np.array([c.yield_t_ha for c in crops])
        assert values.mean() == pytest.approx(9.36, abs=0.35)
        assert values.std(ddof=1) == pytest.approx(1.75, abs=0.35)


class TestGenerateRecords:
    def test_row_counts(self):
        soil, weather, crops = generate_records(SMALL)
        assert len(crops) == 32
        assert len(weather) == 32 * DAYS_PER_SEASON
        assert len(soil) >= 1

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
        for rec in weather[:500]:
            assert validate(rec) is None

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
        assert parsed_weather == weather
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
