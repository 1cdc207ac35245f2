"""Deterministic synthetic dataset generator.

Produces soil/weather/crop records shaped like the real study data: a pool
of zones recurring across years, infrequent soil tests (every 3-4 years,
so carry-forward is exercised), daily weather following UK-like annual
sinusoids, and yields driven by a linear soil term plus a smooth concave
response to growth-window degree-day and precipitation totals plus noise.

Per-year yield distributions are calibrated against the target mean/std
table: the soil term and the weather response are standardized with frozen
constants (estimated once by Monte Carlo under the default configuration),
their weights act directly as standard deviations, and the noise standard
deviation absorbs the per-year remainder. Setting weather_weight to zero
yields the weather-independent null dataset with unchanged moments.

All randomness flows from SeedSequence tuples (seed, stream, zone, year),
so regeneration is byte-identical and independent of evaluation order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .domain import WEATHER_DTYPE, CropRecord, OrdinalSpec, SoilRecord, zone_day_key
from .features import (
    DEFAULT_FEATURE_PARAMS,
    WEEKLY_AGGREGATES,
    FeatureParams,
    aggregate_windows,
    soil_feature_values,
    window_edges,
)
from .ingest import carry_forward_soil, write_crop_csv, write_soil_csv, write_weather_csv

# rng stream tags
_ROSTER, _SOIL, _SOW, _WEATHER, _YIELD, _CROP = 1, 2, 3, 4, 5, 6

# seasonal anchors (dates of sinusoid peak, expressed as ordinals)
_T_PEAK = date(2000, 7, 16).toordinal()
_WET_PEAK = date(2000, 1, 15).toordinal()
_SOL_PEAK = date(2000, 6, 21).toordinal()
_HUM_TROUGH = date(2000, 7, 16).toordinal()
_YEAR_DAYS = 365.25

DAYS_PER_SEASON = 280  # 40 weeks of daily weather from sowing

# zone-years whose weather is drawn and aggregated at a time: enough to
# spread numpy's per-call cost, few enough that the block's draws stay small
# beside the table
_CHUNK_ZONE_YEARS = 128


@dataclass(frozen=True)
class YearSpec:
    zones: int
    yield_mean: float
    yield_std: float


DEFAULT_YEARS: dict[int, YearSpec] = {
    2013: YearSpec(359, 8.99, 1.86),
    2014: YearSpec(335, 10.78, 1.61),
    2015: YearSpec(362, 11.71, 1.36),
    2016: YearSpec(221, 9.94, 1.42),
    2017: YearSpec(331, 10.24, 1.79),
    2018: YearSpec(264, 9.36, 1.75),
}

# linear soil-term coefficients applied to the encoded feature dict
DEFAULT_SOIL_COEFS: dict[str, float] = {
    "p": 0.012,
    "k": 0.003,
    "mg": 0.004,
    "ph": 0.25,
    "soil_type": 0.10,
    "stone_content": -0.06,
    "organic_matter": 0.08,
    "caco3": -0.04,
}

_ORDINAL_PROBS: dict[str, tuple[float, ...]] = {
    "soil_type": (0.15, 0.35, 0.25, 0.25),
    "stone_content": (0.30, 0.30, 0.20, 0.15, 0.05),
    "organic_matter": (0.50, 0.40, 0.10),
    "caco3": (0.20, 0.40, 0.30, 0.10),
}


@dataclass(frozen=True)
class GenConfig:
    """Generator settings; defaults reproduce the study-shaped dataset."""

    years: dict[int, YearSpec] = field(default_factory=lambda: dict(DEFAULT_YEARS))
    seed: int = 0
    zone_pool: int = 420

    # sowing window: earliest date (month, day) in the preceding calendar
    # year plus a uniform offset of up to sow_window_days
    sow_month: int = 9
    sow_day: int = 20
    sow_window_days: int = 30
    harvest_jitter_days: int = 13

    # temperature sinusoid (deg C)
    t_base: float = 9.5
    t_amp: float = 6.5
    t_zone_sd: float = 0.8
    t_daily_sd: float = 1.6
    t_halfrange: float = 3.2
    t_halfrange_sd: float = 0.7
    t_halfrange_min: float = 0.6

    # precipitation process (mm/day)
    wet_prob_base: float = 0.45
    wet_prob_amp: float = 0.10
    rain_scale_mm: float = 4.5
    zone_wet_sd: float = 0.18

    # solar radiation sinusoid (MJ/m2)
    sol_base: float = 10.5
    sol_amp: float = 8.5
    sol_sd: float = 2.5

    # humidity sinusoid (percent, trough in summer)
    hum_base: float = 80.0
    hum_amp: float = 8.0
    hum_sd: float = 5.0

    # soil test distributions
    p_median: float = 30.0
    p_sigma: float = 0.35
    k_median: float = 185.0
    k_sigma: float = 0.30
    mg_median: float = 85.0
    mg_sigma: float = 0.40
    ph_mean: float = 6.9
    ph_sd: float = 0.55
    ph_lo: float = 3.5
    ph_hi: float = 9.5
    nutrient_drift_sigma: float = 0.08
    ph_drift_sd: float = 0.15
    test_first_lo: int = 2009
    test_first_hi: int = 2012
    test_gaps: tuple[int, ...] = (3, 4)

    # yield process: weights are standard deviations of the standardized
    # components; noise absorbs the per-year remainder of the target std
    soil_coefs: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_SOIL_COEFS))
    soil_weight: float = 0.45
    weather_weight: float = 1.25
    noise_floor: float = 0.25
    yield_lo: float = 1.0
    yield_hi: float = 18.0

    # concave weather response: product of two bumps over the
    # growth-window degree-day and precipitation totals; the optimum sits
    # 0.6 sd above the typical degree-day total (warm springs help, with a
    # saturating top) and at the typical precipitation total (dry and wet
    # extremes both hurt)
    dd_opt: float = 1732.0
    dd_scale: float = 298.0
    ap_opt: float = 350.0
    ap_scale: float = 154.0

    # frozen calibration constants (Monte Carlo under the defaults):
    # mean/std of the raw soil term and of the weather response score
    soil_term_mean: float = 3.146
    soil_term_std: float = 0.349
    score_mean: float = 0.576
    score_std: float = 0.273

    ordinal_probs: dict[str, tuple[float, ...]] = field(
        default_factory=lambda: dict(_ORDINAL_PROBS)
    )

    def with_(self, **kwargs) -> "GenConfig":
        return replace(self, **kwargs)

    def zone_id(self, index: int) -> str:
        return f"Z{index:04d}"

    def sow_earliest(self, year: int) -> date:
        return date(year - 1, self.sow_month, self.sow_day)


def _rng(seed: int, stream: int, zone: int = 0, year: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream, zone, year)))


def _seasonal(ordinals: np.ndarray, base: float, amp: float, peak_ordinal: int) -> np.ndarray:
    return base + amp * np.cos(2.0 * np.pi * (ordinals - peak_ordinal) / _YEAR_DAYS)


def gen_sowing(zone: int, year: int, cfg: GenConfig, seed: int) -> date:
    """Sowing date in the autumn before the harvest year."""
    rng = _rng(seed, _SOW, zone, year)
    offset = int(rng.integers(0, cfg.sow_window_days + 1))
    return cfg.sow_earliest(year) + timedelta(days=offset)


def _fill_weather(block: np.ndarray, zone_years: list[tuple[int, int]], cfg: GenConfig,
                  seed: int) -> None:
    """Write the daily weather of ``zone_years`` into ``block``, a
    ``WEATHER_DTYPE`` array of ``DAYS_PER_SEASON`` rows per zone-year: each
    one's days from sowing through sowing + 40 weeks, in day order.

    Each zone-year draws from its own generators in a fixed order, so its
    values do not depend on the others in the block; the arithmetic then runs
    once on the whole block. Values are rounded to one or two decimals, like
    measured data; the CSV writers are lossless, so in-memory records and a
    written-then-parsed dataset agree exactly.
    """
    k, n = len(zone_years), DAYS_PER_SEASON
    table = block.reshape(k, n)
    sowing = np.empty(k, np.int64)
    zone_offset, zone_wet = np.empty(k), np.empty(k)
    daily, halfrange, coin, rain, solar, humidity = (np.empty((k, n)) for _ in range(6))
    for i, (zone, year) in enumerate(zone_years):
        sowing[i] = gen_sowing(zone, year, cfg, seed).toordinal()
        rng = _rng(seed, _WEATHER, zone, year)
        zone_offset[i] = rng.normal(0.0, cfg.t_zone_sd)
        daily[i] = rng.normal(0.0, cfg.t_daily_sd, n)
        halfrange[i] = rng.normal(0.0, cfg.t_halfrange_sd, n)
        zone_wet[i] = math.exp(rng.normal(0.0, cfg.zone_wet_sd))
        coin[i] = rng.random(n)
        rain[i] = rng.exponential(cfg.rain_scale_mm, n)
        solar[i] = rng.normal(0.0, cfg.sol_sd, n)
        humidity[i] = rng.normal(0.0, cfg.hum_sd, n)
    zone_ids = [sys.intern(cfg.zone_id(zone)) for zone, _ in zone_years]
    table["zone_id"] = np.array(zone_ids, dtype=object)[:, None]
    table["day"] = ordinals = sowing[:, None] + np.arange(n)

    t_mean = _seasonal(ordinals, cfg.t_base, cfg.t_amp, _T_PEAK) + zone_offset[:, None] + daily
    half = np.maximum(cfg.t_halfrange + halfrange, cfg.t_halfrange_min)
    table["t_min"] = np.round(t_mean - half, 1)
    table["t_max"] = np.round(t_mean + half, 1)

    wet_prob = np.clip(
        _seasonal(ordinals, cfg.wet_prob_base, cfg.wet_prob_amp, _WET_PEAK), 0.02, 0.98
    )
    table["precip"] = np.round(rain * (coin < wet_prob) * zone_wet[:, None], 2)

    table["solar"] = np.round(
        np.clip(_seasonal(ordinals, cfg.sol_base, cfg.sol_amp, _SOL_PEAK) + solar, 0.0, None),
        2,
    )
    table["humidity"] = np.round(
        np.clip(
            _seasonal(ordinals, cfg.hum_base, -cfg.hum_amp, _HUM_TROUGH) + humidity, 0.0, 100.0
        ),
        1,
    )


def gen_weather(zone: int, year: int, cfg: GenConfig, seed: int) -> np.ndarray:
    """Daily weather from sowing through sowing + 40 weeks for one zone-year,
    as a day-sorted ``WEATHER_DTYPE`` array (see :func:`_fill_weather`)."""
    days = np.zeros(DAYS_PER_SEASON, WEATHER_DTYPE)
    _fill_weather(days, [(zone, year)], cfg, seed)
    return days


def _soil_record(
    zone_id: str,
    test_year: int,
    base: dict[str, float],
    labels: dict[str, str],
    cfg: GenConfig,
    rng: np.random.Generator,
) -> SoilRecord:
    """One test around the zone's base values with small drift."""
    p = base["p"] * math.exp(rng.normal(0.0, cfg.nutrient_drift_sigma))
    k = base["k"] * math.exp(rng.normal(0.0, cfg.nutrient_drift_sigma))
    mg = base["mg"] * math.exp(rng.normal(0.0, cfg.nutrient_drift_sigma))
    ph = min(max(base["ph"] + rng.normal(0.0, cfg.ph_drift_sd), cfg.ph_lo), cfg.ph_hi)
    return SoilRecord(
        zone_id=zone_id,
        test_year=test_year,
        p=round(p, 1),
        k=round(k, 1),
        mg=round(mg, 1),
        ph=round(ph, 2),
        soil_type=labels["soil_type"],
        stone_content=labels["stone_content"],
        organic_matter=labels["organic_matter"],
        caco3=labels["caco3"],
    )


def soil_tests_for_zone(zone: int, cfg: GenConfig, seed: int) -> list[SoilRecord]:
    """The zone's full 3-4-yearly test schedule up to the last crop year."""
    rng = _rng(seed, _SOIL, zone)
    ordinals = OrdinalSpec()
    base = {
        "p": cfg.p_median * math.exp(rng.normal(0.0, cfg.p_sigma)),
        "k": cfg.k_median * math.exp(rng.normal(0.0, cfg.k_sigma)),
        "mg": cfg.mg_median * math.exp(rng.normal(0.0, cfg.mg_sigma)),
        "ph": min(max(rng.normal(cfg.ph_mean, cfg.ph_sd), cfg.ph_lo), cfg.ph_hi),
    }
    labels = {
        name: ordinals.labels(name)[int(rng.choice(len(probs), p=probs))]
        for name, probs in cfg.ordinal_probs.items()
    }
    last_year = max(cfg.years) if cfg.years else cfg.test_first_hi
    test_year = int(rng.integers(cfg.test_first_lo, cfg.test_first_hi + 1))
    records = []
    zone_id = cfg.zone_id(zone)
    while test_year <= last_year:
        records.append(_soil_record(zone_id, test_year, base, labels, cfg, rng))
        test_year += int(rng.choice(cfg.test_gaps))
    return records


def weather_response(dd_total: float, ap_total: float, cfg: GenConfig) -> float:
    """Smooth concave response in (0, 1]: product of two Gaussian bumps
    over the growth-window degree-day and precipitation totals."""
    dd_term = math.exp(-(((dd_total - cfg.dd_opt) / cfg.dd_scale) ** 2))
    ap_term = math.exp(-(((ap_total - cfg.ap_opt) / cfg.ap_scale) ** 2))
    return dd_term * ap_term


def gen_yield(
    soil_features: dict[str, float],
    dd_total: float,
    ap_total: float,
    cfg: GenConfig,
    seed: int,
    zone: int,
    year: int,
) -> float:
    """Yield in t/ha for one zone-year, given its growth-window degree-day
    and precipitation totals.

    yield = year_mean + soil_weight * s + weather_weight * w + noise,
    where s and w are the standardized soil term and weather response and
    the noise std tops the sum of variances up to the year's target std.
    """
    spec = cfg.years[year]
    s_raw = sum(cfg.soil_coefs[name] * soil_features[name] for name in cfg.soil_coefs)
    s_hat = (s_raw - cfg.soil_term_mean) / cfg.soil_term_std
    w_hat = (weather_response(dd_total, ap_total, cfg) - cfg.score_mean) / cfg.score_std

    explained = cfg.soil_weight**2 + cfg.weather_weight**2
    noise_sd = math.sqrt(max(spec.yield_std**2 - explained, cfg.noise_floor**2))
    rng = _rng(seed, _YIELD, zone, year)
    value = (
        spec.yield_mean
        + cfg.soil_weight * s_hat
        + cfg.weather_weight * w_hat
        + noise_sd * rng.normal()
    )
    return round(min(max(value, cfg.yield_lo), cfg.yield_hi), 2)


def zone_roster(year: int, cfg: GenConfig, seed: int) -> list[int]:
    """Which pool zones grow winter wheat in a year (sorted indices)."""
    spec = cfg.years[year]
    if spec.zones > cfg.zone_pool:
        raise ValueError(
            f"year {year} needs {spec.zones} zones but the pool has {cfg.zone_pool}"
        )
    rng = _rng(seed, _ROSTER, 0, year)
    picked = rng.permutation(cfg.zone_pool)[: spec.zones]
    return sorted(int(z) for z in picked)


def generate_records(
    cfg: GenConfig,
    feature_params: FeatureParams = DEFAULT_FEATURE_PARAMS,
) -> tuple[list[SoilRecord], np.ndarray, list[CropRecord]]:
    """All records of the synthetic dataset, in deterministic output order
    (soil by zone then year; weather and crop by year then zone)."""
    seed = cfg.seed
    rosters = {year: zone_roster(year, cfg, seed) for year in sorted(cfg.years)}
    used_zones = sorted({z for roster in rosters.values() for z in roster})

    soil: list[SoilRecord] = []
    tests_by_zone: dict[int, list[SoilRecord]] = {}
    for zone in used_zones:
        tests = soil_tests_for_zone(zone, cfg, seed)
        tests_by_zone[zone] = tests
        soil.extend(tests)

    zone_years = [(zone, year) for year in sorted(cfg.years) for zone in rosters[year]]
    n, weeks = DAYS_PER_SEASON, feature_params.weeks()
    weather = np.zeros(len(zone_years) * n, WEATHER_DTYPE)  # np.zeros: see ingest.parse_weather
    dd = np.zeros((len(zone_years), len(weeks)))
    ap = np.zeros_like(dd)
    complete = np.zeros(dd.shape, bool)
    overflow = np.empty(len(zone_years), np.int64)
    for lo in range(0, len(zone_years), _CHUNK_ZONE_YEARS):
        part = zone_years[lo:lo + _CHUNK_ZONE_YEARS]
        hi = lo + len(part)
        block = weather[lo * n:hi * n]
        _fill_weather(block, part, cfg, seed)
        # each zone-year is a run of n days from sowing, keyed as its own zone
        zy = np.arange(len(part))
        key = zone_day_key(np.repeat(zy, n), block["day"])
        edges = window_edges(key, zy, block["day"][::n], feature_params)
        values, complete[lo:hi], overflow[lo:hi] = aggregate_windows(
            block, np.arange(len(block)), edges, feature_params.min_days_per_week
        )
        dd[lo:hi] = values[:, :, WEEKLY_AGGREGATES.index("dd_sum")]
        ap[lo:hi] = values[:, :, WEEKLY_AGGREGATES.index("ap_sum")]

    crops: list[CropRecord] = []
    for i, (zone, year) in enumerate(zone_years):
        if overflow[i] >= 0:
            raise OverflowError(f"weekly aggregate overflows in week {weeks[overflow[i]]}")
        sowing = int(weather["day"][n * i])
        soil_rec = carry_forward_soil(tests_by_zone[zone], cfg.zone_id(zone), year)
        if soil_rec is None:  # [synth] test_first_hi falls after the first crop year
            raise ValueError(f"zone {cfg.zone_id(zone)} has no soil test at or before {year}")
        # builtin sum: the window totals add up left to right in week order
        dd_total = sum(dd[i, complete[i]].tolist())
        ap_total = sum(ap[i, complete[i]].tolist())
        y = gen_yield(soil_feature_values(soil_rec), dd_total, ap_total, cfg, seed, zone, year)
        jitter = int(_rng(seed, _CROP, zone, year).integers(0, cfg.harvest_jitter_days + 1))
        crops.append(
            CropRecord(
                zone_id=cfg.zone_id(zone),
                year=year,
                sowing_date=date.fromordinal(sowing),
                harvest_date=date.fromordinal(sowing + DAYS_PER_SEASON + jitter),
                yield_t_ha=y,
            )
        )
    return soil, weather, crops


def gen_dataset(
    cfg: GenConfig,
    out_dir: str | Path,
    feature_params: FeatureParams = DEFAULT_FEATURE_PARAMS,
) -> dict[str, Path]:
    """Generate and write soil.csv, weather.csv and crop.csv.

    Round-tripping the files through ingest yields zero rejections, and
    regeneration with the same config is byte-identical.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    soil, weather, crops = generate_records(cfg, feature_params)
    paths = {
        "soil": out / "soil.csv",
        "weather": out / "weather.csv",
        "crop": out / "crop.csv",
    }
    write_soil_csv(soil, paths["soil"])
    write_weather_csv(weather, paths["weather"])
    write_crop_csv(crops, paths["crop"])
    return paths
