"""Weekly weather aggregation and design-matrix assembly.

Daily weather is bucketed into 7-day weeks anchored at the sowing date
(week 1 = sowing week, not calendar weeks), each bucket is reduced to six
aggregates, and the growth window (weeks 17..40 by default) is flattened
next to the soil features into one row per zone-year.

Feature column order is fixed and documented:
    p, k, mg, ph, soil_type, stone_content, organic_matter, caco3,
    w17_t_avg, w17_dd_sum, w17_egd_total, w17_ap_sum, w17_sr_sum, w17_h_avg,
    ..., w40_h_avg
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .domain import CropRecord, Instance, OrdinalSpec, SoilRecord, WeatherDaily, WeeklyWeather
from .ingest import carry_forward_soil

MODE_SOIL = "soil_only"
MODE_SOIL_WEATHER = "soil_weather"

SOIL_FEATURES = ("p", "k", "mg", "ph")
SOIL_ORDINALS = ("soil_type", "stone_content", "organic_matter", "caco3")
WEEKLY_AGGREGATES = ("t_avg", "dd_sum", "egd_total", "ap_sum", "sr_sum", "h_avg")

EGD_THRESHOLD_C = 5.0


@dataclass(frozen=True)
class FeatureParams:
    """Growth-window and completeness settings for instance building."""

    week_start: int = 17
    week_end: int = 40
    min_days_per_week: int = 7

    def weeks(self) -> range:
        return range(self.week_start, self.week_end + 1)


DEFAULT_FEATURE_PARAMS = FeatureParams()


def soil_feature_names() -> list[str]:
    return list(SOIL_FEATURES) + list(SOIL_ORDINALS)


def weather_feature_names(params: FeatureParams = DEFAULT_FEATURE_PARAMS) -> list[str]:
    """Week-major, aggregate-minor weather column names."""
    return [f"w{week}_{agg}" for week in params.weeks() for agg in WEEKLY_AGGREGATES]


def feature_names(mode: str, params: FeatureParams = DEFAULT_FEATURE_PARAMS) -> list[str]:
    if mode == MODE_SOIL:
        return soil_feature_names()
    if mode == MODE_SOIL_WEATHER:
        return soil_feature_names() + weather_feature_names(params)
    raise ValueError(f"unknown mode: {mode!r}")


def soil_feature_values(soil: SoilRecord, ordinals: OrdinalSpec | None = None) -> dict[str, float]:
    """Numeric soil features: the four measurements as given, then the
    ordinal fields as 0-based ranks."""
    spec = ordinals or OrdinalSpec()
    out = {name: float(getattr(soil, name)) for name in SOIL_FEATURES}
    for name in SOIL_ORDINALS:
        out[name] = float(spec.encode(name, getattr(soil, name)))
    return out


def assign_weeks(
    days: list[WeatherDaily], sowing_date: date
) -> dict[int, list[WeatherDaily]]:
    """Bucket days into sowing-anchored weeks.

    A day at offset delta from sowing lands in week floor(delta/7) + 1;
    days before the sowing date are excluded.
    """
    buckets: dict[int, list[WeatherDaily]] = {}
    for day in days:
        offset = (day.date - sowing_date).days
        if offset < 0:
            continue
        buckets.setdefault(offset // 7 + 1, []).append(day)
    return buckets


def weekly_aggregate(week_days: list[WeatherDaily], week_index: int = 0) -> WeeklyWeather:
    """Reduce one week bucket (1..7 days) to the six weekly aggregates.

    Daily mean temperature is (t_max + t_min) / 2 throughout. Sums use
    math.fsum, so the result is exactly permutation-invariant.
    """
    n = len(week_days)
    if n == 0:
        raise ValueError("empty week bucket")
    if n > 7:
        raise ValueError(f"week bucket has {n} days, at most 7 allowed")
    means = [(d.t_max + d.t_min) / 2.0 for d in week_days]
    return WeeklyWeather(
        week_index=week_index,
        t_avg=math.fsum(means) / n,
        dd_sum=math.fsum(max(0.0, m) for m in means),
        egd_total=sum(1 for m in means if m > EGD_THRESHOLD_C),
        ap_sum=math.fsum(d.precip for d in week_days),
        sr_sum=math.fsum(d.solar for d in week_days),
        h_avg=math.fsum(d.humidity for d in week_days) / n,
    )


@dataclass(frozen=True)
class InstanceRejection:
    """Why a zone-year could not become an instance."""

    zone_id: str
    year: int
    reason: str
    missing_weeks: tuple[int, ...] = ()


def build_instance(
    crop: CropRecord,
    soil: SoilRecord,
    weeks: dict[int, WeeklyWeather],
    mode: str,
    params: FeatureParams = DEFAULT_FEATURE_PARAMS,
    ordinals: OrdinalSpec | None = None,
) -> Instance | InstanceRejection:
    """Assemble one zone-year instance from its soil state and weekly weather.

    In soil_weather mode every week in the growth window must be present;
    otherwise an :class:`InstanceRejection` names the missing weeks.
    """
    soil_features = soil_feature_values(soil, ordinals)
    weather_features: dict[str, float] = {}
    if mode == MODE_SOIL_WEATHER:
        missing = tuple(w for w in params.weeks() if w not in weeks)
        if missing:
            return InstanceRejection(
                crop.zone_id,
                crop.year,
                f"missing weeks {list(missing)} in growth window",
                missing_weeks=missing,
            )
        for week in params.weeks():
            agg = weeks[week]
            for name in WEEKLY_AGGREGATES:
                weather_features[f"w{week}_{name}"] = float(getattr(agg, name))
    elif mode != MODE_SOIL:
        raise ValueError(f"unknown mode: {mode!r}")

    return Instance(
        zone_id=crop.zone_id,
        year=crop.year,
        soil_features=soil_features,
        weather_features=weather_features,
        yield_t_ha=crop.yield_t_ha,
    )


@dataclass
class DesignMatrix:
    """Column-named numeric matrix plus target and per-row identity."""

    column_names: list[str]
    rows: np.ndarray
    target: np.ndarray
    meta: list[tuple[str, int]] = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self.rows.shape[1])


def build_matrix(
    instances: list[Instance],
    mode: str,
    params: FeatureParams = DEFAULT_FEATURE_PARAMS,
) -> DesignMatrix:
    """Stack instances into a design matrix, preserving input order.

    Raises on duplicate (zone_id, year) and on any non-finite value.
    """
    names = feature_names(mode, params)
    seen: set[tuple[str, int]] = set()
    data = np.empty((len(instances), len(names)), dtype=np.float64)
    target = np.empty(len(instances), dtype=np.float64)
    meta: list[tuple[str, int]] = []
    for i, inst in enumerate(instances):
        key = (inst.zone_id, inst.year)
        if key in seen:
            raise ValueError(f"duplicate instance for zone {key[0]} year {key[1]}")
        seen.add(key)
        # soil-only matrices may be cut from soil_weather instances so both
        # modes compare the exact same zone-years
        source = (
            inst.soil_features
            if mode == MODE_SOIL
            else {**inst.soil_features, **inst.weather_features}
        )
        try:
            data[i] = [source[name] for name in names]
        except KeyError as exc:
            raise ValueError(f"instance {key} missing feature {exc}") from None
        target[i] = inst.yield_t_ha
        meta.append(key)
    if data.size and not np.isfinite(data).all():
        raise ValueError("design matrix contains non-finite values")
    if target.size and not np.isfinite(target).all():
        raise ValueError("target contains non-finite values")
    return DesignMatrix(column_names=names, rows=data, target=target, meta=meta)


def build_instances(
    crops: list[CropRecord],
    soils: list[SoilRecord],
    weather: list[WeatherDaily],
    mode: str,
    params: FeatureParams = DEFAULT_FEATURE_PARAMS,
    ordinals: OrdinalSpec | None = None,
) -> tuple[list[Instance], list[InstanceRejection]]:
    """Build every instance the records allow, skipping zone-years that
    lack a past soil test or (in soil_weather mode) complete weeks, or whose
    weekly sums overflow.

    Returns (instances, skipped). Instance order follows crop order.
    """
    soil_by_zone: dict[str, list[SoilRecord]] = {}
    for rec in soils:
        soil_by_zone.setdefault(rec.zone_id, []).append(rec)

    days_by_zone: dict[str, list[WeatherDaily]] = {}
    dates_by_zone: dict[str, list[date]] = {}
    if mode == MODE_SOIL_WEATHER:
        for day in weather:
            days_by_zone.setdefault(day.zone_id, []).append(day)
        for zone, zone_days in days_by_zone.items():
            zone_days.sort(key=lambda d: d.date)
            dates_by_zone[zone] = [d.date for d in zone_days]

    instances: list[Instance] = []
    skipped: list[InstanceRejection] = []
    for crop in crops:
        soil = carry_forward_soil(soil_by_zone.get(crop.zone_id, []), crop.zone_id, crop.year)
        if soil is None:
            skipped.append(
                InstanceRejection(
                    crop.zone_id, crop.year, f"no soil test at or before {crop.year}"
                )
            )
            continue

        weeks: dict[int, WeeklyWeather] = {}
        overflow_week = None
        if mode == MODE_SOIL_WEATHER:
            zone_days = days_by_zone.get(crop.zone_id, [])
            window_end = crop.sowing_date + timedelta(days=7 * params.week_end)
            dates = dates_by_zone.get(crop.zone_id, [])
            lo = bisect_left(dates, crop.sowing_date)
            hi = bisect_left(dates, window_end)
            buckets = assign_weeks(zone_days[lo:hi], crop.sowing_date)
            for week, bucket in buckets.items():
                in_window = params.week_start <= week <= params.week_end
                if in_window and len(bucket) >= params.min_days_per_week:
                    try:
                        weeks[week] = weekly_aggregate(bucket, week_index=week)
                    except OverflowError:  # finite days whose sum exceeds float range
                        overflow_week = week
                        break
        if overflow_week is not None:
            skipped.append(
                InstanceRejection(
                    crop.zone_id, crop.year, f"weekly aggregate overflows in week {overflow_week}"
                )
            )
            continue

        built = build_instance(crop, soil, weeks, mode, params, ordinals)
        if isinstance(built, InstanceRejection):
            skipped.append(built)
        else:
            instances.append(built)
    return instances, skipped


def write_features_csv(matrix: DesignMatrix, path: str | Path) -> None:
    """Dump a design matrix as zone_id,year,<features...>,yield_t_ha."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["zone_id", "year"] + matrix.column_names + ["yield_t_ha"])
        for i, (zone_id, year) in enumerate(matrix.meta):
            writer.writerow(
                [zone_id, year]
                + [repr(v) for v in matrix.rows[i].tolist()]
                + [repr(float(matrix.target[i]))]
            )
