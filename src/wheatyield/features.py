"""Weekly weather aggregation and design-matrix assembly.

Daily weather is grouped into 7-day weeks anchored at the sowing date
(week 1 = sowing week, not calendar weeks), each week of the growth window
(weeks 17..40 by default) is reduced to six aggregates, and these are
flattened next to the soil features into one row per zone-year.

Feature column order is fixed and documented:
    p, k, mg, ph, soil_type, stone_content, organic_matter, caco3,
    w17_t_avg, w17_dd_sum, w17_egd_total, w17_ap_sum, w17_sr_sum, w17_h_avg,
    ..., w40_h_avg
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

import numpy as np

from .domain import CropRecord, OrdinalSpec, SoilRecord, WeeklyWeather
from .ingest import carry_forward_soil

MODE_SOIL = "soil_only"
MODE_SOIL_WEATHER = "soil_weather"

SOIL_FEATURES = ("p", "k", "mg", "ph")
SOIL_ORDINALS = ("soil_type", "stone_content", "organic_matter", "caco3")
WEEKLY_AGGREGATES = ("t_avg", "dd_sum", "egd_total", "ap_sum", "sr_sum", "h_avg")
_aggregates = attrgetter(*WEEKLY_AGGREGATES)

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


def weekly_aggregate(week: np.ndarray, week_index: int = 0) -> WeeklyWeather:
    """Reduce one week (1..7 rows of a ``WEATHER_DTYPE`` array) to the six
    weekly aggregates.

    Daily mean temperature is (t_max + t_min) / 2 throughout. Sums use
    math.fsum, so the result is exactly permutation-invariant.
    """
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


def window_weeks(
    days: np.ndarray, sowing: int, params: FeatureParams = DEFAULT_FEATURE_PARAMS
) -> dict[int, WeeklyWeather]:
    """Aggregates of the growth-window weeks of one zone's day-sorted
    weather that have at least ``min_days_per_week`` days.

    ``sowing`` is the sowing date's ordinal; the day at offset delta from
    it lies in week floor(delta/7) + 1, so days before sowing are in no
    week. Raises OverflowError naming the first week whose sums overflow.
    """
    weeks = params.weeks()
    starts = sowing + 7 * np.arange(weeks.start - 1, weeks.stop)
    edges = np.searchsorted(days["day"], starts).tolist()
    out: dict[int, WeeklyWeather] = {}
    for week, lo, hi in zip(weeks, edges, edges[1:]):
        if hi - lo >= params.min_days_per_week:
            try:
                out[week] = weekly_aggregate(days[lo:hi], week)
            except OverflowError:  # finite days whose sum exceeds float range
                raise OverflowError(f"weekly aggregate overflows in week {week}") from None
    return out


@dataclass(frozen=True)
class InstanceRejection:
    """Why a zone-year could not become an instance."""

    zone_id: str
    year: int
    reason: str
    missing_weeks: tuple[int, ...] = ()


@dataclass
class DesignMatrix:
    """Column-named numeric matrix plus target and per-row identity."""

    column_names: list[str]
    rows: np.ndarray
    target: np.ndarray
    meta: list[tuple[str, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    @property
    def n_rows(self) -> int:
        return len(self)

    @property
    def n_cols(self) -> int:
        return int(self.rows.shape[1])

    def take(self, index: np.ndarray) -> DesignMatrix:
        """The rows at the integer positions ``index``, in that order."""
        meta = [self.meta[i] for i in index.tolist()]
        return DesignMatrix(self.column_names, self.rows[index], self.target[index], meta)


def build_matrix(
    instances: DesignMatrix,
    mode: str,
    params: FeatureParams = DEFAULT_FEATURE_PARAMS,
) -> DesignMatrix:
    """The mode's columns of an instance matrix, rows in order.

    The mode's names must be the first columns of ``instances``: soil comes
    first, so a soil-only matrix is cut from soil_weather instances and both
    modes compare the exact same zone-years. The result may share memory
    with ``instances``. Raises on duplicate (zone_id, year) and on any
    non-finite value.
    """
    names = feature_names(mode, params)
    if instances.column_names[: len(names)] != names:
        raise ValueError(f"instance columns do not start with the {mode} columns")
    seen: set[tuple[str, int]] = set()
    for key in instances.meta:
        if key in seen:
            raise ValueError(f"duplicate instance for zone {key[0]} year {key[1]}")
        seen.add(key)
    data = np.ascontiguousarray(instances.rows[:, : len(names)])
    if data.size and not np.isfinite(data).all():
        raise ValueError("design matrix contains non-finite values")
    if instances.target.size and not np.isfinite(instances.target).all():
        raise ValueError("target contains non-finite values")
    return DesignMatrix(names, data, instances.target, list(instances.meta))


def build_instances(
    crops: list[CropRecord],
    soils: list[SoilRecord],
    weather: np.ndarray,
    mode: str,
    params: FeatureParams = DEFAULT_FEATURE_PARAMS,
    ordinals: OrdinalSpec | None = None,
) -> tuple[DesignMatrix, list[InstanceRejection]]:
    """Build every instance the records allow, skipping zone-years that
    lack a past soil test or whose weekly sums overflow or (in soil_weather
    mode) that lack complete weeks. ``weather`` is a ``WEATHER_DTYPE`` array.

    Returns (instances, skipped): one row of ``feature_names(mode, params)``
    per zone-year, in crop order, with (zone_id, year) as ``meta`` and the
    yield as ``target``.
    """
    names = feature_names(mode, params)
    n_soil = len(SOIL_FEATURES) + len(SOIL_ORDINALS)
    window = params.weeks() if mode == MODE_SOIL_WEATHER else range(0)
    soil_by_zone: dict[str, list[SoilRecord]] = {}
    for rec in soils:
        soil_by_zone.setdefault(rec.zone_id, []).append(rec)

    days_by_zone: dict[str, np.ndarray] = {}
    if window:  # one (zone, day) sort, then a day-sorted slice per zone
        codes: dict[str, int] = {}
        zone_code = np.fromiter(
            (codes.setdefault(z, len(codes)) for z in weather["zone_id"]), np.int64, len(weather)
        )
        ordered = weather[np.lexsort((weather["day"], zone_code))]
        bounds = np.cumsum([0, *np.bincount(zone_code)]).tolist()
        days_by_zone = {zone: ordered[lo:hi] for zone, lo, hi in zip(codes, bounds, bounds[1:])}

    rows = np.empty((len(crops), len(names)), dtype=np.float64)
    target = np.empty(len(crops), dtype=np.float64)
    meta: list[tuple[str, int]] = []
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
        if window:
            days = days_by_zone.get(crop.zone_id, weather[:0])
            try:
                weeks = window_weeks(days, crop.sowing_date.toordinal(), params)
            except OverflowError as exc:
                skipped.append(InstanceRejection(crop.zone_id, crop.year, str(exc)))
                continue
        row = rows[len(meta)]
        row[:n_soil] = list(soil_feature_values(soil, ordinals).values())
        missing = tuple(w for w in window if w not in weeks)
        if missing:
            skipped.append(
                InstanceRejection(
                    crop.zone_id,
                    crop.year,
                    f"missing weeks {list(missing)} in growth window",
                    missing_weeks=missing,
                )
            )
            continue
        row[n_soil:] = [v for week in window for v in _aggregates(weeks[week])]
        target[len(meta)] = crop.yield_t_ha
        meta.append((crop.zone_id, crop.year))
    n = len(meta)
    return DesignMatrix(names, rows[:n], target[:n], meta), skipped


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
