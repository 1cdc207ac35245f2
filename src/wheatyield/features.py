"""Weekly weather aggregation and design-matrix assembly.

Daily weather is grouped into 7-day weeks anchored at the sowing date
(week 1 = sowing week, not calendar weeks), each week of the growth window
(weeks 17..40 by default) is reduced to six aggregates, and these are
flattened next to the soil features into one row per zone-year. The weeks
of every zone-year are aggregated in one batched pass, and each weekly sum
is exactly rounded: it is math.fsum's value.

Feature column order is fixed and documented:
    p, k, mg, ph, soil_type, stone_content, organic_matter, caco3,
    w17_t_avg, w17_dd_sum, w17_egd_total, w17_ap_sum, w17_sr_sum, w17_h_avg,
    ..., w40_h_avg
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .domain import CropRecord, OrdinalSpec, SoilRecord, WeeklyWeather, zone_day_key
from .ingest import carry_forward_soil

MODE_SOIL = "soil_only"
MODE_SOIL_WEATHER = "soil_weather"

SOIL_FEATURES = ("p", "k", "mg", "ph")
SOIL_ORDINALS = ("soil_type", "stone_content", "organic_matter", "caco3")
WEEKLY_AGGREGATES = ("t_avg", "dd_sum", "egd_total", "ap_sum", "sr_sum", "h_avg")

EGD_THRESHOLD_C = 5.0

# a cell at least this large sends its row to math.fsum (see fsum_rows)
_SUM_BOUND = 2.0**1000
# week cells gathered per pass of aggregate_windows: 7 days each, so one
# gathered column is ~460 kB however many zone-years there are
_CELLS_PER_PASS = 8192


@dataclass(frozen=True)
class FeatureParams:
    """Growth-window and completeness settings for instance building."""

    week_start: int = 17
    week_end: int = 40
    min_days_per_week: int = 7

    def __post_init__(self):
        # week 54 starts a year after sowing, in the next season
        if not 1 <= self.week_start <= self.week_end <= 53:
            raise ValueError("week window must satisfy 1 <= week_start <= week_end <= 53")
        if not 1 <= self.min_days_per_week <= 7:
            raise ValueError("min_days_per_week must be in 1..7")

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


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fl(a + b) and its rounding error, exactly, where nothing overflows."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def fsum_rows(x: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
    """``math.fsum(x[i, :n[i]])`` for every row i of a 2-D float64 array
    whose cells past ``n[i]`` are zeros, and what fsum raised, by row.

    A TwoSum cascade along each row gives the running sum s and the exact
    error of every addition; a second cascade sums those errors to E
    (Ogita, Rump & Oishi, *Accurate Sum and Dot Product*, 2005). Where all
    errors of the second cascade are 0, s + E is the exact sum, so
    fl(s + E) is its correctly rounded value, which is fsum's. The other
    rows go through math.fsum itself: a non-zero second-level error, a zero
    sum (whose sign fsum decides), or a cell of magnitude 2**1000 or more,
    inf or NaN (fsum's own partial sums can overflow where the exact sum
    does not; below that bound no sum of a few cells can).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = x[:, 0].copy()
        errors = []
        for j in range(1, x.shape[1]):
            s, e = _two_sum(s, x[:, j])
            errors.append(e)
        proved = np.abs(x).max(axis=1) < _SUM_BOUND  # False for NaN
        if errors:
            err = errors[0]
            for e in errors[1:]:
                err, residue = _two_sum(err, e)
                proved &= residue == 0.0
            s = s + err
        proved &= s != 0.0
    raised: dict[int, Exception] = {}
    for i in np.flatnonzero(~proved).tolist():
        try:
            s[i] = math.fsum(x[i, : n[i]].tolist())
        except (OverflowError, ValueError) as exc:  # inf - inf, or partials past float range
            raised[i] = exc
    return s, raised


def aggregate_windows(
    days: np.ndarray, order: np.ndarray, edges: np.ndarray, min_days: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The six weekly aggregates of many zone-years' weeks in one pass.

    ``days`` is a ``WEATHER_DTYPE`` array; week j of zone-year i is
    ``days[order[edges[i, j]:edges[i, j + 1]]]``. Weeks with at least
    ``min_days`` days are complete; each of them must have 1..7 days. Daily mean
    temperature is (t_max + t_min) / 2, degree days are max(0, mean), and
    each sum is exactly rounded (``fsum_rows``), so it is permutation-
    invariant and equals math.fsum's.

    Returns (values, complete, overflow): ``values[i, j]`` holds week j's
    aggregates in ``WEEKLY_AGGREGATES`` order where ``complete[i, j]``;
    ``overflow[i]`` is the first complete week of zone-year i whose sums
    overflow the float range, else -1. A week with 0 or more than 7 days
    raises ValueError, as does an inf - inf sum, unless an earlier week of
    the same zone-year overflows.
    """
    n_zy, n_weeks = edges.shape[0], edges.shape[1] - 1
    counts = np.diff(edges, axis=1).ravel()
    first = edges[:, :-1].ravel()
    complete = counts >= min_days
    values = np.zeros((n_zy * n_weeks, len(WEEKLY_AGGREGATES)))
    failed: dict[tuple[int, int], Exception] = {}  # (week cell, sum) -> what it raised
    for cell in np.flatnonzero(complete & ((counts < 1) | (counts > 7))).tolist():
        n = int(counts[cell])
        failed[cell, -1] = ValueError(
            "empty week bucket" if n < 1 else f"week bucket has {n} days, at most 7 allowed"
        )
    cells = np.flatnonzero(complete & (counts >= 1) & (counts <= 7))
    offset = np.arange(7)
    for lo in range(0, len(cells), _CELLS_PER_PASS):
        chunk = cells[lo : lo + _CELLS_PER_PASS]
        n = counts[chunk]
        real = offset < n[:, None]
        rows = order[first[chunk, None] + np.minimum(offset, n[:, None] - 1)]

        def column(name: str) -> np.ndarray:  # missing days are -0.0, the additive identity
            return np.where(real, days[name][rows], -0.0)

        with np.errstate(over="ignore", invalid="ignore"):  # inf, as Python floats give
            means = (column("t_max") + column("t_min")) / 2.0
        # max(0, m) pads to +0.0, which can move only a zero sum's sign, and
        # zero sums are fsum's own
        terms = (means, np.where(means > 0.0, means, 0.0),
                 column("precip"), column("solar"), column("humidity"))
        out = np.empty((len(chunk), len(WEEKLY_AGGREGATES)))
        out[:, 2] = (means > EGD_THRESHOLD_C).sum(axis=1)
        for k, term in zip((0, 1, 3, 4, 5), terms):
            out[:, k], raised = fsum_rows(term, n)
            for i, exc in raised.items():
                failed[int(chunk[i]), k] = exc
        out[:, 0] /= n
        out[:, 5] /= n
        values[chunk] = out

    overflow = np.full(n_zy, -1)
    for (cell, _), exc in sorted(failed.items()):  # week order, then sum order
        zy, week = divmod(cell, n_weeks)
        if overflow[zy] >= 0:
            continue  # nothing after a zone-year's first overflow is computed
        if not isinstance(exc, OverflowError):
            raise exc
        overflow[zy] = week
    return (
        values.reshape(n_zy, n_weeks, len(WEEKLY_AGGREGATES)),
        complete.reshape(n_zy, n_weeks),
        overflow,
    )


def window_edges(
    key: np.ndarray, zone: np.ndarray, sowing: np.ndarray, params: FeatureParams
) -> np.ndarray:
    """Where each growth-window week of zone-year i (zone code ``zone[i]``,
    sowing ordinal ``sowing[i]``) starts in the ascending ``zone_day_key``
    keys ``key``, then where its last week ends: a (zone-years, weeks + 1)
    array. The day at offset delta from sowing lies in week floor(delta/7)
    + 1, so days before sowing are in no week. Week starts are clipped to
    [0, 2**32], so no week reaches another zone's rows.
    """
    weeks = params.weeks()
    starts = sowing[:, None] + 7 * np.arange(weeks.start - 1, weeks.stop)
    return np.searchsorted(key, zone_day_key(zone[:, None], np.clip(starts, 0, 2**32)))


def weekly_aggregate(week: np.ndarray, week_index: int = 0) -> WeeklyWeather:
    """The six aggregates of one week (1..7 rows of a ``WEATHER_DTYPE``
    array): the one-week case of ``aggregate_windows``."""
    # min_days 0: an empty week is an error, not a missing week
    order = np.arange(len(week))
    values, _, overflow = aggregate_windows(week, order, np.array([[0, len(week)]]), 0)
    if overflow[0] >= 0:
        raise OverflowError(f"weekly aggregate overflows in week {week_index}")
    t_avg, dd_sum, egd_total, ap_sum, sr_sum, h_avg = values[0, 0].tolist()
    return WeeklyWeather(week_index, t_avg, dd_sum, int(egd_total), ap_sum, sr_sum, h_avg)


@dataclass(frozen=True)
class InstanceRejection:
    """Why a zone-year could not become an instance."""

    zone_id: str
    year: int
    reason: str


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
    soil_of = [
        carry_forward_soil(soil_by_zone.get(crop.zone_id, []), crop.zone_id, crop.year)
        for crop in crops
    ]

    if window:  # one (zone, day) sort and one search place every zone-year's weeks
        zone_ids = weather["zone_id"]
        runs = np.flatnonzero(np.r_[True, zone_ids[1:] != zone_ids[:-1]][: len(weather)])
        codes: dict[str, int] = {}  # by first appearance; read once per run of one zone
        run_code = [codes.setdefault(z, len(codes)) for z in zone_ids[runs].tolist()]
        # each row's zone code, then in place its key, then the sorted keys:
        # one key and one order beside the table
        key = np.repeat(np.array(run_code, np.int64), np.diff(runs, append=len(weather)))
        zone_day_key(key, weather["day"], out=key)
        order = np.argsort(key, kind="stable")
        key = key[order]
        with_soil = [crop for crop, soil in zip(crops, soil_of) if soil is not None]
        zone = np.array([codes.get(crop.zone_id, len(codes)) for crop in with_soil], np.int64)
        sowing = np.array([crop.sowing_date.toordinal() for crop in with_soil], np.int64)
        edges = window_edges(key, zone, sowing, params)
        del key
        values, complete, overflow = aggregate_windows(
            weather, order, edges, params.min_days_per_week
        )
        weekly = iter(zip(values, complete, overflow.tolist()))

    rows = np.empty((len(crops), len(names)), dtype=np.float64)
    target = np.empty(len(crops), dtype=np.float64)
    meta: list[tuple[str, int]] = []
    skipped: list[InstanceRejection] = []
    for crop, soil in zip(crops, soil_of):
        if soil is None:
            skipped.append(
                InstanceRejection(
                    crop.zone_id, crop.year, f"no soil test at or before {crop.year}"
                )
            )
            continue
        row = rows[len(meta)]
        if window:
            weeks, present, overflow_at = next(weekly)
            if overflow_at >= 0:
                reason = f"weekly aggregate overflows in week {window[overflow_at]}"
                skipped.append(InstanceRejection(crop.zone_id, crop.year, reason))
                continue
            missing = tuple(w for w, ok in zip(window, present.tolist()) if not ok)
            if missing:
                reason = f"missing weeks {list(missing)} in growth window"
                skipped.append(InstanceRejection(crop.zone_id, crop.year, reason))
                continue
            row[n_soil:] = weeks.ravel()
        row[:n_soil] = list(soil_feature_values(soil, ordinals).values())
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
