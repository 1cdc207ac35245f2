"""Core record types, ordinal encodings, and range validation.

Everything here is a plain value type or a pure function, shared by the
ingest, feature-engineering and generator layers. Validation never raises
for bad data: it returns a :class:`Rejection` describing the first violated
constraint, so callers can log and keep going.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date

import numpy as np


class UnknownCategoryError(ValueError):
    """Raised when an ordinal label is not in its field's category set."""

    def __init__(self, field_name: str, label: str):
        self.field_name = field_name
        self.label = label
        super().__init__(f"unknown {field_name} category: {label!r}")


# Declared category orders, lowest rank first. The orders are ascending in
# intensity; for caco3 the non-calcareous extreme ("potentially acidic")
# sits below the calcareous grades. Overridable via OrdinalSpec.
DEFAULT_ORDINAL_ORDERS: dict[str, tuple[str, ...]] = {
    "soil_type": ("shallow", "medium", "deep clay", "deep fertile"),
    "stone_content": ("stoneless", "low", "moderate", "high", "gravel"),
    "organic_matter": ("low", "moderate", "very high"),
    "caco3": ("potentially acidic", "slightly calc", "calc", "extremely calc"),
}


@dataclass(frozen=True)
class OrdinalSpec:
    """Category orders for the four ordinal soil fields."""

    orders: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_ORDINAL_ORDERS)
    )

    def encode(self, field_name: str, value: str) -> int:
        """Return the 0-based rank of ``value`` in its declared order."""
        try:
            order = self.orders[field_name]
        except KeyError:
            raise UnknownCategoryError(field_name, value) from None
        try:
            return order.index(value)
        except ValueError:
            raise UnknownCategoryError(field_name, value) from None

    def labels(self, field_name: str) -> tuple[str, ...]:
        return self.orders[field_name]


_DEFAULT_ORDINALS = OrdinalSpec()


@dataclass(frozen=True, slots=True)
class SoilRecord:
    """One soil test for a zone.

    Nutrients are mg/l, ph is unitless, the four category fields hold raw
    labels (encoding happens at feature-build time).
    """

    zone_id: str
    test_year: int
    p: float
    k: float
    mg: float
    ph: float
    soil_type: str
    stone_content: str
    organic_matter: str
    caco3: str


WEATHER_FIELDS = ("t_min", "t_max", "precip", "solar", "humidity")

# Daily weather is one structured array with a row per zone-day, 48 bytes
# and no Python object a row: zone is the row's code into its Weather's zone
# ids, day the date's proleptic ordinal (at most 3,652,059, for 9999-12-31).
WEATHER_DTYPE = np.dtype(
    [("zone", np.int32), ("day", np.int32)] + [(name, np.float64) for name in WEATHER_FIELDS]
)


@dataclass(frozen=True, eq=False)
class Weather:
    """Daily weather as a dictionary-coded table: ``table`` is a
    ``WEATHER_DTYPE`` array, and row i's zone id is ``zones[table["zone"][i]]``."""

    zones: tuple[str, ...]
    table: np.ndarray

    def __len__(self) -> int:
        return len(self.table)


def zone_day_key(zone: np.ndarray, day: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The int64 key of (zone code, day ordinal in [0, 2**32)): sorting by it
    sorts by zone, then day, and equal keys are the same zone-day. ``zone``
    must be int64 (numpy 2 refuses 2**32 as an int32 operand). With ``out``
    (which may be ``zone`` itself) the key is built there, in place."""
    return np.add(np.multiply(zone, 2**32, out=out), day, out=out)


@dataclass(frozen=True, slots=True)
class CropRecord:
    """One winter-wheat zone-year: sowing/harvest dates and observed yield."""

    zone_id: str
    year: int
    sowing_date: date
    harvest_date: date
    yield_t_ha: float


@dataclass(frozen=True, slots=True)
class WeeklyWeather:
    """Six weekly aggregates of daily weather (week 1 = sowing week)."""

    week_index: int
    t_avg: float
    dd_sum: float
    egd_total: int
    ap_sum: float
    sr_sum: float
    h_avg: float


@dataclass(frozen=True)
class Rejection:
    """Reason a record failed validation: which field, its value, and the
    violated bound (rendered into the reason string)."""

    field_name: str
    value: object
    reason: str

    def __str__(self) -> str:
        return f"{self.field_name}={self.value!r}: {self.reason}"


@dataclass(frozen=True)
class Bound:
    """Closed numeric interval; ``None`` means unbounded on that side."""

    lo: float | None = None
    hi: float | None = None

    def check(self, field_name: str, value: float) -> Rejection | None:
        if value != value:  # NaN
            return Rejection(field_name, value, "not a number")
        if math.isinf(value):
            return Rejection(field_name, value, "not finite")
        if self.lo is not None and value < self.lo:
            return Rejection(field_name, value, f"below lower bound {self.lo}")
        if self.hi is not None and value > self.hi:
            return Rejection(field_name, value, f"above upper bound {self.hi}")
        return None


@dataclass(frozen=True)
class ValidationRanges:
    """Plausibility bounds for every numeric record field.

    The defaults encode hard physical constraints plus the configured
    yield plausibility window; all of them can be overridden from the
    run config so domain experts can tighten or relax limits without
    code changes.
    """

    p: Bound = Bound(lo=0.0)
    k: Bound = Bound(lo=0.0)
    mg: Bound = Bound(lo=0.0)
    ph: Bound = Bound(lo=0.0, hi=14.0)
    t_min: Bound = Bound(lo=-60.0, hi=60.0)
    t_max: Bound = Bound(lo=-60.0, hi=60.0)
    precip: Bound = Bound(lo=0.0)
    solar: Bound = Bound(lo=0.0)
    humidity: Bound = Bound(lo=0.0, hi=100.0)
    yield_t_ha: Bound = Bound(lo=1.0, hi=18.0)


DEFAULT_RANGES = ValidationRanges()


def validate(
    record: SoilRecord | CropRecord,
    ranges: ValidationRanges = DEFAULT_RANGES,
    ordinals: OrdinalSpec | None = None,
) -> Rejection | None:
    """Check a record against its invariants and the configured ranges.

    Returns ``None`` when the record is acceptable, otherwise a
    :class:`Rejection` for the first violated constraint. Never raises.
    """
    ordinals = ordinals or _DEFAULT_ORDINALS
    if isinstance(record, SoilRecord):
        for name in ("p", "k", "mg", "ph"):
            bad = getattr(ranges, name).check(name, getattr(record, name))
            if bad is not None:
                return bad
        for name in ("soil_type", "stone_content", "organic_matter", "caco3"):
            label = getattr(record, name)
            if label not in ordinals.labels(name):
                return Rejection(name, label, "unknown category")
        return None

    if isinstance(record, CropRecord):
        bad = ranges.yield_t_ha.check("yield_t_ha", record.yield_t_ha)
        if bad is not None:
            return bad
        if record.sowing_date >= record.harvest_date:
            return Rejection(
                "sowing_date",
                record.sowing_date,
                f"not before harvest_date {record.harvest_date}",
            )
        return None

    raise TypeError(f"cannot validate {type(record).__name__}")


def weather_rejections(
    table: np.ndarray, ranges: ValidationRanges = DEFAULT_RANGES
) -> dict[int, Rejection]:
    """First violated constraint of each bad row of a ``WEATHER_DTYPE`` array,
    keyed by row index: the field bounds in field order, then t_min <= t_max."""
    found: dict[int, Rejection] = {}
    for name in WEATHER_FIELDS:
        bound, column = getattr(ranges, name), table[name]
        lo = -np.inf if bound.lo is None else bound.lo
        hi = np.inf if bound.hi is None else bound.hi
        for i in np.flatnonzero(~(np.isfinite(column) & (column >= lo) & (column <= hi))).tolist():
            found.setdefault(i, bound.check(name, float(column[i])))
    for i in np.flatnonzero(table["t_min"] > table["t_max"]).tolist():
        _, _, t_min, t_max, *_ = table[i].item()
        found.setdefault(i, Rejection("t_min", t_min, f"exceeds t_max {t_max}"))
    return found
