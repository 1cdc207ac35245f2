"""Declarative run configuration.

One INI-style file (sections of key = value lines) restates a whole
experiment; command-line flags override individual values. Unknown
sections or keys are fatal so typos cannot silently fall back to
defaults. Every key has a documented default (see README).
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from .domain import Bound, OrdinalSpec, ValidationRanges
from .features import FeatureParams
from .learners import MODEL_KINDS, ModelParams
from .synthgen import DEFAULT_SOIL_COEFS, DEFAULT_YEARS, GenConfig, YearSpec

MODES = ("soil", "soil_weather", "both")

_MODE_TO_INTERNAL = {"soil": "soil_only", "soil_weather": "soil_weather", "both": "both"}


class ConfigError(ValueError):
    """Bad configuration file or overrides."""


DEFAULT_MODELS = (
    "decision_tree",
    "svr",
    "random_forest",
    "extra_trees",
    "hist_gradient_boosting",
    "gradient_boosting",
)

# section -> key -> default (stored as strings, parsed on assembly)
_DEFAULTS: dict[str, dict[str, str]] = {
    "paths": {
        "soil": "out/soil.csv",
        "weather": "out/weather.csv",
        "crop": "out/crop.csv",
        "out": "out",
    },
    "run": {
        "seed": "0",
        "mode": "both",
        "test_year": "2018",
        "train_start": "2013",
        "train_end": "2017",
        "jobs": "1",
        "models": ",".join(DEFAULT_MODELS),
    },
    "experiment": {
        "paired_alternative": "b_less_than_a",
    },
    "validation": {
        "p_min": "0", "p_max": "none",
        "k_min": "0", "k_max": "none",
        "mg_min": "0", "mg_max": "none",
        "ph_min": "0", "ph_max": "14",
        "t_min_min": "-60", "t_min_max": "60",
        "t_max_min": "-60", "t_max_max": "60",
        "precip_min": "0", "precip_max": "none",
        "solar_min": "0", "solar_max": "none",
        "humidity_min": "0", "humidity_max": "100",
        "yield_min": "1", "yield_max": "18",
    },
    "ordinals": {
        "soil_type": "shallow,medium,deep clay,deep fertile",
        "stone_content": "stoneless,low,moderate,high,gravel",
        "organic_matter": "low,moderate,very high",
        "caco3": "potentially acidic,slightly calc,calc,extremely calc",
    },
    "features": {
        "week_start": "17",
        "week_end": "40",
        "min_days_per_week": "7",
    },
    "synth": {
        "years": ",".join(
            f"{y}:{s.zones}:{s.yield_mean}:{s.yield_std}" for y, s in DEFAULT_YEARS.items()
        ),
        "zone_pool": "420",
        "sow_month": "9",
        "sow_day": "20",
        "sow_window_days": "30",
        "harvest_jitter_days": "13",
        "t_base": "9.5", "t_amp": "6.5", "t_zone_sd": "0.8", "t_daily_sd": "1.6",
        "t_halfrange": "3.2", "t_halfrange_sd": "0.7", "t_halfrange_min": "0.6",
        "wet_prob_base": "0.45", "wet_prob_amp": "0.1",
        "rain_scale_mm": "4.5", "zone_wet_sd": "0.18",
        "sol_base": "10.5", "sol_amp": "8.5", "sol_sd": "2.5",
        "hum_base": "80", "hum_amp": "8", "hum_sd": "5",
        "p_median": "30", "p_sigma": "0.35",
        "k_median": "185", "k_sigma": "0.3",
        "mg_median": "85", "mg_sigma": "0.4",
        "ph_mean": "6.9", "ph_sd": "0.55", "ph_lo": "3.5", "ph_hi": "9.5",
        "nutrient_drift_sigma": "0.08", "ph_drift_sd": "0.15",
        "test_first_lo": "2009", "test_first_hi": "2012",
        "soil_weight": "0.45",
        "weather_weight": "1.25",
        "noise_floor": "0.25",
        "dd_opt": "1732", "dd_scale": "298",
        "ap_opt": "350", "ap_scale": "154",
        "soil_term_mean": "3.146", "soil_term_std": "0.349",
        "score_mean": "0.576", "score_std": "0.273",
    },
}

_MODEL_KEYS = (
    "max_depth", "min_samples_leaf", "n_estimators", "learning_rate", "subsample",
    "max_features", "bootstrap", "n_bins", "max_leaves",
    "svr_epsilon", "svr_c", "svr_iterations", "svr_step_size", "seed",
)


def _parse_int(section: str, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected integer, got {value!r}") from None


def _parse_float(section: str, key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected number, got {value!r}") from None


def _parse_opt(section: str, key: str, value: str, parser):
    if value.strip().lower() in ("none", ""):
        return None
    return parser(section, key, value)


def _parse_bool(section: str, key: str, value: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"[{section}] {key}: expected boolean, got {value!r}")


def _parse_list(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


@dataclass
class RunConfig:
    """Fully resolved configuration for every CLI command."""

    soil_path: str
    weather_path: str
    crop_path: str
    out_dir: str
    seed: int
    mode: str  # soil | soil_weather | both
    test_year: int
    train_start: int | None
    train_end: int | None
    jobs: int
    models: list[str]
    paired_alternative: str
    ranges: ValidationRanges
    ordinals: OrdinalSpec
    feature_params: FeatureParams
    model_params: dict[str, ModelParams]
    gen: GenConfig
    digest: str = ""

    @property
    def internal_mode(self) -> str:
        return _MODE_TO_INTERNAL[self.mode]


def _merged_mapping(path: str | Path | None, overrides: dict[str, str]) -> dict[str, dict[str, str]]:
    """Defaults, file values and overrides merged; unknown keys are fatal.

    Overrides use "section.key" addressing.
    """
    merged = {section: dict(keys) for section, keys in _DEFAULTS.items()}
    for kind in MODEL_KINDS:
        merged[f"model.{kind}"] = {}

    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str  # keys are case-sensitive
        read = parser.read(str(path))
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            if section not in merged:
                raise ConfigError(f"unknown config section [{section}]")
            allowed = _MODEL_KEYS if section.startswith("model.") else _DEFAULTS[section]
            for key, value in parser.items(section):
                if key not in allowed:
                    raise ConfigError(f"unknown config key [{section}] {key}")
                merged[section][key] = value

    for dotted, value in overrides.items():
        if "." not in dotted:
            raise ConfigError(f"override {dotted!r} must be section.key")
        section, key = dotted.rsplit(".", 1)
        if section not in merged:
            raise ConfigError(f"unknown config section [{section}]")
        allowed = _MODEL_KEYS if section.startswith("model.") else _DEFAULTS[section]
        if key not in allowed:
            raise ConfigError(f"unknown config key [{section}] {key}")
        merged[section][key] = str(value)
    return merged


def _digest(merged: dict[str, dict[str, str]]) -> str:
    # jobs controls parallelism width only, never results, so it stays out
    # of the digest and reports are byte-identical across widths
    canon = "\n".join(
        f"{section}.{key}={merged[section][key]}"
        for section in sorted(merged)
        for key in sorted(merged[section])
        if (section, key) != ("run", "jobs")
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _build_ranges(values: dict[str, str]) -> ValidationRanges:
    def bound(name: str) -> Bound:
        lo = _parse_opt("validation", f"{name}_min", values[f"{name}_min"], _parse_float)
        hi = _parse_opt("validation", f"{name}_max", values[f"{name}_max"], _parse_float)
        return Bound(lo=lo, hi=hi)

    return ValidationRanges(
        p=bound("p"), k=bound("k"), mg=bound("mg"), ph=bound("ph"),
        t_min=bound("t_min"), t_max=bound("t_max"),
        precip=bound("precip"), solar=bound("solar"), humidity=bound("humidity"),
        yield_t_ha=bound("yield"),
    )


def _build_years(section_value: str) -> dict[int, YearSpec]:
    years: dict[int, YearSpec] = {}
    for chunk in _parse_list(section_value):
        parts = chunk.split(":")
        if len(parts) != 4:
            raise ConfigError(
                f"[synth] years: expected year:zones:mean:std, got {chunk!r}"
            )
        year = _parse_int("synth", "years", parts[0])
        years[year] = YearSpec(
            zones=_parse_int("synth", "years", parts[1]),
            yield_mean=_parse_float("synth", "years", parts[2]),
            yield_std=_parse_float("synth", "years", parts[3]),
        )
    if not years:
        raise ConfigError("[synth] years: at least one year required")
    return years


def _build_gen(values: dict[str, str], seed: int, yield_bound: Bound) -> GenConfig:
    f = lambda key: _parse_float("synth", key, values[key])  # noqa: E731
    i = lambda key: _parse_int("synth", key, values[key])  # noqa: E731
    return GenConfig(
        years=_build_years(values["years"]),
        seed=seed,
        zone_pool=i("zone_pool"),
        sow_month=i("sow_month"), sow_day=i("sow_day"),
        sow_window_days=i("sow_window_days"),
        harvest_jitter_days=i("harvest_jitter_days"),
        t_base=f("t_base"), t_amp=f("t_amp"), t_zone_sd=f("t_zone_sd"),
        t_daily_sd=f("t_daily_sd"), t_halfrange=f("t_halfrange"),
        t_halfrange_sd=f("t_halfrange_sd"), t_halfrange_min=f("t_halfrange_min"),
        wet_prob_base=f("wet_prob_base"), wet_prob_amp=f("wet_prob_amp"),
        rain_scale_mm=f("rain_scale_mm"), zone_wet_sd=f("zone_wet_sd"),
        sol_base=f("sol_base"), sol_amp=f("sol_amp"), sol_sd=f("sol_sd"),
        hum_base=f("hum_base"), hum_amp=f("hum_amp"), hum_sd=f("hum_sd"),
        p_median=f("p_median"), p_sigma=f("p_sigma"),
        k_median=f("k_median"), k_sigma=f("k_sigma"),
        mg_median=f("mg_median"), mg_sigma=f("mg_sigma"),
        ph_mean=f("ph_mean"), ph_sd=f("ph_sd"), ph_lo=f("ph_lo"), ph_hi=f("ph_hi"),
        nutrient_drift_sigma=f("nutrient_drift_sigma"), ph_drift_sd=f("ph_drift_sd"),
        test_first_lo=i("test_first_lo"), test_first_hi=i("test_first_hi"),
        soil_coefs=dict(DEFAULT_SOIL_COEFS),
        soil_weight=f("soil_weight"), weather_weight=f("weather_weight"),
        noise_floor=f("noise_floor"),
        yield_lo=yield_bound.lo if yield_bound.lo is not None else 1.0,
        yield_hi=yield_bound.hi if yield_bound.hi is not None else 18.0,
        dd_opt=f("dd_opt"), dd_scale=f("dd_scale"),
        ap_opt=f("ap_opt"), ap_scale=f("ap_scale"),
        soil_term_mean=f("soil_term_mean"), soil_term_std=f("soil_term_std"),
        score_mean=f("score_mean"), score_std=f("score_std"),
    )


def _build_model_params(
    kind: str, overrides: dict[str, str], run_seed: int
) -> ModelParams:
    base = ModelParams(seed=run_seed)
    kwargs = {}
    section = f"model.{kind}"
    for key, value in overrides.items():
        if key == "max_depth" or key == "max_features":
            kwargs[key] = _parse_opt(section, key, value, _parse_int)
        elif key in ("min_samples_leaf", "n_estimators", "n_bins", "max_leaves",
                     "svr_iterations", "seed"):
            kwargs[key] = _parse_int(section, key, value)
        elif key in ("learning_rate", "subsample", "svr_epsilon", "svr_c", "svr_step_size"):
            kwargs[key] = _parse_float(section, key, value)
        elif key == "bootstrap":
            kwargs[key] = _parse_bool(section, key, value)
        else:
            raise ConfigError(f"unknown config key [{section}] {key}")
    try:
        return base.with_(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from None


def load_config(
    path: str | Path | None = None, overrides: dict[str, str] | None = None
) -> RunConfig:
    """Assemble the effective configuration from defaults, an optional
    file, and "section.key" overrides (in that precedence order)."""
    merged = _merged_mapping(path, overrides or {})
    run = merged["run"]
    seed = _parse_int("run", "seed", run["seed"])
    if seed < 0:
        raise ConfigError("[run] seed must be >= 0")
    mode = run["mode"].strip()
    if mode not in MODES:
        raise ConfigError(f"[run] mode must be one of {MODES}, got {mode!r}")
    models = _parse_list(run["models"])
    for kind in models:
        if kind not in MODEL_KINDS:
            raise ConfigError(f"[run] models: unknown model kind {kind!r}")

    alternative = merged["experiment"]["paired_alternative"].strip()
    if alternative not in ("b_less_than_a", "a_less_than_b"):
        raise ConfigError(
            "[experiment] paired_alternative must be b_less_than_a or a_less_than_b"
        )

    ranges = _build_ranges(merged["validation"])
    ordinals = OrdinalSpec(
        orders={
            name: tuple(_parse_list(merged["ordinals"][name]))
            for name in ("soil_type", "stone_content", "organic_matter", "caco3")
        }
    )
    feats = merged["features"]
    feature_params = FeatureParams(
        week_start=_parse_int("features", "week_start", feats["week_start"]),
        week_end=_parse_int("features", "week_end", feats["week_end"]),
        min_days_per_week=_parse_int("features", "min_days_per_week", feats["min_days_per_week"]),
    )
    if feature_params.week_start < 1 or feature_params.week_end < feature_params.week_start:
        raise ConfigError("[features] week window must satisfy 1 <= week_start <= week_end")
    if not 1 <= feature_params.min_days_per_week <= 7:
        raise ConfigError("[features] min_days_per_week must be in 1..7")

    model_params = {
        kind: _build_model_params(kind, merged[f"model.{kind}"], seed)
        for kind in MODEL_KINDS
    }

    return RunConfig(
        soil_path=merged["paths"]["soil"],
        weather_path=merged["paths"]["weather"],
        crop_path=merged["paths"]["crop"],
        out_dir=merged["paths"]["out"],
        seed=seed,
        mode=mode,
        test_year=_parse_int("run", "test_year", run["test_year"]),
        train_start=_parse_opt("run", "train_start", run["train_start"], _parse_int),
        train_end=_parse_opt("run", "train_end", run["train_end"], _parse_int),
        jobs=max(1, _parse_int("run", "jobs", run["jobs"])),
        models=models,
        paired_alternative=alternative,
        ranges=ranges,
        ordinals=ordinals,
        feature_params=feature_params,
        model_params=model_params,
        gen=_build_gen(merged["synth"], seed, ranges.yield_t_ha),
        digest=_digest(merged),
    )
