"""Declarative run configuration.

One INI-style file (sections of key = value lines) restates a whole
experiment; command-line flags override individual values. Unknown
sections or keys are fatal so typos cannot silently fall back to
defaults. Every key has a documented default (see README).

The keys, types and defaults of [validation], [ordinals], [features],
[synth] and [model.<kind>] are those of the dataclass fields they set, so
a default is changed on the dataclass. Only [paths], [run] and
[experiment] are spelled out here.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, fields
from pathlib import Path

from .domain import DEFAULT_ORDINAL_ORDERS, DEFAULT_RANGES, Bound, OrdinalSpec, ValidationRanges
from .evalstat import PAIRED_ALTERNATIVES, ExperimentConfig, check_models
from .features import DEFAULT_FEATURE_PARAMS, MODE_SOIL, MODE_SOIL_WEATHER, FeatureParams
from .learners import MODEL_KINDS, ModelParams
from .synthgen import GenConfig, YearSpec

# each [run] mode (and --mode) value -> the feature modes it runs
_RUN_MODES = {"soil": (MODE_SOIL,), "soil_weather": (MODE_SOIL_WEATHER,),
              "both": (MODE_SOIL, MODE_SOIL_WEATHER)}
MODES = tuple(_RUN_MODES)


class ConfigError(ValueError):
    """Bad configuration file or overrides."""


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


_PARSERS = {"int": _parse_int, "float": _parse_float, "bool": _parse_bool}


def _parse(section: str, key: str, text: str, annotation: str):
    """Parse a value by the annotation of the field it sets.

    Annotations are strings: every module postpones their evaluation.
    """
    if annotation.endswith(" | None"):
        return _parse_opt(section, key, text, _PARSERS[annotation.removesuffix(" | None")])
    return _PARSERS[annotation](section, key, text)


def _text(value) -> str:
    """A default as a config file spells it."""
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value).removesuffix(".0")
    return str(value)


def _scalar_fields(cls, exclude: tuple[str, ...] = ()) -> dict[str, str]:
    """Name -> annotation of the int/float/bool (or optional) fields of cls."""
    return {
        f.name: f.type for f in fields(cls)
        if f.type.removesuffix(" | None") in _PARSERS and f.name not in exclude
    }


_GEN = GenConfig()
# seed and the yield clamp come from [run] seed and [validation] yield_*
_SYNTH_TYPES = _scalar_fields(GenConfig, exclude=("seed", "yield_lo", "yield_hi"))
_FEATURE_TYPES = _scalar_fields(FeatureParams)
_MODEL_TYPES = _scalar_fields(ModelParams)
# [validation] key prefix -> ValidationRanges field; a key drops the unit suffix
_BOUNDS = {f.name.removesuffix("_t_ha"): f.name for f in fields(ValidationRanges)}
_SIDES = {"min": "lo", "max": "hi"}

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
        "jobs": "0",
        "models": "decision_tree,svr,random_forest,extra_trees,hist_gradient_boosting,"
                  "gradient_boosting",
    },
    "experiment": {
        "paired_alternative": "b_less_than_a",
    },
    "validation": {
        f"{prefix}_{side}": _text(getattr(getattr(DEFAULT_RANGES, name), attr))
        for prefix, name in _BOUNDS.items()
        for side, attr in _SIDES.items()
    },
    "ordinals": {name: ",".join(order) for name, order in DEFAULT_ORDINAL_ORDERS.items()},
    "features": {key: _text(getattr(DEFAULT_FEATURE_PARAMS, key)) for key in _FEATURE_TYPES},
    "synth": {
        "years": ",".join(
            f"{y}:{s.zones}:{s.yield_mean}:{s.yield_std}" for y, s in _GEN.years.items()
        ),
        **{key: _text(getattr(_GEN, key)) for key in _SYNTH_TYPES},
    },
}


def _fields_from(section: str, values: dict[str, str], types: dict[str, str]) -> dict:
    """Parsed keyword arguments for the typed keys of a merged section."""
    return {
        key: _parse(section, key, text, types[key])
        for key, text in values.items() if key in types
    }


@dataclass
class RunConfig:
    """Fully resolved configuration for every CLI command."""

    soil_path: str
    weather_path: str
    crop_path: str
    out_dir: str
    ranges: ValidationRanges
    ordinals: OrdinalSpec
    gen: GenConfig
    experiment: ExperimentConfig


def _merged_mapping(path: str | Path | None, overrides: dict[str, str]) -> dict[str, dict[str, str]]:
    """Defaults, file values and overrides merged; unknown keys are fatal.

    Overrides use "section.key" addressing.
    """
    merged = {section: dict(keys) for section, keys in _DEFAULTS.items()}
    for kind in MODEL_KINDS:
        merged[f"model.{kind}"] = {}

    def put(section: str, items) -> None:
        if section not in merged:
            raise ConfigError(f"unknown config section [{section}]")
        allowed = _MODEL_TYPES if section.startswith("model.") else _DEFAULTS[section]
        for key, value in items:
            if key not in allowed:
                raise ConfigError(f"unknown config key [{section}] {key}")
            merged[section][key] = value

    if path is not None:
        parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
        parser.optionxform = str  # keys are case-sensitive
        read = parser.read(str(path))
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            put(section, parser.items(section))

    for dotted, value in overrides.items():
        if "." not in dotted:
            raise ConfigError(f"override {dotted!r} must be section.key")
        section, key = dotted.rsplit(".", 1)
        put(section, [(key, str(value))])
    return merged


def _digest(merged: dict[str, dict[str, str]]) -> str:
    # jobs (parallelism width) and out (output directory) never change a result, so
    # reports are byte-identical across widths and output directories
    canon = "\n".join(
        f"{section}.{key}={merged[section][key]}"
        for section in sorted(merged)
        for key in sorted(merged[section])
        if (section, key) not in (("run", "jobs"), ("paths", "out"))
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _build_ranges(values: dict[str, str]) -> ValidationRanges:
    def bound(prefix: str) -> Bound:
        lo, hi = (
            _parse_opt("validation", f"{prefix}_{side}", values[f"{prefix}_{side}"], _parse_float)
            for side in _SIDES
        )
        return Bound(lo=lo, hi=hi)

    return ValidationRanges(**{name: bound(prefix) for prefix, name in _BOUNDS.items()})


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
    # an unbounded yield side keeps the generator's own clamp
    clamp = {"yield_lo": yield_bound.lo, "yield_hi": yield_bound.hi}
    kwargs = {
        "years": _build_years(values["years"]), "seed": seed,
        **{key: value for key, value in clamp.items() if value is not None},
        **_fields_from("synth", values, _SYNTH_TYPES),
    }
    try:
        return GenConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[synth] {exc}") from None


def _build_model_params(kind: str, values: dict[str, str], run_seed: int) -> ModelParams:
    section = f"model.{kind}"
    kwargs = {"seed": run_seed, **_fields_from(section, values, _MODEL_TYPES)}
    try:
        return ModelParams(**kwargs)
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
    jobs = _parse_int("run", "jobs", run["jobs"])
    if jobs < 0:
        raise ConfigError("[run] jobs must be >= 0 (0 = one worker per usable core)")
    mode = run["mode"].strip()
    if mode not in MODES:
        raise ConfigError(f"[run] mode must be one of {MODES}, got {mode!r}")
    models = _parse_list(run["models"])
    try:
        check_models(models)
    except ValueError as exc:
        raise ConfigError(f"[run] models: {exc}") from None

    alternative = merged["experiment"]["paired_alternative"].strip()
    if alternative not in PAIRED_ALTERNATIVES:
        raise ConfigError(
            f"[experiment] paired_alternative must be {' or '.join(PAIRED_ALTERNATIVES)}"
        )

    ranges = _build_ranges(merged["validation"])
    ordinals = OrdinalSpec(
        orders={name: tuple(_parse_list(text)) for name, text in merged["ordinals"].items()}
    )
    try:
        feature_params = FeatureParams(**_fields_from("features", merged["features"], _FEATURE_TYPES))
    except ValueError as exc:
        raise ConfigError(f"[features] {exc}") from None

    model_params = {
        kind: _build_model_params(kind, merged[f"model.{kind}"], seed)
        for kind in MODEL_KINDS
    }

    experiment = ExperimentConfig(
        models=models,
        model_params=model_params,
        test_year=_parse_int("run", "test_year", run["test_year"]),
        train_start=_parse_opt("run", "train_start", run["train_start"], _parse_int),
        train_end=_parse_opt("run", "train_end", run["train_end"], _parse_int),
        seed=seed,
        modes=_RUN_MODES[mode],
        paired_alternative=alternative,
        feature_params=feature_params,
        n_jobs=jobs,
        config_digest=_digest(merged),
    )
    return RunConfig(
        soil_path=merged["paths"]["soil"],
        weather_path=merged["paths"]["weather"],
        crop_path=merged["paths"]["crop"],
        out_dir=merged["paths"]["out"],
        ranges=ranges,
        ordinals=ordinals,
        gen=_build_gen(merged["synth"], seed, ranges.yield_t_ha),
        experiment=experiment,
    )
