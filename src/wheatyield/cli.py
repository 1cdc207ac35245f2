"""Command-line surface for the pipeline.

Commands: synth | ingest | features | evaluate | compare. Every command
reads the same declarative config (see README for the full key table),
applies flag overrides, writes its outputs under the configured output
directory, and is idempotent for a fixed config and seed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from . import evalstat, features, ingest, reporting, synthgen
from .config import ConfigError, MODES, RunConfig, load_config
from .domain import CropRecord, SoilRecord, WeatherDaily
from .ingest import RejectionLog


def _common_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(), default=None,
                      help="Config file (INI sections of key = value).")(fn)
    fn = click.option("--seed", type=int, default=None, help="Master seed override.")(fn)
    fn = click.option("--out", "out_dir", type=click.Path(), default=None,
                      help="Output directory override.")(fn)
    fn = click.option("--mode", type=click.Choice(MODES), default=None,
                      help="Feature mode override.")(fn)
    fn = click.option("--test-year", type=int, default=None, help="Held-out year override.")(fn)
    fn = click.option("--jobs", type=int, default=None,
                      help="Worker threads for ensemble training.")(fn)
    return fn


def _load(config_path, seed, out_dir, mode, test_year, jobs) -> RunConfig:
    overrides: dict[str, str] = {}
    if seed is not None:
        overrides["run.seed"] = str(seed)
    if out_dir is not None:
        overrides["paths.out"] = out_dir
    if mode is not None:
        overrides["run.mode"] = mode
    if test_year is not None:
        overrides["run.test_year"] = str(test_year)
    if jobs is not None:
        overrides["run.jobs"] = str(jobs)
    try:
        return load_config(config_path, overrides)
    except ConfigError as exc:
        raise click.ClickException(str(exc)) from exc


def _out(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _ingest_all(
    cfg: RunConfig,
) -> tuple[list[SoilRecord], list[WeatherDaily], list[CropRecord], RejectionLog]:
    try:
        soil, log_s = ingest.parse_soil(cfg.soil_path, cfg.ranges, cfg.ordinals)
        weather, log_w = ingest.parse_weather(cfg.weather_path, cfg.ranges)
        crops, log_c = ingest.parse_crop(cfg.crop_path, cfg.ranges)
    except ingest.SchemaError as exc:
        raise click.ClickException(str(exc)) from exc
    log = RejectionLog()
    log.extend(log_s)
    log.extend(log_w)
    log.extend(log_c)
    return soil, weather, crops, log


def _build_instances(cfg: RunConfig, mode: str):
    soil, weather, crops, log = _ingest_all(cfg)
    internal = "soil_weather" if mode in ("both", "soil_weather") else "soil_only"
    instances, skipped = features.build_instances(
        crops, soil, weather, internal, cfg.feature_params, cfg.ordinals
    )
    return instances, skipped, log


def _write_skipped(skipped, out: Path) -> None:
    lines = ["zone_id,year,reason"]
    lines += [f"{s.zone_id},{s.year},{s.reason}" for s in skipped]
    (out / "skipped_instances.csv").write_text("\n".join(lines) + "\n")


@click.group()
def main() -> None:
    """Winter wheat yield prediction pipeline."""


@main.command()
@_common_options
def synth(**kwargs) -> None:
    """Generate the synthetic soil/weather/crop CSV files."""
    cfg = _load(**kwargs)
    out = _out(cfg)
    paths = synthgen.gen_dataset(cfg.gen, out, cfg.feature_params)
    for name, path in paths.items():
        click.echo(f"wrote {name}: {path}")


@main.command(name="ingest")
@_common_options
def ingest_cmd(**kwargs) -> None:
    """Parse and clean the input CSVs; write cleaned copies and the
    rejection log."""
    cfg = _load(**kwargs)
    out = _out(cfg)
    soil, weather, crops, log = _ingest_all(cfg)
    ingest.write_soil_csv(soil, out / "soil_clean.csv")
    ingest.write_weather_csv(weather, out / "weather_clean.csv")
    ingest.write_crop_csv(crops, out / "crop_clean.csv")
    log.write_csv(out / "rejections.csv")
    click.echo(
        f"accepted {len(soil)} soil / {len(weather)} weather / {len(crops)} crop rows; "
        f"{len(log)} rows logged"
    )


@main.command(name="features")
@_common_options
def features_cmd(**kwargs) -> None:
    """Build instances and dump feature matrices as CSV."""
    cfg = _load(**kwargs)
    out = _out(cfg)
    instances, skipped, log = _build_instances(cfg, cfg.mode)
    log.write_csv(out / "rejections.csv")
    _write_skipped(skipped, out)
    wanted = (
        ("soil_only", "soil_weather") if cfg.mode == "both" else (cfg.internal_mode,)
    )
    for mode in wanted:
        try:
            matrix = features.build_matrix(instances, mode, cfg.feature_params)
        except ValueError as exc:
            raise click.ClickException(str(exc)) from exc
        name = "features_soil.csv" if mode == "soil_only" else "features_soil_weather.csv"
        features.write_features_csv(matrix, out / name)
        click.echo(f"wrote {name}: {matrix.n_rows} rows x {matrix.n_cols} features")
    if skipped:
        click.echo(f"skipped {len(skipped)} zone-years (see skipped_instances.csv)")


def _run_experiment(cfg: RunConfig, force_both: bool = False) -> evalstat.Report:
    mode = "both" if force_both else cfg.mode
    instances, skipped, log = _build_instances(cfg, mode)
    out = _out(cfg)
    log.write_csv(out / "rejections.csv")
    _write_skipped(skipped, out)
    exp = evalstat.ExperimentConfig(
        models=list(cfg.models),
        model_params=cfg.model_params,
        test_year=cfg.test_year,
        train_start=cfg.train_start,
        train_end=cfg.train_end,
        seed=cfg.seed,
        mode="both" if mode == "both" else cfg.internal_mode,
        paired_alternative=cfg.paired_alternative,
        feature_params=cfg.feature_params,
        n_jobs=cfg.jobs,
        config_digest=cfg.digest,
    )
    try:
        return evalstat.run_experiment(instances, exp)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc


@main.command()
@_common_options
def evaluate(**kwargs) -> None:
    """Train the model suite and write report.csv, report.txt and
    mae_chart.svg."""
    cfg = _load(**kwargs)
    out = _out(cfg)
    report = _run_experiment(cfg)
    reporting.write_report_csv(report, out / "report.csv")
    reporting.write_report_txt(report, out / "report.txt")
    reporting.write_mae_chart_svg(report, out / "mae_chart.svg")
    click.echo(reporting.report_text(report).rstrip())


@main.command()
@_common_options
def compare(**kwargs) -> None:
    """Paired soil vs. soil+weather comparison, appended to the report."""
    cfg = _load(**kwargs)
    out = _out(cfg)
    report = _run_experiment(cfg, force_both=True)
    reporting.append_compare_txt(report, out / "report.txt")
    (out / "compare.csv").write_text(reporting.compare_csv(report))
    click.echo(reporting.compare_text(report).rstrip())


if __name__ == "__main__":
    sys.exit(main())
