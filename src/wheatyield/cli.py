"""Command-line surface for the pipeline.

Commands: synth | ingest | features | evaluate. Every command reads the
same declarative config (see README for the full key table), applies flag
overrides, writes its outputs under the configured output directory, and
is idempotent for a fixed config and seed. A ``ValueError``
or ``OSError`` from any command, bad input and bad config included, ends the
run with one ``Error:`` line and exit status 1, not a traceback.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from . import evalstat, features, ingest, reporting, synthgen
from .config import MODES, RunConfig, load_config
from .features import MODE_SOIL, MODE_SOIL_WEATHER
from .ingest import RejectionLog


class _Cli(click.Group):
    """The one place a fatal error becomes an ``Error:`` line."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # click ends a run whose output reader went away quietly
        except (ValueError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


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
                      help="Worker processes for the model fits (0 = one per core).")(fn)
    return fn


def _load(config_path, seed, out_dir, mode, test_year, jobs) -> tuple[RunConfig, Path]:
    """The config with the flag overrides applied, and its output directory,
    made if missing."""
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
    cfg = load_config(config_path, overrides)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def _ingest_all(cfg: RunConfig):
    """Soil records, the weather table, crop records and the merged log."""
    soil, log_s = ingest.parse_soil(cfg.soil_path, cfg.ranges, cfg.ordinals)
    weather, log_w = ingest.parse_weather(cfg.weather_path, cfg.ranges)
    crops, log_c = ingest.parse_crop(cfg.crop_path, cfg.ranges)
    return soil, weather, crops, RejectionLog(log_s.entries + log_w.entries + log_c.entries)


def _build_instances(cfg: RunConfig, out: Path):
    """The instances and skipped zone-years for the configured feature modes;
    writes ``rejections.csv`` and ``skipped_instances.csv`` under ``out``."""
    soil, weather, crops, log = _ingest_all(cfg)
    mode = MODE_SOIL_WEATHER if MODE_SOIL_WEATHER in cfg.experiment.modes else MODE_SOIL
    instances, skipped = features.build_instances(
        crops, soil, weather, mode, cfg.experiment.feature_params, cfg.ordinals
    )
    log.write_csv(out / "rejections.csv")
    _write_skipped(skipped, out)
    return instances, skipped


# each mode's matrix file; features removes those of the modes it does not build
_MATRIX_FILES = {MODE_SOIL: "features_soil.csv", MODE_SOIL_WEATHER: "features_soil_weather.csv"}


def _write_skipped(skipped, out: Path) -> None:
    lines = ["zone_id,year,reason"]
    lines += [f"{s.zone_id},{s.year},{s.reason}" for s in skipped]
    (out / "skipped_instances.csv").write_text("\n".join(lines) + "\n")


@click.group(cls=_Cli)
def main() -> None:
    """Winter wheat yield prediction pipeline."""


@main.command()
@_common_options
def synth(**kwargs) -> None:
    """Generate the synthetic soil/weather/crop CSV files."""
    cfg, out = _load(**kwargs)
    paths = synthgen.gen_dataset(cfg.gen, out, cfg.experiment.feature_params)
    for name, path in paths.items():
        click.echo(f"wrote {name}: {path}")


@main.command(name="ingest")
@_common_options
def ingest_cmd(**kwargs) -> None:
    """Parse and clean the input CSVs; write cleaned copies and the
    rejection log."""
    cfg, out = _load(**kwargs)
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
    cfg, out = _load(**kwargs)
    exp = cfg.experiment
    instances, skipped = _build_instances(cfg, out)
    for mode, name in _MATRIX_FILES.items():
        if mode not in exp.modes:
            (out / name).unlink(missing_ok=True)
            continue
        matrix = features.build_matrix(instances, mode, exp.feature_params)
        features.write_features_csv(matrix, out / name)
        click.echo(f"wrote {name}: {matrix.n_rows} rows x {matrix.n_cols} features")
    if skipped:
        click.echo(f"skipped {len(skipped)} zone-years (see skipped_instances.csv)")


@main.command()
@_common_options
def evaluate(**kwargs) -> None:
    """Train the model suite; write report.csv, report.txt, mae_chart.svg and,
    when both feature modes ran, compare.csv and report.txt's paired section."""
    cfg, out = _load(**kwargs)
    instances, _ = _build_instances(cfg, out)
    report = evalstat.run_experiment(instances, cfg.experiment)
    reporting.write_report_csv(report, out / "report.csv")
    reporting.write_report_txt(report, out / "report.txt")
    reporting.write_mae_chart_svg(report, out / "mae_chart.svg")
    if reporting.paired(report):
        (out / "compare.csv").write_text(reporting.compare_csv(report))
    else:  # an earlier both-mode run's comparison is not this run's
        (out / "compare.csv").unlink(missing_ok=True)
    click.echo(reporting.full_text(report).rstrip())


if __name__ == "__main__":
    sys.exit(main())
