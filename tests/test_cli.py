import csv
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from unittest.mock import patch

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from wheatyield import evalstat, ingest
from wheatyield.cli import main
from wheatyield.config import _DEFAULTS, ConfigError, load_config
from wheatyield.learners import ModelParams
from wheatyield.ingest import carry_forward_soil, parse_crop, parse_soil

TINY_CONFIG = """\
[run]
seed = 11
models = decision_tree,random_forest
test_year = 2018
train_start = 2016
train_end = 2017

[synth]
years = 2016:14:9.9:1.4,2017:12:10.2:1.8,2018:12:9.4:1.7
zone_pool = 24

[model.decision_tree]
max_depth = 4
min_samples_leaf = 3

[model.random_forest]
n_estimators = 12
max_depth = 5
min_samples_leaf = 3
"""


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.ini").write_text(TINY_CONFIG)
    return tmp_path


def run_cli(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def readme_block() -> str:
    """The README's Configuration ini block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("## Configuration", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]


def readme_config() -> dict[str, dict[str, str]]:
    """section -> key -> default of the README's Configuration ini block."""
    sections: dict[str, dict[str, str]] = {}
    for line in readme_block().splitlines():
        line = line.split(";", 1)[0].strip()
        if line.startswith("["):
            current = sections.setdefault(line.strip("[]"), {})
        elif line:
            key, _, value = line.partition("=")
            current[key.strip()] = value.strip()
    return sections


class TestConfig:
    def test_defaults_load_without_file(self):
        cfg = load_config()
        assert cfg.experiment.test_year == 2018
        assert cfg.experiment.modes == ("soil_only", "soil_weather")
        assert len(cfg.experiment.models) == 6

    def test_unknown_key_is_fatal(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nsedd = 3\n")
        with pytest.raises(ConfigError, match="sedd"):
            load_config(path)

    def test_unknown_section_is_fatal(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[runner]\nseed = 3\n")
        with pytest.raises(ConfigError, match="runner"):
            load_config(path)

    def test_overrides_take_precedence(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nseed = 3\n")
        cfg = load_config(path, {"run.seed": "9"})
        assert cfg.experiment.seed == 9

    def test_digest_tracks_content(self, tmp_path):
        a = load_config(None, {"run.seed": "1"})
        b = load_config(None, {"run.seed": "2"})
        assert a.experiment.config_digest != b.experiment.config_digest

    def test_model_sections_feed_params(self, workdir):
        cfg = load_config("run.ini")
        assert cfg.experiment.model_params["decision_tree"].max_depth == 4
        assert cfg.experiment.model_params["random_forest"].n_estimators == 12
        assert cfg.experiment.model_params["random_forest"].seed == 11

    def test_bad_model_value_reports_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[model.svr]\nsvr_c = -1\n")
        with pytest.raises(ConfigError, match="model.svr"):
            load_config(path)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            load_config(None, {"run.mode": "weather"})

    def test_unknown_model_kind_rejected(self):
        with pytest.raises(ConfigError, match="model kind"):
            load_config(None, {"run.models": "decision_tree,mystery_net"})

    def test_malformed_years_rejected(self):
        with pytest.raises(ConfigError, match="years"):
            load_config(None, {"synth.years": "2018:264:9.36"})

    def test_bad_week_window_rejected(self):
        with pytest.raises(ConfigError, match="week"):
            load_config(None, {"features.week_start": "20", "features.week_end": "10"})
        # week 54 starts a year after sowing
        for week_end in ("54", "100000000000"):
            with pytest.raises(ConfigError, match=r"week_start <= week_end <= 53$"):
                load_config(None, {"features.week_end": week_end})
        assert load_config(None, {"features.week_end": "53"}).experiment.feature_params.week_end == 53

    @pytest.mark.parametrize("value", ["0", "8"])
    def test_min_days_per_week_outside_one_to_seven_rejected(self, value):
        with pytest.raises(ConfigError, match="min_days_per_week must be in 1..7"):
            load_config(None, {"features.min_days_per_week": value})

    def test_min_days_per_week_bounds_accepted(self):
        for value in ("1", "7"):
            cfg = load_config(None, {"features.min_days_per_week": value})
            assert cfg.experiment.feature_params.min_days_per_week == int(value)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            load_config(None, {"run.seed": "-4"})

    def test_bad_alternative_rejected(self):
        with pytest.raises(ConfigError, match="paired_alternative"):
            load_config(None, {"experiment.paired_alternative": "two_sided"})

    def test_jobs_zero_means_usable_cores_and_stays_out_of_digest(self):
        base = load_config()
        assert base.experiment.n_jobs == 0
        wide = load_config(None, {"run.jobs": "3"})
        assert wide.experiment.n_jobs == 3
        assert wide.experiment.config_digest == base.experiment.config_digest

    def test_negative_jobs_rejected(self):
        with pytest.raises(ConfigError, match=r"\[run\] jobs must be >= 0"):
            load_config(None, {"run.jobs": "-1"})

    def test_repeated_model_kind_rejected(self):
        with pytest.raises(ConfigError, match=r"\[run\] models: duplicate model kind 'svr'"):
            load_config(None, {"run.models": "svr,decision_tree,svr"})

    def test_default_digest_is_pinned(self):
        # the digest is printed in report.txt, so the default text of every
        # key is part of the report bytes
        assert load_config().experiment.config_digest == "cd306ed50bae5b81"

    def test_every_default_text_reloads_to_the_defaults(self):
        base = load_config()
        for section, keys in _DEFAULTS.items():
            for key, text in keys.items():
                assert load_config(None, {f"{section}.{key}": text}) == base, (section, key)

    def test_readme_lists_every_key_and_default(self):
        documented = readme_config()
        model = documented.pop("model.<kind>")
        assert documented == _DEFAULTS
        assert model.pop("seed") == "<run seed>"
        assert set(model) == {f.name for f in fields(ModelParams)} - {"seed"}
        overrides = {f"model.svr.{key}": text for key, text in model.items()}
        assert load_config(None, overrides).experiment.model_params["svr"] == ModelParams()

    def test_readme_block_loads_as_written(self, tmp_path):
        # comments and all, the block is a config file that sets the defaults
        path = tmp_path / "readme.ini"
        path.write_text(readme_block().replace("<run seed>", "0").replace("<kind>", "svr"))
        cfg, base = load_config(path), load_config()
        # the digest covers the text of every key a file sets, defaults too
        cfg.experiment = replace(cfg.experiment, config_digest=base.experiment.config_digest)
        assert cfg == base


class TestCliPipeline:
    def test_help_lists_commands_and_flags(self):
        result = run_cli("--help")
        assert result.exit_code == 0
        for cmd in ("synth", "ingest", "features", "evaluate"):
            assert cmd in result.output
        result = run_cli("evaluate", "--help")
        for flag in ("--config", "--seed", "--out", "--mode", "--test-year"):
            assert flag in result.output

    def test_synth_then_ingest_zero_rejections(self, workdir):
        result = run_cli("synth", "--config", "run.ini")
        assert result.exit_code == 0
        for name in ("soil.csv", "weather.csv", "crop.csv"):
            assert (workdir / "out" / name).exists()
        result = run_cli("ingest", "--config", "run.ini")
        assert result.exit_code == 0
        rejections = (workdir / "out" / "rejections.csv").read_text().splitlines()
        assert rejections == ["source,line,reason"]

    def test_ingest_rewrites_synth_files_byte_identically(self, workdir):
        # synth and ingest share one writer set, so a clean round trip is
        # the identity on bytes
        assert run_cli("synth", "--config", "run.ini").exit_code == 0
        assert run_cli("ingest", "--config", "run.ini").exit_code == 0
        out = workdir / "out"
        for name in ("soil", "weather", "crop"):
            assert (out / f"{name}_clean.csv").read_bytes() == (out / f"{name}.csv").read_bytes()

    @pytest.mark.parametrize("value", ["inf", "-inf"])
    @pytest.mark.parametrize("source,column,field", [("soil", 2, "p"), ("weather", 4, "precip")])
    def test_non_finite_cell_is_rejected_not_fatal(self, workdir, source, column, field, value):
        run_cli("synth", "--config", "run.ini")
        out = workdir / "out"
        crops, _ = parse_crop(out / "crop.csv")
        if source == "soil":
            # the test the first crop's zone-year carries forward
            soil, _ = parse_soil(out / "soil.csv")
            row = soil.index(carry_forward_soil(soil, crops[0].zone_id, crops[0].year)) + 1
        else:
            # a day of the first zone-year inside the growth window (weeks 17..40)
            row = 1 + 7 * 30
        path = out / f"{source}.csv"
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[column] = value
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

        result = run_cli("features", "--config", "run.ini")
        assert result.exit_code == 0
        rejections = (out / "rejections.csv").read_text().splitlines()
        assert rejections[1:] == [f"out/{source}.csv,{row + 1},{field}={value}: not finite"]
        if source == "weather":
            skipped = (out / "skipped_instances.csv").read_text()
            assert f"{crops[0].zone_id},{crops[0].year},missing weeks [31]" in skipped

    def test_weekly_overflow_skips_zone_year_not_fatal(self, workdir):
        run_cli("synth", "--config", "run.ini")
        out = workdir / "out"
        crops, _ = parse_crop(out / "crop.csv")
        path = out / "weather.csv"
        lines = path.read_text().splitlines()
        # two finite days of the first zone-year in week 31 whose sum overflows
        for row in (1 + 7 * 30, 2 + 7 * 30):
            cells = lines[row].split(",")
            cells[4] = "1e308"
            lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

        result = run_cli("features", "--config", "run.ini")
        assert result.exit_code == 0
        skipped = (out / "skipped_instances.csv").read_text().splitlines()
        assert (
            f"{crops[0].zone_id},{crops[0].year},weekly aggregate overflows in week 31" in skipped
        )
        sw = (out / "features_soil_weather.csv").read_text()
        assert f"{crops[0].zone_id},{crops[0].year}," not in sw

    def test_bad_min_days_per_week_is_one_line_diagnostic(self, workdir):
        (workdir / "run.ini").write_text(TINY_CONFIG + "\n[features]\nmin_days_per_week = 8\n")
        result = CliRunner().invoke(main, ["features", "--config", "run.ini"])
        assert result.exit_code == 1
        assert result.stderr == "Error: [features] min_days_per_week must be in 1..7\n"

    @pytest.mark.parametrize("setting", [
        "zone_pool = 10", "sow_month = 13", "t_daily_sd = -1",
        pytest.param("zone_pool = 24\ntest_first_lo = 2017\ntest_first_hi = 2017",
                     id="first soil tests after the first crop year"),
    ])
    def test_bad_synth_value_is_one_line_diagnostic(self, workdir, setting):
        (workdir / "run.ini").write_text(TINY_CONFIG.replace("zone_pool = 24", setting))
        result = run_cli("synth", "--config", "run.ini")
        assert result.exit_code == 1
        assert result.stderr.startswith("Error: ")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("key", ["dd_scale", "ap_scale", "soil_term_std", "score_std"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_synth_scale_is_one_line_diagnostic(self, workdir, key, value):
        # the yield model divides by each of these keys
        (workdir / "run.ini").write_text(
            TINY_CONFIG.replace("zone_pool = 24", f"zone_pool = 24\n{key} = {value}"))
        result = CliRunner().invoke(main, ["synth", "--config", "run.ini"])
        assert result.exit_code == 1
        assert result.stderr == f"Error: [synth] {key} must be > 0\n"

    def test_negative_jobs_is_one_line_diagnostic(self, workdir):
        result = CliRunner().invoke(main, ["evaluate", "--config", "run.ini", "--jobs", "-2"])
        assert result.exit_code == 1
        assert result.stderr == (
            "Error: [run] jobs must be >= 0 (0 = one worker per usable core)\n")

    def test_worker_error_is_one_line_diagnostic(self, workdir):
        (workdir / "run.ini").write_text(
            TINY_CONFIG.replace("n_estimators = 12", "n_estimators = 0"))
        run_cli("synth", "--config", "run.ini")
        result = CliRunner().invoke(main, ["evaluate", "--config", "run.ini", "--jobs", "2"])
        assert result.exit_code == 1
        assert result.stderr == "Error: forests need n_estimators >= 1\n"
        assert "Traceback" not in result.output

    def test_features_matrix_error_is_one_line_diagnostic(self, workdir, monkeypatch):
        run_cli("synth", "--config", "run.ini")

        def broken(*args, **kwargs):
            raise ValueError("design matrix contains non-finite values")

        monkeypatch.setattr("wheatyield.features.build_matrix", broken)
        result = CliRunner().invoke(main, ["features", "--config", "run.ini"])
        assert result.exit_code == 1
        assert "Error: design matrix contains non-finite values" in result.stderr
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("source, quoted, long_field", [
        ("soil", False, False), ("crop", False, False), ("weather", False, False),
        ("weather", True, False),
        ("soil", False, True), ("crop", False, True), ("weather", True, True),
    ], ids=["soil", "crop", "weather", "quoted-weather",
            "long-field-soil", "long-field-crop", "long-field-quoted-weather"])
    def test_undecodable_input_is_one_line_diagnostic(self, workdir, source, quoted, long_field):
        run_cli("synth", "--config", "run.ini")
        path = workdir / "out" / f"{source}.csv"
        data = bytearray(path.read_bytes())
        if quoted:  # a quoted zone id sends weather.csv through the csv.reader row loop
            start = data.index(b"\n") + 1
            data[start:data.index(b",", start)] = b'"Z0000"'
        offset = 0
        for _ in range(5):
            offset = data.index(b"\n", offset) + 1
        if long_field:  # csv.reader refuses a field over its 131,072-character limit
            data[offset:offset] = b"9" * 200_000
            expected = f"out/{source}.csv: line 6: field larger than field limit (131072)"
        else:
            data[offset] = 0xE9  # the first byte of line 6: Latin-1 "e acute", not UTF-8
            expected = f"out/{source}.csv: byte 0xe9 at offset {offset} is not utf-8 text"
        path.write_bytes(bytes(data))
        result = CliRunner().invoke(main, ["features", "--config", "run.ini"])
        assert result.exit_code == 1
        assert result.stderr == f"Error: {expected}\n"
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("command", ["synth", "ingest", "features", "evaluate"])
    def test_output_path_that_is_a_file_is_one_line_diagnostic(self, workdir, command):
        (workdir / "taken").write_text("")
        result = CliRunner().invoke(main, [command, "--config", "run.ini", "--out", "taken"])
        assert result.exit_code == 1
        assert result.stderr == "Error: [Errno 17] File exists: 'taken'\n"
        assert "Traceback" not in result.output

    def test_features_writes_matrices(self, workdir):
        run_cli("synth", "--config", "run.ini")
        result = run_cli("features", "--config", "run.ini")
        assert result.exit_code == 0
        soil = (workdir / "out" / "features_soil.csv").read_text().splitlines()
        sw = (workdir / "out" / "features_soil_weather.csv").read_text().splitlines()
        assert soil[0].split(",")[:3] == ["zone_id", "year", "p"]
        assert len(soil[0].split(",")) == 2 + 8 + 1
        assert len(sw[0].split(",")) == 2 + 152 + 1
        assert len(soil) == len(sw)

    def test_evaluate_writes_reports(self, workdir):
        run_cli("synth", "--config", "run.ini")
        result = run_cli("evaluate", "--config", "run.ini")
        assert result.exit_code == 0
        report = (workdir / "out" / "report.csv").read_text().splitlines()
        assert report[0] == "model,mae_soil,mae_sw,z_soil,p_soil,z_sw,p_sw,t_paired,p_paired"
        assert len(report) == 3  # header + 2 models
        assert (workdir / "out" / "report.txt").exists()
        svg = (workdir / "out" / "mae_chart.svg").read_text()
        assert svg.startswith("<svg") and "decision_tree" in svg

    def test_evaluate_with_every_mae_zero_draws_the_chart(self, workdir):
        # every yield is clamped to 9, so every model predicts it exactly
        (workdir / "run.ini").write_text(
            TINY_CONFIG + "\n[validation]\nyield_min = 9\nyield_max = 9\n")
        run_cli("synth", "--config", "run.ini")
        result = run_cli("evaluate", "--config", "run.ini", "--jobs", "1")
        assert result.exit_code == 0
        rows = (workdir / "out" / "report.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1:3] for row in rows] == [["0", "0"]] * 2
        assert (workdir / "out" / "compare.csv").exists()
        svg = (workdir / "out" / "mae_chart.svg").read_text()
        assert 'height="0.0"' in svg and svg.endswith("</svg>\n")

    def test_evaluate_idempotent_bytes(self, workdir):
        run_cli("synth", "--config", "run.ini")
        run_cli("evaluate", "--config", "run.ini")
        first = (workdir / "out" / "report.csv").read_bytes()
        run_cli("evaluate", "--config", "run.ini")
        assert (workdir / "out" / "report.csv").read_bytes() == first

    def test_evaluate_writes_paired_section(self, workdir):
        run_cli("synth", "--config", "run.ini")
        result = run_cli("evaluate", "--config", "run.ini")
        assert result.exit_code == 0
        text = (workdir / "out" / "report.txt").read_text()
        assert any(line.startswith("## paired comparison") for line in text.splitlines())
        assert result.output == text.rstrip() + "\n"
        compare = (workdir / "out" / "compare.csv").read_text().splitlines()
        assert compare[0] == "model,mae_soil,mae_sw,p_paired"
        assert len(compare) == 3

    def test_one_mode_writes_no_paired_section(self, workdir):
        run_cli("synth", "--config", "run.ini")
        result = run_cli("evaluate", "--config", "run.ini", "--mode", "soil")
        assert result.exit_code == 0
        assert "## paired comparison" not in (workdir / "out" / "report.txt").read_text()
        assert "## paired comparison" not in result.output
        assert not (workdir / "out" / "compare.csv").exists()

    def test_one_mode_run_removes_the_other_modes_files(self, workdir):
        """An output directory holds one run's files: a soil-only run after
        a both-mode run leaves no soil+weather matrix and no comparison."""
        run_cli("synth", "--config", "run.ini")
        out = workdir / "out"
        for mode in ("both", "soil"):
            for command in ("features", "evaluate"):
                assert run_cli(command, "--config", "run.ini", "--mode", mode).exit_code == 0
            if mode == "both":
                assert (out / "compare.csv").exists()
                assert (out / "features_soil_weather.csv").exists()
        assert not (out / "compare.csv").exists()
        assert not (out / "features_soil_weather.csv").exists()
        assert (out / "features_soil.csv").exists()
        assert "## paired comparison" not in (out / "report.txt").read_text()

    def test_report_txt_is_the_same_in_any_output_directory(self, workdir):
        run_cli("synth", "--config", "run.ini")
        for out in ("a", "b/c"):
            assert run_cli("evaluate", "--config", "run.ini", "--out", out).exit_code == 0
        assert (workdir / "a" / "report.txt").read_bytes() == \
            (workdir / "b" / "c" / "report.txt").read_bytes()

    def test_missing_input_fails_cleanly(self, workdir):
        result = CliRunner().invoke(main, ["evaluate", "--config", "run.ini"])
        assert result.exit_code != 0
        assert "not found" in result.output

    def test_unknown_config_key_fails_cleanly(self, workdir):
        (workdir / "bad.ini").write_text("[run]\nseeed = 1\n")
        result = CliRunner().invoke(main, ["synth", "--config", "bad.ini"])
        assert result.exit_code != 0
        assert "seeed" in result.output

    def test_seed_override_changes_output(self, workdir):
        run_cli("synth", "--config", "run.ini")
        crop_a = (workdir / "out" / "crop.csv").read_bytes()
        run_cli("synth", "--config", "run.ini", "--seed", "12")
        crop_b = (workdir / "out" / "crop.csv").read_bytes()
        assert crop_a != crop_b

    def test_soil_mode_evaluate_leaves_weather_columns_empty(self, workdir):
        run_cli("synth", "--config", "run.ini")
        result = run_cli("evaluate", "--config", "run.ini", "--mode", "soil")
        assert result.exit_code == 0
        rows = (workdir / "out" / "report.csv").read_text().splitlines()[1:]
        for row in rows:
            cells = row.split(",")
            assert cells[1] != ""   # mae_soil present
            assert cells[2] == ""   # mae_sw empty
            assert cells[8] == ""   # p_paired empty

    def test_soil_weather_mode_features_writes_single_file(self, workdir):
        run_cli("synth", "--config", "run.ini")
        result = run_cli("features", "--config", "run.ini", "--mode", "soil_weather")
        assert result.exit_code == 0
        assert (workdir / "out" / "features_soil_weather.csv").exists()
        assert not (workdir / "out" / "features_soil.csv").exists()

    def test_inputs_never_mutated(self, workdir):
        run_cli("synth", "--config", "run.ini")
        before = {p.name: p.read_bytes() for p in (workdir / "out").glob("*.csv")}
        run_cli("evaluate", "--config", "run.ini")
        for name in ("soil.csv", "weather.csv", "crop.csv"):
            assert (workdir / "out" / name).read_bytes() == before[name]


def _shuffled(data: bytes) -> bytes:
    head, *rows = data.splitlines(keepends=True)
    random.Random(13).shuffle(rows)
    return b"".join([head, *rows])


def _quoted(data: bytes) -> bytes:
    start = data.index(b"\n") + 1
    end = data.index(b",", start)
    return data[:start] + b'"' + data[start:end] + b'"' + data[end:]


# copies of synth's CRLF weather.csv that must give the same features
WEATHER_COPIES = {
    "shuffled": _shuffled,  # one (zone, day) sort places the weeks
    "lf": lambda data: data.replace(b"\r\n", b"\n"),
    "cr": lambda data: data.replace(b"\r\n", b"\r"),
    "quoted": _quoted,  # a quote sends the file through the csv.reader row loop
}


@pytest.mark.parametrize("copy", WEATHER_COPIES)
def test_weather_copies_give_the_same_features(workdir, monkeypatch, copy):
    # 4,096-byte blocks: the ~440 kB file spans many tokenizer blocks
    monkeypatch.setattr(ingest, "_BLOCK", 4096)
    assert run_cli("synth", "--config", "run.ini").exit_code == 0
    assert run_cli("features", "--config", "run.ini").exit_code == 0
    (workdir / copy).mkdir()
    data = (workdir / "out" / "weather.csv").read_bytes()
    (workdir / copy / "weather.csv").write_bytes(WEATHER_COPIES[copy](data))
    (workdir / f"{copy}.ini").write_text(
        TINY_CONFIG + f"\n[paths]\nweather = {copy}/weather.csv\nout = {copy}/out\n")
    with patch.object(ingest, "_weather_rows", wraps=ingest._weather_rows) as loop:
        assert run_cli("ingest", "--config", f"{copy}.ini").exit_code == 0
        assert run_cli("features", "--config", f"{copy}.ini").exit_code == 0
    assert loop.called == (copy == "quoted")
    # ingest keeps the copy's row order, so compare the rows sorted: a row
    # lost outside every growth window changes no feature, but shows here
    clean = (workdir / copy / "out" / "weather_clean.csv").read_bytes()
    assert sorted(clean.splitlines()) == sorted(data.splitlines())
    for name in ("features_soil", "features_soil_weather", "skipped_instances"):
        got = (workdir / copy / "out" / f"{name}.csv").read_bytes()
        assert got == (workdir / "out" / f"{name}.csv").read_bytes(), name


def _damaged(data: bytes) -> bytes:
    """synth's CRLF weather.csv with a cell that does not parse (line 3), a
    row of six fields (line 5), a value out of range (line 7) and a copy of
    line 9 as line 10."""
    lines = [line.split(b",") for line in data.split(b"\r\n")]
    lines[2][2] = b"abc"
    del lines[4][-1]
    lines[6][-1] = b"100.5"
    lines.insert(9, lines[8])
    return b"\r\n".join(b",".join(cells) for cells in lines)


@pytest.mark.parametrize("copy", ["lf", "cr", "quoted"])
def test_damaged_weather_copies_give_the_same_rejections(workdir, monkeypatch, copy):
    monkeypatch.setattr(ingest, "_BLOCK", 4096)
    assert run_cli("synth", "--config", "run.ini").exit_code == 0
    damaged = _damaged((workdir / "out" / "weather.csv").read_bytes())
    # each input set at out/ of a directory of its own, so that the logs
    # name the same source
    with patch.object(ingest, "_weather_rows", wraps=ingest._weather_rows) as loop:
        for name, data in (("original", damaged), (copy, WEATHER_COPIES[copy](damaged))):
            (workdir / name / "out").mkdir(parents=True)
            for csv_name in ("soil.csv", "crop.csv"):
                shutil.copy(workdir / "out" / csv_name, workdir / name / "out")
            (workdir / name / "out" / "weather.csv").write_bytes(data)
            monkeypatch.chdir(workdir / name)
            assert run_cli("ingest", "--config", "../run.ini").exit_code == 0
    assert loop.called == (copy == "quoted")
    with open(workdir / "original" / "out" / "rejections.csv", newline="") as fh:
        logged = [row for row in csv.reader(fh) if row[0] == "out/weather.csv"]
    starts = ["unparseable value: ", "expected 7 fields, got 6", "humidity=100.5: ",
              "duplicate weather for zone "]
    assert [int(line) for _, line, _ in logged] == [3, 5, 7, 10]
    assert all(reason.startswith(start) for (*_, reason), start in zip(logged, starts))
    for name in ("rejections", "weather_clean"):
        got = (workdir / copy / "out" / f"{name}.csv").read_bytes()
        assert got == (workdir / "original" / "out" / f"{name}.csv").read_bytes(), name


# sha256 of the outputs no learner touches, for TINY_CONFIG's input as
# _pinned_input damages it. A change that means to alter one of these
# outputs updates its digest here and says so; no other change touches them
LEARNER_FREE_DIGESTS = {
    "rejections.csv":
        "cbf89ed8bdbc29f4e15449274d2da8738eb41d2558e0b60891914ad58ff57d4f",
    "skipped_instances.csv":
        "bc2695b44768ef6f47fedb8b905d1d0ec6b886b02317e1700fd95184fa687855",
    "features_soil.csv":
        "1584f14e0a4428915087f1b85feea3ab963519d6b7a0d00b3a580a04580761cd",
    "features_soil_weather.csv":
        "671d3f02dd54bcf18f6b68c3157c8614d33eabad0ac9cedd4062768232a9cb3e",
    "weather_clean.csv":
        "867443bde1c3850660d12f67ef2e709d68f50436a5daf501f5f49b4b7c1535f9",
    "soil_clean.csv":
        "4f069ff9285f14edd570a0a35dc55cf0ab66f8174e5e17a1598372926365b94f",
    "crop_clean.csv":
        "46089660d1a30681b84a96c8864f7b85bdd0485fe16292025301ca7a3cb2176f",
}


def _pinned_input(data: bytes) -> bytes:
    """synth's weather.csv damaged by _damaged, with the first growth-window
    day of zone-years 3 and 7 gone, so that both are skipped."""
    lines = data.split(b"\r\n")
    for zone_year in (7, 3):  # the later first, so the earlier keeps its index
        del lines[1 + 280 * zone_year + FIRST_WINDOW_DAY]
    return _damaged(b"\r\n".join(lines))


def _synth_pinned_input() -> None:
    assert run_cli("synth", "--config", "run.ini").exit_code == 0
    weather = Path("out") / "weather.csv"
    weather.write_bytes(_pinned_input(weather.read_bytes()))


def _digests(names) -> dict[str, str]:
    return {name: hashlib.sha256((Path("out") / name).read_bytes()).hexdigest()
            for name in names}


def test_learner_free_outputs_keep_their_bytes(workdir):
    _synth_pinned_input()
    for command in ("ingest", "features"):
        assert run_cli(command, "--config", "run.ini").exit_code == 0
    skipped = (workdir / "out" / "skipped_instances.csv").read_text().splitlines()[1:]
    assert len(skipped) >= 2
    assert _digests(LEARNER_FREE_DIGESTS) == LEARNER_FREE_DIGESTS


# sha256 of evaluate's outputs on the same input, and of its test-year
# predictions in fit order, since the report's 6 significant digits hide a
# change in the last bits. TINY_CONFIG fits only decision_tree and
# random_forest, and neither calls BLAS, so these bytes are the same on
# every CPU. The same rule holds as above
PREDICTIONS_DIGEST = "324b3a4bb9d13268d4ad8810b1fd5b99b108796bd4edb4eac7a2216c9318a9aa"
REPORT_DIGESTS = {
    "report.csv":
        "eb8c8a32fa1d68e8688208e2c9bf6221e6817b0096a46f02409c73e7376e6cea",
    "report.txt":
        "f792342f0558f0bd271d41c117c47b20475dbf4e3f294a60f4a234e82a1982f4",
    "compare.csv":
        "1cb30a5e7f533105f905d157573ad726550fc978f6595e1e6d64b3ac227383d1",
    "mae_chart.svg":
        "01f0be1eb7d9bb97e7663f3e291d06848e2b01ef1ceed0cda173f3ccf5d45458",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_reports_keep_their_bytes(workdir, monkeypatch, jobs):
    predictions = []
    fit_grid = evalstat._fit_grid

    def recorded(*args):
        predictions.extend(fit_grid(*args))
        return predictions

    monkeypatch.setattr(evalstat, "_fit_grid", recorded)
    _synth_pinned_input()
    assert run_cli("evaluate", "--config", "run.ini", "--jobs", jobs).exit_code == 0
    assert "## paired comparison" in (workdir / "out" / "report.txt").read_text()
    assert _digests(REPORT_DIGESTS) == REPORT_DIGESTS
    assert len(predictions) == 4
    got = hashlib.sha256(b"".join(p.astype("<f8").tobytes() for p in predictions))
    assert got.hexdigest() == PREDICTIONS_DIGEST


IMPORTS_OF_COMMANDS = """\
import json, sys
before = set(sys.modules)
from wheatyield.cli import main
for command in ("synth", "ingest", "features", "evaluate"):
    main([command, "--config", "run.ini", "--jobs", "1"], standalone_mode=False)
# the import system gives every module it loads a __spec__; numpy's Cython
# extensions register modules of their own without one (cython_runtime, ...)
loaded = {name.partition(".")[0] for name, module in sys.modules.items()
          if name not in before and getattr(module, "__spec__", None) is not None}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names))))
"""


def test_commands_import_only_numpy_and_click(workdir):
    # the runtime dependencies are numpy and click; with --jobs 1 the models
    # are fitted in the same process, so the learners' imports count too
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", IMPORTS_OF_COMMANDS], cwd=workdir, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout.splitlines()[-1]))
    assert "wheatyield" in loaded and loaded <= {"click", "numpy", "wheatyield"}


# Single-cell corruptions of a small valid input set: the value cells of
# each file (zone ids and soil categories are free text and excluded).
VALUE_COLUMNS = {"soil": (1, 2, 3, 4, 5), "weather": (1, 2, 3, 4, 5, 6), "crop": (1, 3, 4, 5)}
NO_UPPER_BOUND = {("soil", 2), ("soil", 3), ("soil", 4), ("weather", 4), ("weather", 5)}
BAD_CELLS = ["inf", "-inf", "nan", "1e308", "", "abc", "2012-02-30"]
FIRST_WINDOW_DAY = 7 * 16  # synth writes 280 days per crop row; weeks 17..40 are the window


@pytest.fixture(scope="module")
def clean_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("clean")
    (root / "run.ini").write_text(TINY_CONFIG)
    result = run_cli("synth", "--config", str(root / "run.ini"), "--out", str(root))
    assert result.exit_code == 0
    return root


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_single_bad_cell_is_a_logged_row_never_fatal(clean_inputs, data):
    source = data.draw(st.sampled_from(sorted(VALUE_COLUMNS)))
    lines = (clean_inputs / f"{source}.csv").read_text().splitlines()
    line = data.draw(st.integers(2, len(lines)))
    column = data.draw(st.sampled_from(VALUE_COLUMNS[source]))
    token = data.draw(st.sampled_from(BAD_CELLS))
    cells = lines[line - 1].split(",")
    cells[column] = token
    lines[line - 1] = ",".join(cells)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in VALUE_COLUMNS:
            shutil.copy(clean_inputs / f"{name}.csv", tmp / f"{name}.csv")
        (tmp / f"{source}.csv").write_text("\n".join(lines) + "\n")
        (tmp / "run.ini").write_text(TINY_CONFIG + "\n[paths]\n" + "".join(
            f"{name} = {tmp / name}.csv\n" for name in VALUE_COLUMNS) + f"out = {tmp / 'out'}\n")
        result = run_cli("features", "--config", str(tmp / "run.ini"))
        assert result.exit_code == 0, result.output
        with open(tmp / "out" / "rejections.csv", newline="") as fh:
            logged = [(Path(src).name, int(n)) for src, n, _ in list(csv.reader(fh))[1:]]
        skipped = (tmp / "out" / "skipped_instances.csv").read_text()
        matrix = (tmp / "out" / "features_soil_weather.csv").read_text().splitlines()[1:]

    assert all(math.isfinite(float(v)) for row in matrix for v in row.split(",")[2:])
    if token == "1e308" and (source, column) in NO_UPPER_BOUND:
        assert logged == []  # a finite value within its bounds is data
        return
    assert logged == [(f"{source}.csv", line)]
    day = line - 2
    if source == "weather" and day % 280 >= FIRST_WINDOW_DAY:
        crop_row = (clean_inputs / "crop.csv").read_text().splitlines()[1 + day // 280]
        zone, year = crop_row.split(",")[:2]
        assert f"{zone},{year},missing weeks [{(day % 280) // 7 + 1}]" in skipped
