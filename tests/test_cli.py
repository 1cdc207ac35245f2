from pathlib import Path

import pytest
from click.testing import CliRunner

from wheatyield.cli import main
from wheatyield.config import ConfigError, load_config
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


class TestConfig:
    def test_defaults_load_without_file(self):
        cfg = load_config()
        assert cfg.test_year == 2018
        assert cfg.mode == "both"
        assert len(cfg.models) == 6

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
        assert cfg.seed == 9

    def test_digest_tracks_content(self, tmp_path):
        a = load_config(None, {"run.seed": "1"})
        b = load_config(None, {"run.seed": "2"})
        assert a.digest != b.digest

    def test_model_sections_feed_params(self, workdir):
        cfg = load_config("run.ini")
        assert cfg.model_params["decision_tree"].max_depth == 4
        assert cfg.model_params["random_forest"].n_estimators == 12
        assert cfg.model_params["random_forest"].seed == 11

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

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            load_config(None, {"run.seed": "-4"})

    def test_bad_alternative_rejected(self):
        with pytest.raises(ConfigError, match="paired_alternative"):
            load_config(None, {"experiment.paired_alternative": "two_sided"})


class TestCliPipeline:
    def test_help_lists_commands_and_flags(self):
        result = run_cli("--help")
        assert result.exit_code == 0
        for cmd in ("synth", "ingest", "features", "evaluate", "compare"):
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

    def test_features_matrix_error_is_one_line_diagnostic(self, workdir, monkeypatch):
        run_cli("synth", "--config", "run.ini")

        def broken(*args, **kwargs):
            raise ValueError("design matrix contains non-finite values")

        monkeypatch.setattr("wheatyield.features.build_matrix", broken)
        result = CliRunner().invoke(main, ["features", "--config", "run.ini"])
        assert result.exit_code == 1
        assert "Error: design matrix contains non-finite values" in result.stderr
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

    def test_evaluate_idempotent_bytes(self, workdir):
        run_cli("synth", "--config", "run.ini")
        run_cli("evaluate", "--config", "run.ini")
        first = (workdir / "out" / "report.csv").read_bytes()
        run_cli("evaluate", "--config", "run.ini")
        assert (workdir / "out" / "report.csv").read_bytes() == first

    def test_compare_appends_section(self, workdir):
        run_cli("synth", "--config", "run.ini")
        run_cli("evaluate", "--config", "run.ini")
        result = run_cli("compare", "--config", "run.ini")
        assert result.exit_code == 0
        text = (workdir / "out" / "report.txt").read_text()
        assert "paired comparison" in text
        compare = (workdir / "out" / "compare.csv").read_text().splitlines()
        assert compare[0] == "model,mae_soil,mae_sw,p_paired"
        assert len(compare) == 3

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
