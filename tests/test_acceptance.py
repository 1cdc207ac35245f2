"""Acceptance suite: one test per release criterion.

Each test prints a PASS line once its assertions hold, so running

    pytest tests/test_acceptance.py -v -s

gives one line per criterion. The long-running criteria (3 and 4) carry
their own wall-clock budgets.
"""

import math
import time
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from wheatyield.cli import main as cli_main
from wheatyield.domain import WEATHER_DTYPE
from wheatyield.evalstat import (
    ExperimentConfig,
    paired_t_one_tailed,
    run_experiment,
    zscore_panel,
)
from wheatyield.features import (
    MODE_SOIL_WEATHER,
    build_instances,
    build_matrix,
    feature_names,
    weekly_aggregate,
)
from wheatyield.learners import (
    ModelParams,
    best_split,
    predict,
    train,
)
from wheatyield.synthgen import GenConfig, generate_records

REPO_ROOT = Path(__file__).resolve().parent.parent


def ok(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {message}")


# -- criterion 1: statistics layer reproduces the published z/p points ----

def test_criterion_1_published_z_score_reproduction():
    start = time.monotonic()
    sw_maes = {"dt": 3.41, "svr": 1.65, "rf": 1.56, "et": 1.54, "lgb": 1.58, "gb": 1.48}
    z, p = zscore_panel(sw_maes)["dt"]
    assert z == pytest.approx(2.26, abs=0.10)
    assert p == pytest.approx(0.012, abs=0.03)

    soil_maes = {"dt": 2.25, "svr": 1.76, "rf": 1.76, "et": 1.89, "lgb": 1.74, "gb": 1.63}
    z2, p2 = zscore_panel(soil_maes)["dt"]
    assert z2 == pytest.approx(2.10, abs=0.10)
    assert p2 == pytest.approx(0.017, abs=0.03)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    ok(1, f"z-panel reproduces published points (z={z:.3f}, p={p:.4f}; "
          f"z={z2:.3f}, p={p2:.4f}) in {elapsed:.2f}s")


# -- criterion 2: absolute published MAEs are declared non-reproducible ---

def test_criterion_2_readme_states_mae_non_reproduction():
    readme = (REPO_ROOT / "README.md").read_text().lower()
    assert "proprietary" in readme
    assert "not reproducible" in readme
    assert "synthetic" in readme
    ok(2, "README states the published absolute MAEs depend on proprietary "
          "data and are not reproducible here")


# -- criteria 3 and 4: the qualitative finding and its null control ------

ENSEMBLES = ("random_forest", "extra_trees", "gradient_boosting", "hist_gradient_boosting")


def desk_params(seed: int) -> dict[str, ModelParams]:
    return {
        "decision_tree": ModelParams(max_depth=6, min_samples_leaf=5, seed=seed),
        "svr": ModelParams(svr_iterations=2000, seed=seed),
        "random_forest": ModelParams(n_estimators=60, max_depth=7, min_samples_leaf=3, seed=seed),
        "extra_trees": ModelParams(n_estimators=60, max_depth=7, min_samples_leaf=3, seed=seed),
        "gradient_boosting": ModelParams(n_estimators=100, max_depth=3,
                                         min_samples_leaf=5, seed=seed),
        "hist_gradient_boosting": ModelParams(n_estimators=100, max_depth=None,
                                              max_leaves=16, min_samples_leaf=5, seed=seed),
    }


def run_seed(seed: int, models: tuple[str, ...], weather_weight: float | None = None):
    cfg = GenConfig(seed=seed)
    if weather_weight is not None:
        cfg = cfg.with_(weather_weight=weather_weight)
    soil, weather, crops = generate_records(cfg)
    instances, skipped = build_instances(crops, soil, weather, MODE_SOIL_WEATHER)
    assert not skipped
    exp = ExperimentConfig(models=list(models), model_params=desk_params(seed), seed=seed)
    return run_experiment(instances, exp)


@pytest.mark.slow
def test_criterion_3_weather_improves_ensembles_across_seeds():
    start = time.monotonic()
    wins = {m: 0 for m in ENSEMBLES}
    for seed in range(1, 11):
        report = run_seed(seed, ENSEMBLES)
        for row in report.rows:
            if row.mae_sw < row.mae_soil and row.p_paired < 0.05:
                wins[row.model] += 1
    elapsed = time.monotonic() - start
    for model, count in wins.items():
        assert count >= 8, f"{model}: only {count}/10 seeds improved significantly"
    assert elapsed < 300.0, f"criterion 3 took {elapsed:.0f}s, budget 300s"
    ok(3, f"soil+weather beats soil-only with p<0.05 on {wins} of 10 seeds "
          f"({elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_4_null_dataset_keeps_false_positives_low():
    start = time.monotonic()
    models = tuple(desk_params(0))
    hits = {m: 0 for m in models}
    n_seeds = 20
    for seed in range(1, n_seeds + 1):
        report = run_seed(seed, models, weather_weight=0.0)
        for row in report.rows:
            if row.p_paired < 0.05:
                hits[row.model] += 1
    elapsed = time.monotonic() - start
    for model, count in hits.items():
        assert count / n_seeds <= 0.25, f"{model}: {count}/{n_seeds} false positives"
    assert elapsed < 600.0, f"criterion 4 took {elapsed:.0f}s, budget 600s"
    ok(4, f"weather-independent data: paired p<0.05 on {hits} of {n_seeds} seeds "
          f"({elapsed:.0f}s)")


# -- criterion 5: weekly aggregation against a straight-line oracle ------

def straight_line_weekly(days):
    """Naive transliteration of the six weekly formulas over row tuples."""
    n = len(days)
    means = [(t_max + t_min) / 2.0 for _, _, t_min, t_max, _, _, _ in days]
    t_avg = sum(means) / n
    dd_sum = 0.0
    for m in means:
        if m > 0.0:
            dd_sum += m
    egd = 0
    for m in means:
        if m > 5.0:
            egd += 1
    ap = 0.0
    sr = 0.0
    h = 0.0
    for _, _, _, _, precip, solar, humidity in days:
        ap += precip
        sr += solar
        h += humidity
    return t_avg, dd_sum, egd, ap, sr, h / n


def test_criterion_5_weekly_formula_oracle():
    rng = np.random.default_rng(123)
    base = date(2017, 10, 1).toordinal()
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        days = []
        for i in range(n):
            t_min = float(rng.uniform(-15.0, 18.0))
            t_max = t_min + float(rng.uniform(0.0, 15.0))
            days.append((
                "Z", base + i, t_min, t_max,
                float(rng.uniform(0.0, 25.0)), float(rng.uniform(0.0, 30.0)),
                float(rng.uniform(0.0, 100.0)),
            ))
        agg = weekly_aggregate(np.array(days, dtype=WEATHER_DTYPE))
        want = straight_line_weekly(days)
        got = (agg.t_avg, agg.dd_sum, agg.egd_total, agg.ap_sum, agg.sr_sum, agg.h_avg)
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-12)
        assert 0 <= agg.egd_total <= 7
    ok(5, "weekly aggregates match the straight-line formulas on 1000 random "
          "weeks to 1e-9; EGD within [0, 7]")


# -- criterion 6: learner oracles ----------------------------------------

def enumerate_splits(X, y):
    n, d = X.shape
    parent = np.var(y)
    cands = []
    for f in range(d):
        values = np.unique(X[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = 0.5 * (lo + hi)
            if thr >= hi:
                thr = lo
            mask = X[:, f] <= thr
            nl, nr = int(mask.sum()), int(n - mask.sum())
            gain = parent - (nl * np.var(y[mask]) + nr * np.var(y[~mask])) / n
            if gain > 0:
                cands.append((float(gain), f, float(thr)))
    cands.sort(key=lambda c: (-c[0], c[1], c[2]))
    return cands


def test_criterion_6_learner_oracles():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 31))
        d = int(rng.integers(1, 6))
        X = np.round(rng.normal(size=(n, d)), 2)
        y = rng.normal(size=n)
        got = best_split(X, y)
        cands = enumerate_splits(X, y)
        if not cands:
            assert got is None
            continue
        assert got is not None
        gmax = cands[0][0]
        tol = 1e-9 * max(1.0, abs(gmax))
        assert got.gain == pytest.approx(gmax, abs=tol)
        achieved = {(f, t) for g, f, t in cands if g >= gmax - tol}
        assert (got.feature, got.threshold) in achieved
        if len(achieved) == 1:
            assert (got.feature, got.threshold) == (cands[0][1], cands[0][2])
        checked += 1
    assert checked >= 150

    # single-tree reductions: both must reproduce CART bit for bit
    X = np.random.default_rng(9).normal(size=(60, 5))
    levels = np.array([0.0, 8.0, 16.0, 24.0])
    y = levels[(X[:, 0] > 0).astype(int) * 2 + (X[:, 1] > 0).astype(int)]
    names = [f"x{i}" for i in range(5)]
    params = ModelParams(n_estimators=1, learning_rate=1.0, max_depth=2,
                         min_samples_leaf=1, bootstrap=False, max_features=5, seed=0)
    cart = train("decision_tree", X, y, params, names)
    forest = train("random_forest", X, y, params, names)
    boosted = train("gradient_boosting", X, y, params, names)
    assert np.array_equal(predict(forest, X, names), predict(cart, X, names))
    assert np.array_equal(predict(boosted, X, names), predict(cart, X, names))
    ok(6, f"best_split matched enumeration on {checked} split-bearing datasets; "
          "RF(1 tree) and GB(1 round, lr=1) reproduce CART exactly")


# -- criterion 7: paired t-test numerics ----------------------------------

def test_criterion_7_paired_t_reference_and_antisymmetry():
    rng = np.random.default_rng(0)
    z = rng.normal(size=10)
    z = (z - z.mean()) / z.std(ddof=1)
    d = 0.5 + 0.5 * z
    t, p = paired_t_one_tailed(d, np.zeros(10))
    assert t == pytest.approx(math.sqrt(10.0), rel=1e-12)
    assert p == pytest.approx(0.0057586, abs=1e-4)

    pairs = 0
    while pairs < 100:
        n = int(rng.integers(2, 50))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        if float(np.std(a - b, ddof=1)) == 0.0:
            continue
        t_ab, p_ab = paired_t_one_tailed(a, b)
        t_ba, p_ba = paired_t_one_tailed(b, a)
        assert t_ab == pytest.approx(-t_ba, rel=1e-12)
        assert abs(p_ab + p_ba - 1.0) < 1e-9
        pairs += 1
    ok(7, "t(9 df)=3.162 gives p=0.00576 within 1e-4; antisymmetry held on "
          "100 random pairs to 1e-9")


# -- criterion 8: end-to-end determinism across parallelism widths --------

DETERMINISM_CONFIG = """\
[run]
seed = 17
models = random_forest,extra_trees
test_year = 2018
train_start = 2016
train_end = 2017

[synth]
years = 2016:16:9.9:1.4,2017:14:10.2:1.8,2018:12:9.4:1.7
zone_pool = 28

[model.random_forest]
n_estimators = 16
max_depth = 5
min_samples_leaf = 3

[model.extra_trees]
n_estimators = 16
max_depth = 5
min_samples_leaf = 3
"""


def test_criterion_8_evaluate_byte_identical_across_jobs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("run.ini").write_text(DETERMINISM_CONFIG)
    runner = CliRunner()
    assert runner.invoke(cli_main, ["synth", "--config", "run.ini"]).exit_code == 0

    outputs = []
    for jobs in (1, 3, 1):
        result = runner.invoke(cli_main, ["evaluate", "--config", "run.ini",
                                          "--jobs", str(jobs)])
        assert result.exit_code == 0, result.output
        outputs.append((Path("out/report.csv").read_bytes(),
                        Path("out/report.txt").read_bytes(),
                        Path("out/mae_chart.svg").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]
    ok(8, "evaluate produced byte-identical report.csv/txt/svg with 1 and 3 "
          "worker processes")


# -- criterion 9: generator calibration -----------------------------------

def test_criterion_9_generator_matches_yield_table():
    cfg = GenConfig(seed=0)
    _, _, crops = generate_records(cfg)
    by_year: dict[int, list[float]] = {}
    for crop in crops:
        by_year.setdefault(crop.year, []).append(crop.yield_t_ha)
    lines = []
    for year, spec in cfg.years.items():
        values = np.array(by_year[year])
        assert values.size == spec.zones
        assert values.mean() == pytest.approx(spec.yield_mean, abs=0.35), year
        assert values.std(ddof=1) == pytest.approx(spec.yield_std, abs=0.35), year
        lines.append(f"{year}: {values.mean():.2f}/{spec.yield_mean} "
                     f"sd {values.std(ddof=1):.2f}/{spec.yield_std}")
    ok(9, "per-year synthetic yield moments within 0.35 of targets (" + "; ".join(lines) + ")")


# -- criterion 10: design-matrix shape and column order --------------------

def test_criterion_10_design_matrix_shape():
    defaults = GenConfig()
    cfg = GenConfig(seed=3, years={2017: defaults.years[2017],
                                   2018: defaults.years[2018]})
    soil, weather, crops = generate_records(cfg)
    instances, skipped = build_instances(crops, soil, weather, MODE_SOIL_WEATHER)
    assert not skipped
    dm = build_matrix(instances, MODE_SOIL_WEATHER)
    assert dm.n_cols == 152
    names = feature_names(MODE_SOIL_WEATHER)
    assert dm.column_names == names
    assert names[:8] == ["p", "k", "mg", "ph", "soil_type", "stone_content",
                         "organic_matter", "caco3"]
    expected_weather = [f"w{week}_{agg}" for week in range(17, 41)
                        for agg in ("t_avg", "dd_sum", "egd_total", "ap_sum",
                                    "sr_sum", "h_avg")]
    assert names[8:] == expected_weather
    ok(10, f"soil+weather matrix is {dm.n_rows} x 152 with the documented "
           "column order")
