import concurrent.futures
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wheatyield import evalstat
from wheatyield.evalstat import (
    ExperimentConfig,
    incomplete_beta,
    mae,
    normal_cdf,
    paired_t_one_tailed,
    run_experiment,
    student_t_sf,
    temporal_split,
    zscore_panel,
)
from wheatyield.features import MODE_SOIL_WEATHER, DesignMatrix, feature_names
from wheatyield.learners import ModelParams


class TestNormalCdf:
    def test_reference_points(self):
        assert normal_cdf(0.0) == pytest.approx(0.5)
        assert 1 - normal_cdf(2.10) == pytest.approx(0.0179, abs=5e-4)
        assert 1 - normal_cdf(-0.96) == pytest.approx(0.831, abs=5e-4)

    def test_against_scipy(self):
        from scipy import stats

        for z in np.linspace(-8, 8, 81):
            assert normal_cdf(float(z)) == pytest.approx(stats.norm.cdf(z), abs=1e-12)


class TestStudentT:
    def test_reference_table_df9(self):
        # one-sample reference: t = sqrt(10) with 9 degrees of freedom
        assert student_t_sf(math.sqrt(10.0), 9) == pytest.approx(0.00575, abs=1e-4)

    def test_symmetry_at_zero(self):
        for df in (1, 5, 30):
            assert student_t_sf(0.0, df) == pytest.approx(0.5)

    def test_against_scipy_grid(self):
        from scipy import stats

        for df in (1, 2, 5, 9, 30, 100, 263):
            for t in np.linspace(-10, 10, 41):
                assert student_t_sf(float(t), df) == pytest.approx(
                    stats.t.sf(t, df), abs=1e-9
                )

    def test_incomplete_beta_edges(self):
        assert incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_infinite_t(self):
        assert student_t_sf(math.inf, 5) == 0.0
        assert student_t_sf(-math.inf, 5) == 1.0


class TestZscorePanel:
    def test_soil_weather_panel_reproduction(self):
        maes = {"dt": 3.41, "svr": 1.65, "rf": 1.56, "et": 1.54, "lgb": 1.58, "gb": 1.48}
        panel = zscore_panel(maes)
        z, p = panel["dt"]
        assert z == pytest.approx(2.26, abs=0.10)
        assert p == pytest.approx(0.012, abs=0.03)

    def test_soil_panel_reproduction(self):
        maes = {"dt": 2.25, "svr": 1.76, "rf": 1.76, "et": 1.89, "lgb": 1.74, "gb": 1.63}
        panel = zscore_panel(maes)
        z, p = panel["dt"]
        assert z == pytest.approx(2.10, abs=0.10)
        assert p == pytest.approx(0.017, abs=0.03)

    def test_equal_maes_convention(self):
        panel = zscore_panel({"a": 1.5, "b": 1.5, "c": 1.5})
        for z, p in panel.values():
            assert z == 0.0 and p == 0.5

    def test_needs_two_models(self):
        with pytest.raises(ValueError):
            zscore_panel({"only": 1.0})

    @given(
        st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=8),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_z_sums_to_zero_and_shift_invariance(self, values, shift):
        maes = {f"m{i}": v for i, v in enumerate(values)}
        panel = zscore_panel(maes)
        assert sum(z for z, _ in panel.values()) == pytest.approx(0.0, abs=1e-9)
        # shift invariance is exact in real arithmetic; keep the panel
        # spread away from cancellation territory for the float check
        assume(max(values) - min(values) >= 1e-3 or max(values) == min(values))
        shifted = zscore_panel({k: v + shift for k, v in maes.items()})
        for k in maes:
            assert shifted[k][0] == pytest.approx(panel[k][0], abs=1e-7)


class TestPairedT:
    def test_symmetric_difference(self):
        t, p = paired_t_one_tailed(np.array([2.0, 0.0]), np.array([1.0, 1.0]))
        assert t == 0.0 and p == 0.5

    def test_identical_errors_convention(self):
        e = np.array([0.3, 0.5, 0.7])
        t, p = paired_t_one_tailed(e, e)
        assert t == 0.0 and p == 0.5

    def test_zero_variance_nonzero_mean(self):
        a = np.array([2.0, 2.0, 2.0])
        b = np.array([1.0, 1.0, 1.0])
        t, p = paired_t_one_tailed(a, b)
        assert math.isinf(t) and t > 0 and p == 0.0
        t, p = paired_t_one_tailed(b, a)
        assert math.isinf(t) and t < 0 and p == 1.0

    def test_reference_value_df9(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=10)
        z = (z - z.mean()) / z.std(ddof=1)
        d = 0.5 + 0.5 * z  # mean exactly 0.5, sample std exactly 0.5
        t, p = paired_t_one_tailed(d, np.zeros(10))
        assert t == pytest.approx(math.sqrt(10.0), rel=1e-12)
        assert p == pytest.approx(0.0058, abs=1e-4)

    def test_alternative_direction_flips(self):
        rng = np.random.default_rng(1)
        a = np.abs(rng.normal(size=30)) + 0.5
        b = a - 0.3
        t_fwd, p_fwd = paired_t_one_tailed(a, b, "b_less_than_a")
        t_rev, p_rev = paired_t_one_tailed(a, b, "a_less_than_b")
        assert t_fwd > 0 and p_fwd < 0.05
        assert t_rev == pytest.approx(-t_fwd)
        assert p_rev == pytest.approx(1.0 - p_fwd, abs=1e-9)

    def test_antisymmetry_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            if np.std(a - b, ddof=1) == 0.0:
                continue
            t_ab, p_ab = paired_t_one_tailed(a, b)
            t_ba, p_ba = paired_t_one_tailed(b, a)
            assert t_ab == pytest.approx(-t_ba, rel=1e-12)
            assert p_ab + p_ba == pytest.approx(1.0, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_t_one_tailed(np.zeros(3), np.zeros(4))

    def test_needs_two_pairs(self):
        with pytest.raises(ValueError):
            paired_t_one_tailed(np.zeros(1), np.zeros(1))


class TestMae:
    def test_perfect_prediction(self):
        assert mae(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_hand_value(self):
        assert mae(np.array([10.0, 10.0]), np.array([9.0, 12.0])) == pytest.approx(1.5)

    def test_paired_shuffle_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=50)
        b = rng.normal(size=50)
        perm = rng.permutation(50)
        assert mae(a, b) == pytest.approx(mae(a[perm], b[perm]), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mae(np.zeros(3), np.zeros(2))


SOIL_ROW = [180.0, 60.0, 6.8, 1.0, 1.0, 1.0, 2.0]  # k, mg, ph, then medium/low/moderate/calc


def _instances(meta, rows, target):
    """Soil+weather instances for zone-years ``meta``; a row is p, then the
    other soil columns as above, then 24 weeks of six aggregates."""
    return DesignMatrix(feature_names(MODE_SOIL_WEATHER), np.array(rows, dtype=np.float64),
                        np.array(target, dtype=np.float64), list(meta))


class TestTemporalSplit:
    def make(self, years=range(2013, 2019)):
        meta, rows, target = [], [], []
        for year in years:
            for i in range(4):
                meta.append((f"Z{i}", year))
                rows.append([25.0 + i, *SOIL_ROW, *[8.0 + i, 56.0, 6.0, 10.0, 40.0, 78.0] * 24])
                target.append(8.0 + i * 0.5)
        return _instances(meta, rows, target)

    def test_standard_split(self):
        train, test = temporal_split(self.make(), 2018, 2013, 2017)
        assert {year for _, year in train.meta} == set(range(2013, 2018))
        assert {year for _, year in test.meta} == {2018}
        assert len(train) + len(test) == len(self.make())

    def test_training_range_clamps(self):
        train, _ = temporal_split(self.make(), 2018, 2015, 2016)
        assert {year for _, year in train.meta} == {2015, 2016}

    def test_empty_train_is_error(self):
        data = self.make(years=[2018])
        with pytest.raises(ValueError, match="training"):
            temporal_split(data, 2018)

    def test_empty_test_is_error(self):
        data = self.make(years=range(2013, 2018))
        with pytest.raises(ValueError, match="test year"):
            temporal_split(data, 2018)


class TestRunExperiment:
    def small_instances(self):
        rng = np.random.default_rng(7)
        meta, rows, target = [], [], []
        for year in range(2016, 2019):
            for i in range(30):
                dd = float(rng.uniform(40, 70))
                weeks = [[8.0, dd, 6.0, float(rng.uniform(5, 15)), 40.0, 78.0] for _ in range(24)]
                p = float(rng.uniform(10, 50))
                meta.append((f"Z{i}", year))
                rows.append([p, *SOIL_ROW, *[v for week in weeks for v in week]])
                target.append(6.0 + 0.05 * dd + float(rng.normal()) * 0.3)
        return _instances(meta, rows, target)

    def config(self, **kwargs):
        models = ["decision_tree", "random_forest"]
        params = {
            "decision_tree": ModelParams(max_depth=3, min_samples_leaf=2, seed=5),
            "random_forest": ModelParams(n_estimators=10, max_depth=4,
                                         min_samples_leaf=2, seed=5),
        }
        defaults = dict(models=models, model_params=params, test_year=2018,
                        train_start=2016, train_end=2017, seed=5)
        defaults.update(kwargs)
        return ExperimentConfig(**defaults)

    def test_report_shape_and_bounds(self):
        report = run_experiment(self.small_instances(), self.config())
        assert [r.model for r in report.rows] == ["decision_tree", "random_forest"]
        for r in report.rows:
            assert r.mae_soil >= 0 and r.mae_sw >= 0
            for p in (r.p_soil, r.p_sw, r.p_paired):
                assert 0.0 <= p <= 1.0
        assert report.train_years == (2016, 2017)
        assert report.n_test == 30

    def test_weather_dependent_target_favors_weather_mode(self):
        report = run_experiment(self.small_instances(), self.config())
        rf = report.row("random_forest")
        assert rf.mae_sw < rf.mae_soil
        assert rf.p_paired < 0.05

    def test_deterministic_report(self):
        a = run_experiment(self.small_instances(), self.config())
        b = run_experiment(self.small_instances(), self.config())
        assert a == b

    def test_soil_only_mode_skips_paired(self):
        report = run_experiment(self.small_instances(), self.config(modes=("soil_only",)))
        row = report.rows[0]
        assert row.mae_soil is not None
        assert row.mae_sw is None and row.p_paired is None

    def test_unknown_mode_is_error(self):
        with pytest.raises(ValueError, match="mode"):
            run_experiment(self.small_instances(), self.config(modes=("bogus",)))

    def test_empty_mode_list_is_error(self):
        with pytest.raises(ValueError, match="modes"):
            run_experiment(self.small_instances(), self.config(modes=()))

    def test_widest_mode_fits_first_whatever_the_order(self, monkeypatch):
        widths = []
        fit_grid = evalstat._fit_grid

        def recording(tasks, n_jobs):
            widths.append([train.n_cols for _, _, train, _ in tasks])
            return fit_grid(tasks, n_jobs)

        monkeypatch.setattr(evalstat, "_fit_grid", recording)
        orders = [("soil_only", MODE_SOIL_WEATHER), (MODE_SOIL_WEATHER, "soil_only")]
        reports = [run_experiment(self.small_instances(), self.config(modes=modes))
                   for modes in orders]
        assert reports[0] == reports[1]
        assert widths[0] == widths[1] == sorted(widths[0], reverse=True)
        assert widths[0][0] > widths[0][-1]

    def test_empty_model_list_is_error(self):
        with pytest.raises(ValueError, match="models"):
            run_experiment(self.small_instances(), self.config(models=[]))

    @pytest.mark.parametrize("overrides,match", [
        (dict(models=["decision_tree", "random_forest", "random_forest"]),
         "duplicate model kind 'random_forest'"),
        (dict(paired_alternative="two_sided"), "unknown alternative: 'two_sided'"),
    ], ids=["duplicate_kind", "unknown_alternative"])
    def test_bad_config_refused_before_any_fit(self, monkeypatch, overrides, match):
        def no_fits(tasks, n_jobs):
            raise AssertionError("a model was fitted before the config was checked")

        monkeypatch.setattr(evalstat, "_fit_grid", no_fits)
        with pytest.raises(ValueError, match=match):
            run_experiment(self.small_instances(), self.config(**overrides))

    def test_worker_count_capped_at_number_of_fits(self, monkeypatch):
        widths = []

        class InlinePool(concurrent.futures.Executor):
            """Records the requested width and runs each task at submit."""

            def __init__(self, max_workers, mp_context=None):
                widths.append(max_workers)

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        serial = run_experiment(self.small_instances(), self.config(n_jobs=1))
        assert widths == []  # one worker fits in this process, with no pool
        wide = run_experiment(self.small_instances(), self.config(n_jobs=10_000))
        assert widths == [2 * 2]  # two models x two modes
        assert wide == serial
        run_experiment(self.small_instances(), self.config(n_jobs=10_000, modes=("soil_only",)))
        assert widths == [4, 2]

    def test_mae_equals_mean_abs_error_of_paired_path(self):
        # both code paths share one absolute-error vector, so the report
        # MAE must equal the mean of the errors the t-test consumed
        report = run_experiment(self.small_instances(), self.config())
        instances = self.small_instances()
        _, test = temporal_split(instances, 2018, 2016, 2017)
        from wheatyield.features import build_matrix
        from wheatyield.learners import predict as predict_model
        from wheatyield.learners import train_on_matrix

        train, _ = temporal_split(instances, 2018, 2016, 2017)
        train_dm = build_matrix(train, MODE_SOIL_WEATHER)
        test_dm = build_matrix(test, MODE_SOIL_WEATHER)
        model = train_on_matrix("decision_tree",
                                train_dm, ModelParams(max_depth=3, min_samples_leaf=2, seed=5))
        err = np.abs(test_dm.target - predict_model(model, test_dm))
        assert report.row("decision_tree").mae_sw == pytest.approx(float(err.mean()), abs=1e-12)
