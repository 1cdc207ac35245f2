import numpy as np
import pytest

from wheatyield.evalstat import ExperimentConfig, run_experiment
from wheatyield.features import MODE_SOIL_WEATHER, DesignMatrix, FeatureParams, feature_names
from wheatyield.learners import (
    ExtraTrees,
    ModelParams,
    RandomForest,
    load_model,
    predict,
    save_model,
    train,
)
from wheatyield.reporting import mae_chart_svg, report_csv, report_text


def dataset(seed=0, n=80, d=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = X[:, 0] * 2 - X[:, 1] + 0.3 * rng.normal(size=n)
    return X, y, [f"x{i}" for i in range(d)]


def assert_widths_agree(kind, params, seed):
    # the old thread-count test data, as zone-years of three seasons:
    # 8 soil columns and one week of 6 weather columns; the model is fitted
    # on one and on two worker processes, and the reports must match
    window = FeatureParams(week_start=17, week_end=17)
    names = feature_names(MODE_SOIL_WEATHER, window)
    X, y, _ = dataset(seed, n=90, d=len(names))
    instances = DesignMatrix(names, X, y, [(f"Z{i // 3}", 2016 + i % 3) for i in range(len(X))])
    reports = [
        run_experiment(instances, ExperimentConfig(
            models=[kind], model_params={kind: params}, train_start=2016,
            feature_params=window, n_jobs=n_jobs,
        ))
        for n_jobs in (1, 2)
    ]
    assert reports[0].rows == reports[1].rows
    for render in (report_csv, report_text, mae_chart_svg):
        assert render(reports[0]) == render(reports[1])


class TestRandomForest:
    def test_single_tree_no_bootstrap_equals_cart(self):
        X, y, names = dataset()
        params = ModelParams(n_estimators=1, bootstrap=False, max_features=X.shape[1],
                             max_depth=5, min_samples_leaf=2, seed=3)
        rf = train("random_forest", X, y, params, names)
        dt = train("decision_tree", X, y, params, names)
        assert np.array_equal(predict(rf, X, names), predict(dt, X, names))

    def test_same_seed_identical_predictions(self):
        X, y, names = dataset(1)
        params = ModelParams(n_estimators=12, max_depth=4, seed=9)
        a = train("random_forest", X, y, params, names)
        b = train("random_forest", X, y, params, names)
        assert np.array_equal(predict(a, X, names), predict(b, X, names))

    def test_different_seed_differs(self):
        X, y, names = dataset(1)
        a = train("random_forest", X, y, ModelParams(n_estimators=12, max_depth=4, seed=1), names)
        b = train("random_forest", X, y, ModelParams(n_estimators=12, max_depth=4, seed=2), names)
        assert not np.array_equal(predict(a, X, names), predict(b, X, names))

    def test_predictions_within_target_range(self):
        X, y, names = dataset(2)
        params = ModelParams(n_estimators=25, max_depth=6, seed=0)
        model = train("random_forest", X, y, params, names)
        rng = np.random.default_rng(5)
        holdout = rng.normal(size=(200, X.shape[1])) * 3
        pred = predict(model, holdout, names)
        assert pred.min() >= y.min() - 1e-12
        assert pred.max() <= y.max() + 1e-12

    def test_parallel_training_bit_identical(self):
        assert_widths_agree("random_forest", ModelParams(n_estimators=16, max_depth=5, seed=7), 3)

    def test_save_load_round_trip(self, tmp_path):
        X, y, names = dataset(4)
        model = train("random_forest", X, y, ModelParams(n_estimators=8, max_depth=4, seed=2), names)
        save_model(model, tmp_path / "rf.json")
        loaded = load_model(tmp_path / "rf.json")
        assert np.array_equal(predict(model, X, names), predict(loaded, X, names))


class TestExtraTrees:
    def test_deterministic_under_seed(self):
        X, y, names = dataset(5)
        params = ModelParams(n_estimators=12, max_depth=5, seed=11)
        a = train("extra_trees", X, y, params, names)
        b = train("extra_trees", X, y, params, names)
        assert np.array_equal(predict(a, X, names), predict(b, X, names))

    def test_uses_full_rows_and_stays_in_range(self):
        X, y, names = dataset(6)
        params = ModelParams(n_estimators=20, max_depth=6, seed=4)
        model = train("extra_trees", X, y, params, names)
        pred = predict(model, X * 2, names)
        assert pred.min() >= y.min() - 1e-12 and pred.max() <= y.max() + 1e-12

    def test_parallel_training_bit_identical(self):
        assert_widths_agree("extra_trees", ModelParams(n_estimators=10, max_depth=5, seed=13), 7)

    def test_learns_signal(self):
        X, y, names = dataset(8, n=200)
        params = ModelParams(n_estimators=40, max_depth=None, min_samples_leaf=2, seed=1)
        model = train("extra_trees", X, y, params, names)
        pred = predict(model, X, names)
        baseline = float(np.mean((y - y.mean()) ** 2))
        assert float(np.mean((y - pred) ** 2)) < 0.5 * baseline


@pytest.mark.parametrize("cls", [RandomForest, ExtraTrees])
def test_unfitted_forest_predict_and_to_state_are_errors(cls):
    forest = cls(ModelParams())
    with pytest.raises(RuntimeError, match="not fitted"):
        forest.predict(np.zeros((3, 2)))
    with pytest.raises(RuntimeError, match="not fitted"):
        forest.to_state()
