import numpy as np

from wheatyield.learners import (
    ModelParams,
    load_model,
    predict,
    save_model,
    train,
)


def dataset(seed=0, n=80, d=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = X[:, 0] * 2 - X[:, 1] + 0.3 * rng.normal(size=n)
    return X, y, [f"x{i}" for i in range(d)]


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
        X, y, names = dataset(3)
        params = ModelParams(n_estimators=16, max_depth=5, seed=7)
        serial = train("random_forest", X, y, params, names, n_jobs=1)
        threaded = train("random_forest", X, y, params, names, n_jobs=4)
        assert np.array_equal(predict(serial, X, names), predict(threaded, X, names))

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
        X, y, names = dataset(7)
        params = ModelParams(n_estimators=10, max_depth=5, seed=13)
        serial = train("extra_trees", X, y, params, names, n_jobs=1)
        threaded = train("extra_trees", X, y, params, names, n_jobs=3)
        assert np.array_equal(predict(serial, X, names), predict(threaded, X, names))

    def test_learns_signal(self):
        X, y, names = dataset(8, n=200)
        params = ModelParams(n_estimators=40, max_depth=None, min_samples_leaf=2, seed=1)
        model = train("extra_trees", X, y, params, names)
        pred = predict(model, X, names)
        baseline = float(np.mean((y - y.mean()) ** 2))
        assert float(np.mean((y - pred) ** 2)) < 0.5 * baseline
