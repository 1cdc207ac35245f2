import numpy as np

from wheatyield.learners import (
    ModelParams,
    load_model,
    predict,
    save_model,
    train,
)
from wheatyield.learners.histboost import _BinMapper


def clustered_dataset(seed=0, n=32):
    """Distinct rows, target constant within clusters and dyadic overall,
    so leaf means are exact in floating point."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    levels = np.array([0.0, 8.0, 16.0, 24.0])
    y = levels[(X[:, 0] > 0).astype(int) * 2 + (X[:, 1] > 0).astype(int)]
    return X, y, ["x0", "x1", "x2"]


class TestGradientBoosting:
    def test_zero_rounds_is_constant_mean(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        params = ModelParams(n_estimators=0)
        model = train("gradient_boosting", X, y, params, ["a", "b"])
        assert np.allclose(predict(model, X, ["a", "b"]), y.mean())

    def test_one_round_unit_rate_equals_cart(self):
        X, y, names = clustered_dataset()
        params = ModelParams(n_estimators=1, learning_rate=1.0, max_depth=2,
                             min_samples_leaf=1)
        gb = train("gradient_boosting", X, y, params, names)
        dt = train("decision_tree", X, y, params, names)
        assert np.array_equal(predict(gb, X, names), predict(dt, X, names))

    def test_one_round_unit_rate_close_on_generic_data(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 4))
        y = rng.normal(size=40)
        names = ["x0", "x1", "x2", "x3"]
        params = ModelParams(n_estimators=1, learning_rate=1.0, max_depth=3,
                             min_samples_leaf=2)
        gb = train("gradient_boosting", X, y, params, names)
        dt = train("decision_tree", X, y, params, names)
        np.testing.assert_allclose(predict(gb, X, names), predict(dt, X, names),
                                   rtol=0, atol=1e-12)

    def test_train_mse_non_increasing_per_round(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 5))
        y = rng.normal(size=60)
        params = ModelParams(n_estimators=40, learning_rate=0.2, max_depth=2,
                             min_samples_leaf=3)
        model = train("gradient_boosting", X, y, params, ["x%d" % i for i in range(5)])
        path = model.estimator.train_mse_path_
        assert len(path) == 41
        assert all(a >= b - 1e-12 for a, b in zip(path, path[1:]))

    def test_vanishing_rate_converges_to_mean(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        params = ModelParams(n_estimators=20, learning_rate=1e-9, max_depth=3,
                             min_samples_leaf=1)
        model = train("gradient_boosting", X, y, params, ["a", "b"])
        assert np.allclose(predict(model, X, ["a", "b"]), y.mean(), atol=1e-6)

    def test_subsample_deterministic(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        names = ["a", "b", "c"]
        params = ModelParams(n_estimators=15, subsample=0.6, max_depth=2,
                             min_samples_leaf=2, seed=21)
        a = train("gradient_boosting", X, y, params, names)
        b = train("gradient_boosting", X, y, params, names)
        assert np.array_equal(predict(a, X, names), predict(b, X, names))

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        names = ["a", "b", "c"]
        params = ModelParams(n_estimators=10, max_depth=2, min_samples_leaf=2)
        model = train("gradient_boosting", X, y, params, names)
        save_model(model, tmp_path / "gb.json")
        loaded = load_model(tmp_path / "gb.json")
        assert np.array_equal(predict(model, X, names), predict(loaded, X, names))


class TestBinMapper:
    def test_few_distinct_values_get_exact_midpoints(self):
        X = np.array([[0.0], [1.0], [1.0], [3.0]])
        mapper = _BinMapper(8).fit(X)
        assert list(mapper.thresholds[0]) == [0.5, 2.0]
        binned = mapper.transform(X)
        assert list(binned[:, 0]) == [0, 1, 1, 2]

    def test_constant_feature_has_no_thresholds(self):
        X = np.full((10, 1), 2.5)
        mapper = _BinMapper(4).fit(X)
        assert mapper.thresholds[0].size == 0

    def test_equal_frequency_binning_balances_counts(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(1000, 1))
        mapper = _BinMapper(8).fit(X)
        binned = mapper.transform(X)
        counts = np.bincount(binned[:, 0], minlength=8)
        assert counts.min() > 80 and counts.max() < 170

    def test_large_bin_budget_recovers_all_candidate_cuts(self):
        rng = np.random.default_rng(1)
        X = rng.integers(0, 10, size=(30, 1)).astype(float)
        mapper = _BinMapper(64).fit(X)
        distinct = np.unique(X[:, 0])
        assert mapper.thresholds[0].size == distinct.size - 1


class TestHistGradientBoosting:
    def test_identical_splits_when_bins_cover_values(self):
        # 20-row integer-valued dataset free of exact gain ties (two
        # different features isolating the same rows tie in real
        # arithmetic; such a tie resolves by accumulation noise and makes
        # structural equality meaningless, so the fixture avoids it)
        rng = np.random.default_rng(7)
        X = rng.integers(0, 12, size=(20, 4)).astype(float)
        y = rng.integers(-20, 21, size=20).astype(float)
        names = ["a", "b", "c", "d"]
        shared = dict(n_estimators=12, learning_rate=0.1, max_depth=3, min_samples_leaf=1)
        hist = train("hist_gradient_boosting", X, y,
                     ModelParams(n_bins=64, max_leaves=64, **shared), names)
        exact = train("gradient_boosting", X, y, ModelParams(**shared), names)
        for ht, et in zip(hist.estimator.trees, exact.estimator.trees):
            assert sorted(zip(ht.feature.tolist(), ht.threshold.tolist())) == sorted(
                zip(et.feature.tolist(), et.threshold.tolist())
            )
        assert np.array_equal(predict(hist, X, names), predict(exact, X, names))

    def test_predictions_match_exact_boosting_across_seeds(self):
        # equal-gain splits may be recorded differently, but the fitted
        # function on the training data must coincide exactly
        names = ["a", "b", "c", "d"]
        shared = dict(n_estimators=10, learning_rate=0.1, max_depth=3, min_samples_leaf=1)
        for seed in range(12):
            rng = np.random.default_rng(seed)
            X = rng.integers(0, 12, size=(20, 4)).astype(float)
            y = rng.normal(size=20) * 5
            hist = train("hist_gradient_boosting", X, y,
                         ModelParams(n_bins=64, max_leaves=64, **shared), names)
            exact = train("gradient_boosting", X, y, ModelParams(**shared), names)
            assert np.array_equal(predict(hist, X, names), predict(exact, X, names))

    def test_constant_feature_never_chosen(self):
        rng = np.random.default_rng(12)
        X = np.column_stack([np.full(30, 7.0), rng.normal(size=30)])
        y = rng.normal(size=30)
        params = ModelParams(n_estimators=5, max_depth=3, min_samples_leaf=1)
        model = train("hist_gradient_boosting", X, y, params, ["const", "x"])
        for tree in model.estimator.trees:
            assert not (tree.feature == 0).any()

    def test_leaf_budget_respected(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(200, 3))
        y = rng.normal(size=200)
        params = ModelParams(n_estimators=3, max_depth=None, max_leaves=8,
                             min_samples_leaf=1)
        model = train("hist_gradient_boosting", X, y, params, ["a", "b", "c"])
        for tree in model.estimator.trees:
            assert tree.n_leaves <= 8

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        names = ["a", "b", "c", "d"]
        params = ModelParams(n_estimators=8, subsample=0.7, seed=3,
                             min_samples_leaf=2)
        a = train("hist_gradient_boosting", X, y, params, names)
        b = train("hist_gradient_boosting", X, y, params, names)
        assert np.array_equal(predict(a, X, names), predict(b, X, names))

    def test_train_mse_non_increasing(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(80, 4))
        y = rng.normal(size=80)
        params = ModelParams(n_estimators=25, learning_rate=0.2, min_samples_leaf=3)
        model = train("hist_gradient_boosting", X, y, params, ["a", "b", "c", "d"])
        path = model.estimator.train_mse_path_
        assert all(a >= b - 1e-12 for a, b in zip(path, path[1:]))

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        names = ["a", "b", "c"]
        params = ModelParams(n_estimators=6, min_samples_leaf=2)
        model = train("hist_gradient_boosting", X, y, params, names)
        save_model(model, tmp_path / "hgb.json")
        loaded = load_model(tmp_path / "hgb.json")
        assert np.array_equal(predict(model, X, names), predict(loaded, X, names))
