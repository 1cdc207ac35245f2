import numpy as np
import pytest

from wheatyield.learners import LinearSVR, ModelParams, load_model, predict, save_model, train


class TestLinearSVR:
    def test_recovers_linear_slope_within_five_percent(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 10, size=200)
        y = 3.0 * x + 7.0
        params = ModelParams(svr_epsilon=0.0, svr_c=100.0, svr_iterations=5000,
                             svr_step_size=0.05)
        model = train("svr", x.reshape(-1, 1), y, params, ["x"])
        est = model.estimator
        slope = est.w[0] / est.scale[0]
        assert abs(slope - 3.0) / 3.0 < 0.05

    def test_wide_tube_keeps_weights_at_zero(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 3))
        y = 5.0 + 0.1 * rng.normal(size=50)
        epsilon = float(np.max(np.abs(y - y.mean()))) + 0.1
        params = ModelParams(svr_epsilon=epsilon, svr_c=10.0)
        model = train("svr", X, y, params, ["a", "b", "c"])
        est = model.estimator
        assert np.all(est.w == 0.0)
        assert est.b == pytest.approx(float(np.mean(y)))
        assert np.allclose(predict(model, X, ["a", "b", "c"]), y.mean())

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(80, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 0.0]) + rng.normal(size=80)
        names = ["a", "b", "c", "d"]
        params = ModelParams()
        a = train("svr", X, y, params, names)
        b = train("svr", X, y, params, names)
        assert np.array_equal(a.estimator.w, b.estimator.w)
        assert a.estimator.b == b.estimator.b

    def test_non_finite_input_is_error(self):
        X = np.array([[1.0], [float("nan")]])
        with pytest.raises(ValueError, match="non-finite"):
            train("svr", X, np.array([1.0, 2.0]), ModelParams(), ["x"])

    def test_constant_column_gets_no_weight(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.full(60, 4.2), rng.normal(size=60)])
        y = 2.0 * X[:, 1] + 1.0
        params = ModelParams(svr_epsilon=0.0, svr_c=50.0)
        model = train("svr", X, y, params, ["const", "x"])
        assert model.estimator.w[0] == 0.0

    def test_standardization_stored_and_applied(self):
        rng = np.random.default_rng(4)
        X = rng.normal(loc=100.0, scale=25.0, size=(100, 2))
        y = 0.05 * X[:, 0] - 0.02 * X[:, 1] + 3.0
        params = ModelParams(svr_epsilon=0.0, svr_c=100.0)
        model = train("svr", X, y, params, ["a", "b"])
        pred = predict(model, X, ["a", "b"])
        assert float(np.mean(np.abs(pred - y))) < 0.1

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        y = X[:, 0] + rng.normal(size=40) * 0.1
        model = train("svr", X, y, ModelParams(), ["a", "b", "c"])
        save_model(model, tmp_path / "svr.json")
        loaded = load_model(tmp_path / "svr.json")
        assert np.array_equal(predict(model, X, ["a", "b", "c"]),
                              predict(loaded, X, ["a", "b", "c"]))

    def test_unfitted_to_state_is_error(self):
        # a raised error, not an assert, so python -O keeps the check
        with pytest.raises(RuntimeError, match="not fitted"):
            LinearSVR(ModelParams()).to_state()
