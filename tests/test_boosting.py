import heapq
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wheatyield.learners import (
    GradientBoosting,
    ModelParams,
    load_model,
    predict,
    save_model,
    train,
)
from wheatyield.learners.histboost import HistGradientBoosting, bin_features
from wheatyield.learners.splits import presort
from wheatyield.learners.tree import TreeNodes, derived_rng, subsample_rows


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


@pytest.mark.parametrize("cls", [GradientBoosting, HistGradientBoosting])
class TestUnfittedBooster:
    def test_predict_and_to_state_are_errors(self, cls):
        booster = cls(ModelParams())
        with pytest.raises(RuntimeError, match="not fitted"):
            booster.predict(np.zeros((3, 2)))
        with pytest.raises(RuntimeError, match="not fitted"):
            booster.to_state()

    def test_zero_rounds_is_fitted_and_round_trips(self, cls, tmp_path):
        X, y, names = clustered_dataset()
        model = train(cls.kind, X, y, ModelParams(n_estimators=0), names)
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        assert np.array_equal(predict(loaded, X, names), np.full(len(y), y.mean()))


def reference_bins(X, n_bins):
    """Value-based binning, independent of the ranks: per column, exact
    midpoints between distinct values when there are at most n_bins of
    them, else midpoints below the values at equal-frequency positions;
    bins by searchsorted on the thresholds."""
    thresholds = []
    for j in range(X.shape[1]):
        col = X[:, j]
        distinct = np.unique(col)
        if distinct.size <= 1:
            thr = np.empty(0, dtype=np.float64)
        elif distinct.size <= n_bins:
            thr = 0.5 * (distinct[:-1] + distinct[1:])
            thr = np.where(thr >= distinct[1:], distinct[:-1], thr)
        else:
            xs = np.sort(col)
            positions = (np.arange(1, n_bins) * xs.size) // n_bins
            edges = []
            for cut in np.unique(xs[positions]):
                i = int(np.searchsorted(distinct, cut))
                if i == 0:
                    continue
                lo, hi = distinct[i - 1], distinct[i]
                t = 0.5 * (lo + hi)
                edges.append(lo if t >= hi else t)
            thr = np.unique(np.asarray(edges, dtype=np.float64))
        thresholds.append(thr)
    binned = np.empty(X.shape, dtype=np.intp)
    for j, thr in enumerate(thresholds):
        binned[:, j] = np.searchsorted(thr, X[:, j], side="left")
    return binned, thresholds


def fit_bins(X, n_bins):
    return bin_features(n_bins, presort(X))


@st.composite
def binning_problems(draw):
    """Tied columns from a few levels (both -0.0 and 0.0 among them, and two
    adjacent doubles whose midpoint rounds up) beside continuous ones,
    duplicated rows, optionally a constant column, and n_bins from 2 to
    beyond the row count, so both branches run."""
    n_base = draw(st.integers(1, 30))
    d = draw(st.integers(1, 4))
    levels = st.sampled_from([-1.5, -0.0, 0.0, 0.25, np.nextafter(1.0, 0.0), 1.0, 3.0])
    values = st.one_of(levels, st.floats(-1e3, 1e3, allow_nan=False, width=32))
    base = np.array(
        draw(st.lists(values, min_size=n_base * d, max_size=n_base * d)), dtype=np.float64
    ).reshape(n_base, d)
    if draw(st.booleans()):
        base[:, draw(st.integers(0, d - 1))] = 7.0
    n = draw(st.integers(1, 60))
    X = base[draw(st.lists(st.integers(0, n_base - 1), min_size=n, max_size=n))]
    return X, draw(st.integers(2, n + 3))


class TestBinMapper:
    def test_few_distinct_values_get_exact_midpoints(self):
        X = np.array([[0.0], [1.0], [1.0], [3.0]])
        binned, n_cuts = fit_bins(X, 8)
        assert list(n_cuts) == [2]
        assert list(binned[:, 0]) == [0, 1, 1, 2]
        params = ModelParams(n_estimators=1, learning_rate=1.0, max_depth=None,
                             min_samples_leaf=1, n_bins=8)
        tree = HistGradientBoosting(params).fit(X, np.array([0.0, 1.0, 1.0, 3.0])).trees[0]
        assert sorted(tree.threshold[tree.feature >= 0]) == [0.5, 2.0]

    def test_constant_feature_has_no_thresholds(self):
        X = np.full((10, 1), 2.5)
        _, n_cuts = fit_bins(X, 4)
        assert n_cuts[0] == 0

    def test_equal_frequency_binning_balances_counts(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(1000, 1))
        binned, _ = fit_bins(X, 8)
        counts = np.bincount(binned[:, 0], minlength=8)
        assert counts.min() > 80 and counts.max() < 170

    def test_large_bin_budget_recovers_all_candidate_cuts(self):
        rng = np.random.default_rng(1)
        X = rng.integers(0, 10, size=(30, 1)).astype(float)
        _, n_cuts = fit_bins(X, 64)
        distinct = np.unique(X[:, 0])
        assert n_cuts[0] == distinct.size - 1

    @given(binning_problems())
    @settings(max_examples=300, deadline=None)
    def test_rank_bins_equal_value_reference(self, problem):
        X, n_bins = problem
        binned, n_cuts = fit_bins(X, n_bins)
        want_binned, want_thresholds = reference_bins(X, n_bins)
        assert np.array_equal(binned, want_binned)
        assert n_cuts.tolist() == [thr.size for thr in want_thresholds]


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


def reference_hist_boosting(X, y, p):
    """Leaf-wise histogram boosting that bins every node's counts and sums
    directly, in n_bins-wide histograms: no count is derived from a parent
    or sibling."""
    binned, thresholds = reference_bins(X, p.n_bins)
    n, d = X.shape
    width = p.n_bins
    offsets = np.arange(d) * width
    cut_ok = np.zeros((d, width - 1), dtype=bool)
    for f, thr in enumerate(thresholds):
        cut_ok[f, : thr.size] = True

    def node(rows, depth, resid):
        flat = (binned[rows] + offsets).ravel()
        cnt = np.bincount(flat, minlength=d * width).reshape(d, width).astype(np.float64)
        sums = np.bincount(
            flat, weights=np.repeat(resid[rows], d), minlength=d * width
        ).reshape(d, width)
        best = None
        if (p.max_depth is None or depth < p.max_depth) and rows.size >= 2 * p.min_samples_leaf:
            m, total = rows.size, float(resid[rows].sum())
            cum_n = np.cumsum(cnt, axis=1)[:, :-1]
            cum_s = np.cumsum(sums, axis=1)[:, :-1]
            nr = m - cum_n
            valid = cut_ok & (cum_n >= p.min_samples_leaf) & (nr >= p.min_samples_leaf)
            sr = total - cum_s
            gains = (cum_s * cum_s / np.maximum(cum_n, 1.0) + sr * sr / np.maximum(nr, 1.0)
                     - total * total / m)
            gains = np.where(valid, gains, -np.inf)
            flat_idx = int(np.argmax(gains))
            if gains.flat[flat_idx] > 0.0:
                best = (float(gains.flat[flat_idx]), *divmod(flat_idx, width - 1))
        return best

    def grow(resid, root_rows):
        feature, threshold, left, right, value = [], [], [], [], []

        def add(rows):
            for field, v in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1)):
                field.append(v)
            value.append(float(resid[rows].mean()))
            return len(value) - 1

        heap, counter, n_leaves = [], 0, 1
        root = (add(root_rows), root_rows, 0)
        best = node(root_rows, 0, resid)
        if best is not None:
            heap.append((-best[0], counter, root, best))
        while heap and n_leaves < max(2, p.max_leaves):
            _, _, (idx, rows, depth), (_, f, b) = heapq.heappop(heap)
            go_left = binned[rows, f] <= b
            children = []
            for child_rows in (rows[go_left], rows[~go_left]):
                children.append((add(child_rows), child_rows, depth + 1))
            lo = float(X[rows[go_left], f].max())
            hi = float(X[rows[~go_left], f].min())
            thr = 0.5 * (lo + hi)
            feature[idx], threshold[idx] = f, thr if thr < hi else lo
            left[idx], right[idx] = children[0][0], children[1][0]
            for child in children:
                best = node(child[1], child[2], resid)
                if best is not None:
                    counter += 1
                    heapq.heappush(heap, (-best[0], counter, child, best))
            n_leaves += 1
        return TreeNodes(feature, threshold, left, right, value)

    current = np.full(n, float(np.mean(y)))
    trees = []
    for m in range(p.n_estimators):
        if p.subsample < 1.0:
            rows = subsample_rows(n, p.subsample, derived_rng(p.seed, m))
        else:
            rows = np.arange(n, dtype=np.intp)
        trees.append(grow(y - current, rows))
        current = current + p.learning_rate * trees[-1].predict(X)
    return trees


def assert_same_trees(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in TreeNodes.__slots__:
            x, z = getattr(a, name), getattr(b, name)
            assert x.dtype == z.dtype and x.tobytes() == z.tobytes(), name


def tied_matrix(seed, n=80):
    """Integer columns (few distinct values, exact midpoints) beside
    continuous ones (more values than bins, equal-frequency cuts)."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.integers(0, 4, size=n), rng.normal(size=n), rng.integers(0, 12, size=n),
        np.round(rng.normal(size=n), 1),
    ]).astype(np.float64)
    y = X[:, 0] * 2 - X[:, 1] + rng.normal(size=n)
    return X, y


class TestHistCountReuse:
    @pytest.mark.parametrize("subsample", [1.0, 0.6])
    @pytest.mark.parametrize("max_depth", [None, 2])
    def test_trees_equal_direct_bincount_reference(self, subsample, max_depth):
        for seed in range(6):
            X, y = tied_matrix(seed)
            params = ModelParams(n_estimators=8, learning_rate=0.3, max_depth=max_depth,
                                 max_leaves=7, min_samples_leaf=1 + seed % 3, n_bins=8,
                                 subsample=subsample, seed=seed)
            got = HistGradientBoosting(params).fit(X, y).trees
            assert_same_trees(got, reference_hist_boosting(X, y, params))

    def test_histogram_width_follows_the_data_not_n_bins(self):
        # 200 rows have at most 199 cuts per feature, so n_bins = 2**20 must
        # give the trees of n_bins = 200 without 2**20-wide histograms
        X, y = tied_matrix(11, n=200)
        shared = dict(n_estimators=5, max_depth=None, max_leaves=12, min_samples_leaf=2)
        narrow = HistGradientBoosting(ModelParams(n_bins=200, **shared)).fit(X, y)
        tracemalloc.start()
        try:
            wide = HistGradientBoosting(ModelParams(n_bins=2**20, **shared)).fit(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_trees(wide.trees, narrow.trees)
        # one 2**20-wide count histogram over 4 features is 32 MiB
        assert peak < 2**20
