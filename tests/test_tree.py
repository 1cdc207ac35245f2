import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wheatyield.learners import (
    ColumnMismatchError,
    DecisionTree,
    ModelParams,
    best_split,
    load_model,
    predict,
    save_model,
    train,
)
from wheatyield.learners import splits
from wheatyield.learners.boosting import GradientBoosting
from wheatyield.learners.forest import RandomForest
from wheatyield.learners.tree import TreeNodes, derived_rng, grow_tree, sample, subsample_rows


def enumerate_splits(X, y, min_leaf=1):
    """Independent oracle: every (feature, midpoint) candidate scored by
    weighted variance reduction with np.var, descending by gain."""
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
            nl, nr = mask.sum(), n - mask.sum()
            if nl < min_leaf or nr < min_leaf:
                continue
            gain = parent - (nl * np.var(y[mask]) + nr * np.var(y[~mask])) / n
            if gain > 0:
                cands.append((float(gain), f, float(thr)))
    cands.sort(key=lambda c: (-c[0], c[1], c[2]))
    return cands


def brute_force_best_split(X, y, min_leaf=1):
    cands = enumerate_splits(X, y, min_leaf)
    return cands[0] if cands else None


class TestBestSplit:
    def test_two_point_example(self):
        split = best_split(np.array([[0.0], [1.0]]), np.array([0.0, 10.0]))
        assert split is not None
        assert split.feature == 0
        assert split.threshold == 0.5
        assert split.gain == pytest.approx(25.0)

    def test_midpoint_rounding_onto_upper_value_keeps_lower(self):
        # 0.5 * (lo + hi) rounds up to hi for these adjacent doubles, and
        # "x <= hi" would send both rows left
        lo, hi = np.nextafter(1.0, 0.0), 1.0
        assert splits.midpoint(lo, hi) == lo
        assert splits.midpoint(0.0, 1.0) == 0.5
        split = best_split(np.array([[lo], [hi]]), np.array([0.0, 10.0]))
        assert split is not None and split.threshold == lo

    def test_constant_target_gives_none(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        assert best_split(X, np.full(10, 3.3)) is None

    def test_duplicated_feature_breaks_tie_to_lower_index(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0.0, 0.0, 5.0, 5.0])
        split = best_split(X, y)
        assert split is not None and split.feature == 0

    def test_constant_feature_never_chosen(self):
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        y = np.array([0.0, 0, 0, 9, 9, 9])
        split = best_split(X, y)
        assert split is not None and split.feature == 1

    def test_row_and_feature_subsets_respected(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 4))
        y = X[:, 2] * 5 + rng.normal(size=30) * 0.01
        split = best_split(X, y, feature_subset=np.array([0, 1]))
        assert split is None or split.feature in (0, 1)
        rows = np.arange(10)
        sub = best_split(X, y, row_subset=rows)
        oracle = brute_force_best_split(X[rows], y[rows])
        assert sub is not None and oracle is not None
        assert sub.feature == oracle[1] and sub.threshold == pytest.approx(oracle[2])

    def test_min_samples_leaf_constrains_candidates(self):
        X = np.arange(6, dtype=float).reshape(-1, 1)
        y = np.array([0.0, 0, 0, 0, 0, 100.0])
        unconstrained = best_split(X, y)
        assert unconstrained is not None and unconstrained.threshold == pytest.approx(4.5)
        assert best_split(X, y, min_samples_leaf=0) == unconstrained
        constrained = best_split(X, y, min_samples_leaf=3)
        assert constrained is not None and constrained.threshold == pytest.approx(2.5)

    def test_agrees_with_brute_force_on_random_data(self):
        # the chosen split must achieve the enumerated maximum gain; when
        # that maximum is unique the (feature, threshold) must match too
        # (distinct features can induce the identical partition, and such
        # mathematically tied candidates resolve by float accumulation);
        # min_samples_leaf 2 and 3 move the first candidate off position 0
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(2, 31))
            d = int(rng.integers(1, 6))
            X = np.round(rng.normal(size=(n, d)), 2)
            y = rng.normal(size=n)
            for min_leaf in (1, 2, 3):
                got = best_split(X, y, min_samples_leaf=min_leaf)
                cands = enumerate_splits(X, y, min_leaf)
                if not cands:
                    assert got is None
                    continue
                assert got is not None
                gmax = cands[0][0]
                tol = 1e-9 * max(1.0, abs(gmax))
                assert got.gain == pytest.approx(gmax, abs=tol)
                achieved = {
                    (f, thr) for g, f, thr in cands if g >= gmax - tol
                }
                assert (got.feature, got.threshold) in achieved
                if len(achieved) == 1:
                    assert got.feature == cands[0][1]
                    assert got.threshold == pytest.approx(cands[0][2], abs=1e-12)

    @pytest.mark.parametrize("block_cells", [1, 50, 997])
    def test_feature_blocks_change_no_bit(self, monkeypatch, block_cells):
        # the scan takes the node's features a few at a time; a column and
        # its copy, which score identically, land in different blocks, and
        # the lower index must still win
        rng = np.random.default_rng(8)
        X = np.round(rng.normal(size=(120, 9)), 1)
        X[:, 6] = X[:, 2]
        y = 3 * X[:, 2] + rng.normal(size=120)
        cases = [{}, {"min_samples_leaf": 7}, {"row_subset": np.arange(3, 100, 2)},
                 {"feature_subset": np.array([6, 1, 2, 8])}]
        whole = [best_split(X, y, **case) for case in cases]
        tree = grow_tree(X, y, max_depth=4, min_samples_leaf=2, presorted=splits.presort(X))
        assert whole[0].feature == 2
        monkeypatch.setattr(splits, "_BLOCK_CELLS", block_cells)
        assert [best_split(X, y, **case) for case in cases] == whole
        assert_same_nodes(
            grow_tree(X, y, max_depth=4, min_samples_leaf=2, presorted=splits.presort(X)), tree
        )


def reference_grow_tree(X, y, *, max_depth, min_samples_leaf, max_features, rng, root_rows):
    """Recursive grower that runs best_split (a per-node stable argsort) at
    every node and draws each node's feature subset as grow_tree does."""
    n, d = X.shape
    rows0 = np.arange(n) if root_rows is None else np.asarray(root_rows)
    subset = max_features is not None and max_features < d
    feature, threshold, left, right, value = [], [], [], [], []

    def build(rows, depth):
        idx = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(y[rows].mean()))
        split = None
        if (max_depth is None or depth < max_depth) and rows.size >= 2:
            feats = np.sort(rng.choice(d, size=max_features, replace=False)) if subset else None
            split = best_split(
                X, y, row_subset=rows, feature_subset=feats, min_samples_leaf=min_samples_leaf
            )
        if split is not None:
            go_left = X[rows, split.feature] <= split.threshold
            feature[idx] = split.feature
            threshold[idx] = split.threshold
            left[idx] = build(rows[go_left], depth + 1)
            right[idx] = build(rows[~go_left], depth + 1)
        return idx

    build(rows0, 0)
    return TreeNodes(feature, threshold, left, right, value)


@st.composite
def tree_problems(draw):
    """Small matrices with heavy ties: integer-valued columns, an optional
    constant column, rows duplicated as a bootstrap duplicates them."""
    n_base = draw(st.integers(1, 12))
    d = draw(st.integers(1, 5))
    base = np.array(
        draw(st.lists(st.integers(0, 3), min_size=n_base * d, max_size=n_base * d)),
        dtype=np.float64,
    ).reshape(n_base, d)
    if draw(st.booleans()):
        base[:, draw(st.integers(0, d - 1))] = 7.0
    n = draw(st.integers(1, 24))
    X = base[draw(st.lists(st.integers(0, n_base - 1), min_size=n, max_size=n))]
    y = np.array(
        draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)), dtype=np.float64
    ) / draw(st.sampled_from([1.0, 3.0, 7.0]))
    root_rows = None
    if draw(st.booleans()):
        root_rows = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    return {
        "X": X,
        "y": y,
        "root_rows": root_rows,
        "max_features": draw(st.one_of(st.none(), st.integers(1, d))),
        "min_samples_leaf": draw(st.integers(1, 5)),
        "max_depth": draw(st.sampled_from([None, 0, 3])),
        "seed": draw(st.integers(0, 2**16)),
    }


class TestGrowTree:
    @given(tree_problems())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_node_argsort_reference(self, problem):
        """grow_tree on the sample that sample() cuts grows the tree that
        the reference grows on the same rows in place."""
        X, y, seed, rows = problem["X"], problem["y"], problem["seed"], problem["root_rows"]
        kwargs = {key: problem[key] for key in ("max_depth", "min_samples_leaf", "max_features")}
        Xs, ys, presorted = X, y, splits.presort(X)
        if rows is not None:
            Xs, ys, presorted = sample(X, y, presorted, rows)
        got = grow_tree(Xs, ys, rng=np.random.default_rng(seed), presorted=presorted, **kwargs)
        want = reference_grow_tree(X, y, rng=np.random.default_rng(seed), root_rows=rows, **kwargs)
        for name in TreeNodes.__slots__:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_exhaustive_search_needs_presorted(self):
        X = np.arange(8.0).reshape(4, 2)
        y = np.arange(4.0)
        with pytest.raises(ValueError, match="presorted"):
            grow_tree(X, y, max_depth=2, min_samples_leaf=1)
        tree = grow_tree(X, y, max_depth=2, min_samples_leaf=1, random_thresholds=True,
                         rng=np.random.default_rng(0))
        assert tree.n_nodes >= 1


def assert_same_nodes(got, want):
    # bytes, not ==, so that -0.0 and 0.0 thresholds count as different
    for name in TreeNodes.__slots__:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@st.composite
def ensemble_problems(draw):
    """Tied matrices for the ensembles' rank path: values from a few
    levels that include both -0.0 and 0.0, duplicated rows, optionally a
    constant column."""
    n_base = draw(st.integers(1, 10))
    d = draw(st.integers(1, 5))
    levels = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])
    base = np.array(
        draw(st.lists(levels, min_size=n_base * d, max_size=n_base * d)), dtype=np.float64
    ).reshape(n_base, d)
    if draw(st.booleans()):
        base[:, draw(st.integers(0, d - 1))] = 7.0
    n = draw(st.integers(2, 30))
    X = base[draw(st.lists(st.integers(0, n_base - 1), min_size=n, max_size=n))]
    y = np.array(
        draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)), dtype=np.float64
    ) / draw(st.sampled_from([1.0, 3.0, 7.0]))
    return {
        "X": X,
        "y": y,
        "tree": {
            "max_depth": draw(st.sampled_from([None, 1, 3])),
            "min_samples_leaf": draw(st.integers(1, 4)),
            "max_features": draw(st.integers(1, d)),
        },
        "n_estimators": draw(st.integers(1, 4)),
        "subsample": draw(st.sampled_from([0.3, 0.6, 0.9])),
        "seed": draw(st.integers(0, 2**16)),
    }


class TestEnsembleRankPath:
    """Forests and boosters sort through ranks computed once per fit; every
    tree must equal the per-node float argsort reference on the same
    derived_rng draws."""

    @given(ensemble_problems())
    @settings(max_examples=150, deadline=None)
    def test_random_forest_bootstrap_trees_match_reference(self, problem):
        X, y, seed, tree = problem["X"], problem["y"], problem["seed"], problem["tree"]
        params = ModelParams(n_estimators=problem["n_estimators"], bootstrap=True, seed=seed, **tree)
        forest = RandomForest(params).fit(X, y)
        n = X.shape[0]
        for index, got in enumerate(forest.trees):
            rng = derived_rng(seed, index)
            rows = rng.integers(0, n, size=n)
            want = reference_grow_tree(X[rows], y[rows], rng=rng, root_rows=None, **tree)
            assert_same_nodes(got, want)

    @given(ensemble_problems())
    @settings(max_examples=50, deadline=None)
    def test_random_forest_without_bootstrap_trees_match_reference(self, problem):
        # every tree reuses the fit's presort of X
        X, y, seed, tree = problem["X"], problem["y"], problem["seed"], problem["tree"]
        params = ModelParams(n_estimators=problem["n_estimators"], bootstrap=False, seed=seed, **tree)
        forest = RandomForest(params).fit(X, y)
        for index, got in enumerate(forest.trees):
            want = reference_grow_tree(X, y, rng=derived_rng(seed, index), root_rows=None, **tree)
            assert_same_nodes(got, want)

    @given(ensemble_problems())
    @settings(max_examples=150, deadline=None)
    def test_gradient_boosting_subsampled_trees_match_reference(self, problem):
        X, y, seed, tree = problem["X"], problem["y"], problem["seed"], problem["tree"]
        params = ModelParams(
            n_estimators=problem["n_estimators"], learning_rate=0.5,
            subsample=problem["subsample"], seed=seed, **tree,
        )
        booster = GradientBoosting(params).fit(X, y)
        n = X.shape[0]
        current = np.full(n, float(np.mean(y)))
        for m, got in enumerate(booster.trees):
            rng = derived_rng(seed, m)
            rows = subsample_rows(n, params.subsample, rng)
            want = reference_grow_tree(X, y - current, rng=rng, root_rows=rows, **tree)
            assert_same_nodes(got, want)
            current = current + params.learning_rate * want.predict(X)


def fit_tree(X, y, **kwargs):
    kwargs.setdefault("min_samples_leaf", 1)
    params = ModelParams(**kwargs)
    names = [f"x{i}" for i in range(np.asarray(X).shape[1])]
    return train("decision_tree", np.asarray(X, float), np.asarray(y, float), params, names)


class TestDecisionTree:
    def test_depth_zero_is_mean_stump(self):
        model = fit_tree([[0.0], [1.0], [2.0]], [1.0, 2.0, 6.0], max_depth=0)
        out = predict(model, np.array([[5.0], [-1.0]]), ["x0"])
        assert np.allclose(out, 3.0)

    def test_depth_one_two_points(self):
        model = fit_tree([[0.0], [1.0]], [0.0, 10.0], max_depth=1)
        out = predict(model, np.array([[0.0], [1.0]]), ["x0"])
        assert list(out) == [0.0, 10.0]

    def test_interpolates_distinct_rows_with_unbounded_depth(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        model = fit_tree(X, y, max_depth=None)
        assert np.array_equal(predict(model, X, ["x0", "x1", "x2"]), y)

    def test_train_mse_non_increasing_in_depth(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        errors = []
        for depth in range(0, 8):
            model = fit_tree(X, y, max_depth=depth)
            pred = predict(model, X, ["x0", "x1", "x2", "x3"])
            errors.append(float(np.mean((pred - y) ** 2)))
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_positive_feature_scaling_invariance(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        Xs = X.copy()
        Xs[:, 1] *= 1000.0
        names = ["x0", "x1", "x2"]
        base = predict(fit_tree(X, y, max_depth=4), X, names)
        scaled = predict(fit_tree(Xs, y, max_depth=4), Xs, names)
        assert np.array_equal(base, scaled)

    def test_duplicated_column_does_not_change_predictions(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        Xdup = np.column_stack([X, X[:, 0]])
        base = predict(fit_tree(X, y, max_depth=5), X, ["x0", "x1"])
        dup = predict(fit_tree(Xdup, y, max_depth=5), Xdup, ["x0", "x1", "x2"])
        assert np.array_equal(base, dup)

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        model = fit_tree(X, y, max_depth=4)
        names = ["x0", "x1", "x2"]
        perm = rng.permutation(25)
        assert np.array_equal(predict(model, X, names)[perm], predict(model, X[perm], names))

    def test_empty_matrix_is_error(self):
        with pytest.raises(ValueError):
            fit_tree(np.empty((0, 2)), np.empty(0))

    def test_column_mismatch_names_columns(self):
        model = fit_tree([[0.0, 1.0]], [1.0], max_depth=1)
        with pytest.raises(ColumnMismatchError) as err:
            predict(model, np.array([[0.0, 1.0]]), ["x0", "bogus"])
        assert "bogus" in str(err.value) and "x1" in str(err.value)

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        model = fit_tree(X, y, max_depth=None, min_samples_leaf=5)
        (nodes,) = model.estimator.trees
        counts = np.zeros(nodes.n_nodes, dtype=int)
        assignments = np.zeros(40, dtype=int)
        for i in range(40):
            node = 0
            while nodes.feature[node] >= 0:
                if X[i, nodes.feature[node]] <= nodes.threshold[node]:
                    node = nodes.left[node]
                else:
                    node = nodes.right[node]
            assignments[i] = node
        for node, count in zip(*np.unique(assignments, return_counts=True)):
            assert count >= 5

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        model = fit_tree(X, y, max_depth=5)
        path = tmp_path / "tree.json"
        save_model(model, path)
        loaded = load_model(path)
        names = ["x0", "x1", "x2"]
        assert np.array_equal(predict(model, X, names), predict(loaded, X, names))
        assert loaded.column_names == model.column_names

    def test_unfitted_to_state_is_error(self):
        # a raised error, not an assert, so python -O keeps the check
        with pytest.raises(RuntimeError, match="not fitted"):
            DecisionTree(ModelParams()).to_state()
