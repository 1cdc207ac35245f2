"""CART regression tree: recursive growth and vectorized prediction.

Trees are stored as flat parallel arrays (feature, threshold, left, right,
value) with feature == -1 marking leaves. Routing sends a sample left when
x[feature] <= threshold. Every tree model is a :class:`TreeEnsemble` of
such trees, so fitting, prediction and serialization live here once.
"""

from __future__ import annotations

import math

import numpy as np

from .splits import Split, _random_search, _sorted_search, can_split, presort

_INT32 = np.iinfo(np.int32)


class TreeNodes:
    """Flat node storage for one fitted tree."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.value = np.asarray(value, dtype=np.float64)

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    @property
    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())

    def predict(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        cur = np.zeros(n, dtype=np.int32)
        while True:
            f = self.feature[cur]
            mask = f >= 0
            if not mask.any():
                break
            idx = np.nonzero(mask)[0]
            node = cur[idx]
            xv = X[idx, f[idx]]
            go_left = xv <= self.threshold[node]
            cur[idx] = np.where(go_left, self.left[node], self.right[node])
        return self.value[cur]

    def to_state(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict, n_columns: int) -> "TreeNodes":
        """The tree a state holds, checked so that :meth:`predict` on an
        ``n_columns`` matrix ends on a leaf for every row."""
        # before the cast, which would wrap (numpy 1.x) or refuse (2.x) an
        # id outside int32 and refuse a null, neither with a ValueError
        for name in cls.__slots__:
            ids = name in ("feature", "left", "right")
            nodes = state[name]
            if not isinstance(nodes, list) or not all(
                type(v) is int and _INT32.min <= v <= _INT32.max if ids
                else type(v) in (int, float)
                for v in nodes
            ):
                raise ValueError(f"a tree's {name} is not a list of "
                                 f"{'int32 ids' if ids else 'numbers'}")
        tree = cls(
            state["feature"],
            state["threshold"],
            state["left"],
            state["right"],
            state["value"],
        )
        n = tree.n_nodes
        if n == 0 or any(getattr(tree, name).shape != (n,) for name in cls.__slots__):
            raise ValueError("a tree's five node arrays need one length of at least 1")
        if tree.feature.max() >= n_columns:
            raise ValueError(f"a tree splits on a feature id >= its {n_columns} columns")
        # both growers add a node's children after it, so this also rules
        # out a cycle, which predict would follow forever
        node = np.flatnonzero(tree.feature >= 0)
        for child in (tree.left[node], tree.right[node]):
            if ((child <= node) | (child >= n)).any():
                raise ValueError("a tree's child ids must exceed their node's id "
                                 "and be below its node count")
        return tree


class _Growth:
    """Mutable node lists during recursive growth."""

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def add(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def finish(self) -> TreeNodes:
        return TreeNodes(self.feature, self.threshold, self.left, self.right, self.value)


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    *,
    max_depth: int | None,
    min_samples_leaf: int,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
    random_thresholds: bool = False,
    presorted: tuple[np.ndarray, np.ndarray] | None = None,
) -> TreeNodes:
    """Grow one regression tree.

    max_features draws a fresh feature subset at every node (requires rng);
    random_thresholds switches the split search from exhaustive midpoints
    to one uniform draw per feature (extra-trees style).

    The exhaustive search sorts nothing. It needs ``presorted = (order,
    ranks)``: X's rows sorted stably by each column and the columns' dense
    ranks, as :func:`splits.presort` or :func:`sample` gives them. Each
    searching node holds its rows sorted by every column (a (d, m) row-id
    matrix) and partitions that matrix stably between its children. Node
    rows stay ascending, so a stable full sort filtered to a node equals a
    stable sort of that node alone, and every split is the one
    :func:`best_split` finds for the node's rows. The scan tells equal
    values from distinct ones by their ranks, and reads X only for the
    threshold. The random search needs no presort.
    """
    n, d = X.shape
    subset = max_features is not None and max_features < d
    if subset and rng is None:
        raise ValueError("feature subsampling requires an rng")
    if random_thresholds and rng is None:
        raise ValueError("random thresholds require an rng")
    if not random_thresholds and presorted is None:
        raise ValueError("the exhaustive search needs presorted=(order, ranks)")
    all_feats = np.arange(d, dtype=np.intp)
    growth = _Growth()
    goes_left = np.zeros(n, dtype=bool)

    def splittable(depth: int) -> bool:
        return max_depth is None or depth < max_depth

    def searches(m: int, depth: int) -> bool:
        # the node runs the exact scan, so it needs its sorted rows
        return not random_thresholds and splittable(depth) and can_split(m, min_samples_leaf)

    root_sorted = ranks = None
    if searches(n, 0):
        order, ranks = presorted
        # row ids in the smallest dtype (16-bit at these sizes): the partitions
        # and gathers of the scan move a quarter of the bytes of intp ids
        root_sorted = order.astype(np.min_scalar_type(n - 1), copy=False)

    def build(rows: np.ndarray, sorted_rows: np.ndarray | None, depth: int) -> int:
        idx = growth.add()
        yn = y[rows]
        mean = yn.mean()
        growth.value[idx] = float(mean)

        split: Split | None = None
        # every node of 2+ rows draws its features, so later nodes' draws stay put
        if splittable(depth) and rows.size >= 2:
            if subset:
                feats = np.sort(rng.choice(d, size=max_features, replace=False))
            else:
                feats = all_feats
            if can_split(rows.size, min_samples_leaf):
                total = (yn - mean).sum()
                if random_thresholds:
                    split = _random_search(
                        X[np.ix_(rows, feats)], yn, mean, total, feats, min_samples_leaf, rng
                    )
                else:
                    split = _sorted_search(
                        X,
                        ranks,
                        y,
                        mean,
                        total,
                        sorted_rows[feats] if subset else sorted_rows,
                        feats,
                        min_samples_leaf,
                    )

        if split is not None:
            go_left = X[rows, split.feature] <= split.threshold
            left_rows, right_rows = rows[go_left], rows[~go_left]
            left_sorted = right_sorted = None
            left_searches = searches(left_rows.size, depth + 1)
            right_searches = searches(right_rows.size, depth + 1)
            if left_searches or right_searches:
                goes_left[rows] = go_left
                flat = sorted_rows.ravel()
                to_left = goes_left.take(flat)
                if left_searches:
                    left_sorted = np.compress(to_left, flat).reshape(d, left_rows.size)
                if right_searches:
                    right_sorted = np.compress(~to_left, flat).reshape(d, right_rows.size)
            growth.feature[idx] = split.feature
            growth.threshold[idx] = split.threshold
            growth.left[idx] = build(left_rows, left_sorted, depth + 1)
            growth.right[idx] = build(right_rows, right_sorted, depth + 1)
        return idx

    build(np.arange(n, dtype=np.intp), root_sorted, 0)
    # build reaches itself through its closure; clearing the name breaks that
    # cycle, so the arrays the closure holds are freed now, not at a later
    # garbage collection
    del build
    return growth.finish()


class TreeEnsemble:
    """A fitted model that predicts ``base_value + weight * sum of its trees``,
    divided by the number of trees when the ensemble averages.

    This is the one fit, predict, fitted check and state of every tree
    model. A kind only says how it grows its trees, in :meth:`_grow`.
    """

    averages = False  # a forest's prediction is the mean of its trees

    def __init__(self, params):
        self.params = params
        self.base_value: float | None = None  # set by fit or load_state
        self.trees: list[TreeNodes] = []

    @property
    def weight(self) -> float:
        """The factor on every tree's prediction."""
        return 1.0

    def _grow(self, X: np.ndarray, y: np.ndarray) -> tuple[float, list[TreeNodes]]:
        """Return the base value and the trees fitted to (X, y)."""
        raise NotImplementedError

    def fit(self, X: np.ndarray, y: np.ndarray) -> "TreeEnsemble":
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.shape[0] == 0:
            raise ValueError("cannot train on an empty matrix")
        self.base_value, self.trees = self._grow(X, y)
        return self

    def _check_fitted(self) -> None:
        # a booster with n_estimators = 0 has no tree, yet predicts its base value
        if self.base_value is None:
            raise RuntimeError("model is not fitted")

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        acc = np.full(X.shape[0], self.base_value)
        for tree in self.trees:
            acc += self.weight * tree.predict(X)
        return acc / len(self.trees) if self.averages else acc

    def to_state(self) -> dict:
        self._check_fitted()
        return {"base_value": self.base_value, "trees": [t.to_state() for t in self.trees]}

    def load_state(self, state: dict, n_columns: int) -> None:
        if type(state["base_value"]) not in (int, float):
            raise ValueError("base_value is not a number")
        trees = state["trees"]
        if not isinstance(trees, list) or not all(isinstance(s, dict) for s in trees):
            raise ValueError("trees is not a list of JSON objects")
        self.base_value = float(state["base_value"])
        self.trees = [TreeNodes.from_state(s, n_columns) for s in trees]
        if self.averages and not self.trees:
            raise ValueError("a forest needs at least one tree")


class DecisionTree(TreeEnsemble):
    """Plain CART regressor with exhaustive midpoint splits: one tree on a
    base value of 0."""

    kind = "decision_tree"

    def _grow(self, X: np.ndarray, y: np.ndarray) -> tuple[float, list[TreeNodes]]:
        tree = grow_tree(
            X,
            y,
            max_depth=self.params.max_depth,
            min_samples_leaf=self.params.min_samples_leaf,
            presorted=presort(X),
        )
        return 0.0, [tree]


def derived_rng(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-member stream: independent of training order."""
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def subsample_rows(n: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted sample without replacement of ceil(fraction * n) rows."""
    size = max(1, math.ceil(fraction * n))
    return np.sort(rng.choice(n, size=size, replace=False))


def sample(
    X: np.ndarray, y: np.ndarray, presorted: tuple[np.ndarray, np.ndarray], rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """``X[rows]``, ``y[rows]`` and their presort, cut from X's presort: the
    rows' ranks and a stable (radix) argsort of them.

    A bootstrap draw repeats rows. A subsample's rows are ascending and
    unique, so the sort keeps their tie order in X, and the sample grows
    the tree that its rows would grow inside X.
    """
    ranks = presorted[1].take(rows, axis=1)
    return X[rows], y[rows], (np.argsort(ranks, axis=1, kind="stable"), ranks)
