"""CART regression tree: recursive growth and vectorized prediction.

Trees are stored as flat parallel arrays (feature, threshold, left, right,
value) with feature == -1 marking leaves. Routing sends a sample left when
x[feature] <= threshold. The same storage is reused by the forests and
boosters, so prediction and serialization live here once.
"""

from __future__ import annotations

import math

import numpy as np

from .splits import Split, _random_search, _sorted_search


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
    def from_state(cls, state: dict) -> "TreeNodes":
        return cls(
            state["feature"],
            state["threshold"],
            state["left"],
            state["right"],
            state["value"],
        )


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


def column_order(X: np.ndarray) -> np.ndarray:
    """Row ids of X sorted stably by each column: a (d, n) matrix."""
    return np.argsort(X.T, axis=1, kind="stable")


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    *,
    max_depth: int | None,
    min_samples_leaf: int,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
    random_thresholds: bool = False,
    root_rows: np.ndarray | None = None,
    order: np.ndarray | None = None,
) -> TreeNodes:
    """Grow one regression tree.

    max_features draws a fresh feature subset at every node (requires rng);
    random_thresholds switches the split search from exhaustive midpoints
    to one uniform draw per feature (extra-trees style). root_rows must be
    strictly ascending.

    The exhaustive search sorts nothing at a node. Each searching node
    holds its rows sorted by every column (a (d, m) row-id matrix) and
    partitions that matrix stably between its children. ``order`` is
    :func:`column_order` of X, so that callers growing many trees on one
    matrix sort it once; without it the tree sorts X itself. Node rows
    stay ascending, so a stable full sort filtered to a node equals a
    stable sort of that node alone, and every split is the one
    :func:`best_split` finds for the node's rows.
    """
    if X.shape[0] == 0:
        raise ValueError("cannot grow a tree on an empty matrix")
    n, d = X.shape
    rows0 = (
        np.arange(n, dtype=np.intp) if root_rows is None else np.asarray(root_rows, dtype=np.intp)
    )
    if rows0.size == 0:
        raise ValueError("cannot grow a tree on an empty row subset")
    if np.any(rows0[1:] <= rows0[:-1]):
        raise ValueError("root_rows must be strictly ascending")
    if max_features is not None and max_features < 1:
        raise ValueError("max_features must be >= 1")
    subset = max_features is not None and max_features < d
    if subset and rng is None:
        raise ValueError("feature subsampling requires an rng")
    if random_thresholds and rng is None:
        raise ValueError("random thresholds require an rng")
    all_feats = np.arange(d, dtype=np.intp)
    growth = _Growth()
    goes_left = np.zeros(n, dtype=bool)

    def splittable(depth: int) -> bool:
        return max_depth is None or depth < max_depth

    def searches(m: int, depth: int) -> bool:
        # the node runs the exact scan, so it needs its sorted rows
        return not random_thresholds and splittable(depth) and m >= max(2, 2 * min_samples_leaf)

    root_sorted = None
    if searches(rows0.size, 0):
        XT = np.ascontiguousarray(X.T)
        root_sorted = column_order(X) if order is None else order
        if root_rows is not None:
            in_root = np.zeros(n, dtype=bool)
            in_root[rows0] = True
            flat = root_sorted.ravel()
            root_sorted = np.compress(in_root.take(flat), flat).reshape(d, rows0.size)

    def build(rows: np.ndarray, sorted_rows: np.ndarray | None, depth: int) -> int:
        idx = growth.add()
        yn = y[rows]
        mean = yn.mean()
        growth.value[idx] = float(mean)

        split: Split | None = None
        if splittable(depth) and rows.size >= 2:
            if subset:
                feats = np.sort(rng.choice(d, size=max_features, replace=False))
            else:
                feats = all_feats
            if random_thresholds:
                split = _random_search(X[np.ix_(rows, feats)], yn, feats, min_samples_leaf, rng)
            elif sorted_rows is not None:
                ids = sorted_rows[feats] if subset else sorted_rows
                split = _sorted_search(
                    XT[feats[:, None], ids],
                    y.take(ids) - mean,
                    (yn - mean).sum(),
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

    build(rows0, root_sorted, 0)
    # build reaches itself through its closure; clearing the name breaks that
    # cycle, so the arrays the closure holds are freed now, not at a later
    # garbage collection
    del build
    return growth.finish()


class DecisionTree:
    """Plain CART regressor with exhaustive midpoint splits."""

    kind = "decision_tree"

    def __init__(self, params):
        self.params = params
        self.nodes: TreeNodes | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, n_jobs: int = 1) -> "DecisionTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.shape[0] == 0:
            raise ValueError("cannot train on an empty matrix")
        self.nodes = grow_tree(
            X,
            y,
            max_depth=self.params.max_depth,
            min_samples_leaf=self.params.min_samples_leaf,
        )
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.nodes is None:
            raise RuntimeError("model is not fitted")
        return self.nodes.predict(np.asarray(X, dtype=np.float64))

    def to_state(self) -> dict:
        if self.nodes is None:
            raise RuntimeError("model is not fitted")
        return {"tree": self.nodes.to_state()}

    def load_state(self, state: dict) -> None:
        self.nodes = TreeNodes.from_state(state["tree"])


def derived_rng(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-member stream: independent of training order."""
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def subsample_rows(n: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted sample without replacement of ceil(fraction * n) rows."""
    size = max(1, math.ceil(fraction * n))
    return np.sort(rng.choice(n, size=size, replace=False))
