"""Gradient boosting of regression trees on squared error.

The model starts from the target mean and adds learning_rate * tree(m) for
m = 1..n_estimators, each tree fit to the current residuals. With
subsample < 1 the tree sees a per-round row sample drawn without
replacement (the update still applies to all rows).

:class:`Boosting` owns that loop, prediction and serialization; a subclass
only says how round m's tree is grown. :class:`GradientBoosting` grows
exact CART trees; the histogram variant lives in ``histboost``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tree import TreeNodes, column_order, derived_rng, grow_tree, subsample_rows

RoundGrower = Callable[[np.ndarray, int], TreeNodes]


class Boosting:
    """Stagewise squared-error boosting over a per-round tree grower."""

    def __init__(self, params):
        self.params = params
        self.base_value = 0.0
        self.trees: list[TreeNodes] = []
        self.train_mse_path_: list[float] = []

    def _round_grower(self, X: np.ndarray) -> RoundGrower:
        """Return ``grow(residual, m)``, which fits round m's tree."""
        raise NotImplementedError

    def fit(self, X: np.ndarray, y: np.ndarray, n_jobs: int = 1) -> "Boosting":
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.shape[0] == 0:
            raise ValueError("cannot train on an empty matrix")
        p = self.params
        grow = self._round_grower(X)
        self.base_value = float(np.mean(y))
        current = np.full(X.shape[0], self.base_value)
        self.trees = []
        self.train_mse_path_ = [float(np.mean((y - current) ** 2))]
        for m in range(p.n_estimators):
            tree = grow(y - current, m)
            current = current + p.learning_rate * tree.predict(X)
            self.trees.append(tree)
            self.train_mse_path_.append(float(np.mean((y - current) ** 2)))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        acc = np.full(X.shape[0], self.base_value)
        for tree in self.trees:
            acc += self.params.learning_rate * tree.predict(X)
        return acc

    def to_state(self) -> dict:
        return {
            "base_value": self.base_value,
            "learning_rate": self.params.learning_rate,
            "trees": [t.to_state() for t in self.trees],
        }

    def load_state(self, state: dict) -> None:
        self.base_value = float(state["base_value"])
        self.trees = [TreeNodes.from_state(s) for s in state["trees"]]


class GradientBoosting(Boosting):
    """Boosting of exact CART trees; round m draws from derived_rng(seed, m)."""

    kind = "gradient_boosting"

    def _round_grower(self, X: np.ndarray) -> RoundGrower:
        p = self.params
        n, d = X.shape
        max_features = d if p.max_features is None else min(p.max_features, d)
        order = column_order(X)  # X is fixed across rounds: sort it once per fit

        def grow(residual: np.ndarray, m: int) -> TreeNodes:
            rng = derived_rng(p.seed, m)
            rows = subsample_rows(n, p.subsample, rng) if p.subsample < 1.0 else None
            return grow_tree(
                X,
                residual,
                max_depth=p.max_depth,
                min_samples_leaf=p.min_samples_leaf,
                max_features=max_features,
                rng=rng,
                root_rows=rows,
                order=order,
            )

        return grow
