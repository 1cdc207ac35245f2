"""Gradient boosting of regression trees on squared error.

The model starts from the target mean and adds learning_rate * tree(m) for
m = 1..n_estimators, each tree fit to the current residuals. With
subsample < 1 the tree sees a per-round row sample drawn without
replacement (the update still applies to all rows).

:class:`Boosting` owns that loop; prediction and serialization are those
of :class:`tree.TreeEnsemble`, with learning_rate as the trees' weight. A
subclass only says how round m's tree is grown. :class:`GradientBoosting`
grows exact CART trees; the histogram variant lives in ``histboost``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .splits import presort
from .tree import TreeEnsemble, TreeNodes, derived_rng, grow_tree, subsample_rows

RoundGrower = Callable[[np.ndarray, int], TreeNodes]


class Boosting(TreeEnsemble):
    """Stagewise squared-error boosting over a per-round tree grower."""

    def __init__(self, params):
        super().__init__(params)
        self.train_mse_path_: list[float] = []

    @property
    def weight(self) -> float:
        return self.params.learning_rate

    def _round_grower(self, X: np.ndarray) -> RoundGrower:
        """Return ``grow(residual, m)``, which fits round m's tree."""
        raise NotImplementedError

    def _grow(self, X: np.ndarray, y: np.ndarray) -> tuple[float, list[TreeNodes]]:
        grow = self._round_grower(X)
        base_value = float(np.mean(y))
        current = np.full(X.shape[0], base_value)
        trees = []
        self.train_mse_path_ = [float(np.mean((y - current) ** 2))]
        for m in range(self.params.n_estimators):
            tree = grow(y - current, m)
            current = current + self.weight * tree.predict(X)
            trees.append(tree)
            self.train_mse_path_.append(float(np.mean((y - current) ** 2)))
        return base_value, trees


class GradientBoosting(Boosting):
    """Boosting of exact CART trees; round m draws from derived_rng(seed, m)."""

    kind = "gradient_boosting"

    def _round_grower(self, X: np.ndarray) -> RoundGrower:
        p = self.params
        n, d = X.shape
        max_features = d if p.max_features is None else min(p.max_features, d)
        presorted = presort(X)  # X is fixed across rounds

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
                presorted=presorted,
            )

        return grow
