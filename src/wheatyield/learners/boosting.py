"""Gradient boosting of regression trees on squared error.

The model starts from the target mean and adds learning_rate * tree(m) for
m = 1..n_estimators, each tree fit to the current residuals. Round m draws
from derived_rng(seed, m); with subsample < 1 it first draws a row sample
without replacement, which the tree sees (the update still applies to all
rows).

:class:`Boosting` owns that loop and draw; prediction and serialization are
those of :class:`tree.TreeEnsemble`, with learning_rate as the trees'
weight. A subclass only says how round m's tree is grown.
:class:`GradientBoosting` grows exact CART trees, on the round's
:func:`tree.sample`; the histogram variant lives in ``histboost``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .splits import presort
from .tree import TreeEnsemble, TreeNodes, derived_rng, grow_tree, sample, subsample_rows

RoundGrower = Callable[[np.ndarray, np.ndarray | None, np.random.Generator], TreeNodes]


class Boosting(TreeEnsemble):
    """Stagewise squared-error boosting over a per-round tree grower."""

    def __init__(self, params):
        super().__init__(params)
        self.train_mse_path_: list[float] = []

    @property
    def weight(self) -> float:
        return self.params.learning_rate

    def _round_grower(self, X: np.ndarray) -> RoundGrower:
        """Return ``grow(residual, rows, rng)``, which fits a round's tree to
        the residual on the round's sorted row sample (None: every row),
        with the rest of the round's generator."""
        raise NotImplementedError

    def _grow(self, X: np.ndarray, y: np.ndarray) -> tuple[float, list[TreeNodes]]:
        p = self.params
        grow = self._round_grower(X)
        n = X.shape[0]
        base_value = float(np.mean(y))
        current = np.full(n, base_value)
        trees = []
        self.train_mse_path_ = [float(np.mean((y - current) ** 2))]
        for m in range(p.n_estimators):
            rng = derived_rng(p.seed, m)
            rows = subsample_rows(n, p.subsample, rng) if p.subsample < 1.0 else None
            tree = grow(y - current, rows, rng)
            current = current + self.weight * tree.predict(X)
            trees.append(tree)
            self.train_mse_path_.append(float(np.mean((y - current) ** 2)))
        return base_value, trees


class GradientBoosting(Boosting):
    """Boosting of exact CART trees."""

    kind = "gradient_boosting"

    def _round_grower(self, X: np.ndarray) -> RoundGrower:
        p = self.params
        presorted = presort(X)  # X is fixed across rounds

        def grow(
            residual: np.ndarray, rows: np.ndarray | None, rng: np.random.Generator
        ) -> TreeNodes:
            if rows is None:
                Xs, ys, sorted_s = X, residual, presorted
            else:
                Xs, ys, sorted_s = sample(X, residual, presorted, rows)
            return grow_tree(
                Xs,
                ys,
                max_depth=p.max_depth,
                min_samples_leaf=p.min_samples_leaf,
                max_features=p.max_features,
                rng=rng,
                presorted=sorted_s,
            )

        return grow
