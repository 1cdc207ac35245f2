"""Bagged tree ensembles: random forest and extremely randomized trees.

Every tree draws its own generator from (seed, tree index), so training is
bit-reproducible in whichever process it runs. A random-forest tree grows
on a bootstrap :func:`tree.sample`. Each node draws max_features columns,
ceil(d/3) by default; grow_tree reads a value >= d as all columns.
"""

from __future__ import annotations

import math

import numpy as np

from .splits import presort
from .tree import TreeEnsemble, TreeNodes, derived_rng, grow_tree, sample


class _BaseForest(TreeEnsemble):
    averages = True
    random_thresholds = False
    use_bootstrap = False

    def _build_one(
        self,
        X: np.ndarray,
        y: np.ndarray,
        presorted: tuple[np.ndarray, np.ndarray] | None,
        index: int,
    ) -> TreeNodes:
        p = self.params
        rng = derived_rng(p.seed, index)
        n, d = X.shape
        if self.use_bootstrap and p.bootstrap:
            X, y, presorted = sample(X, y, presorted, rng.integers(0, n, size=n))
        return grow_tree(
            X,
            y,
            max_depth=p.max_depth,
            min_samples_leaf=p.min_samples_leaf,
            max_features=max(1, math.ceil(d / 3)) if p.max_features is None else p.max_features,
            rng=rng,
            random_thresholds=self.random_thresholds,
            presorted=presorted,
        )

    def _grow(self, X: np.ndarray, y: np.ndarray) -> tuple[float, list[TreeNodes]]:
        if self.params.n_estimators < 1:
            raise ValueError("forests need n_estimators >= 1")
        presorted = None if self.random_thresholds else presort(X)
        return 0.0, [self._build_one(X, y, presorted, i) for i in range(self.params.n_estimators)]


class RandomForest(_BaseForest):
    """Bootstrap rows + per-node random feature subsets, exact splits."""

    kind = "random_forest"
    random_thresholds = False
    use_bootstrap = True


class ExtraTrees(_BaseForest):
    """Full rows, per-node random feature subsets, uniform random thresholds."""

    kind = "extra_trees"
    random_thresholds = True
    use_bootstrap = False
