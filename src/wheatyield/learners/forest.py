"""Bagged tree ensembles: random forest and extremely randomized trees.

Every tree draws its own generator from (seed, tree index), so training is
bit-reproducible in whichever process it runs.
"""

from __future__ import annotations

import math

import numpy as np

from .splits import presort
from .tree import TreeEnsemble, TreeNodes, derived_rng, grow_tree


def _resolve_max_features(max_features: int | None, d: int) -> int:
    if max_features is None:
        return max(1, math.ceil(d / 3))
    return min(max_features, d)


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
        rng = derived_rng(self.params.seed, index)
        n, d = X.shape
        if self.use_bootstrap and self.params.bootstrap:
            rows = rng.integers(0, n, size=n)
            X, y = X[rows], y[rows]
            if presorted is not None:
                # the sample's sort is a radix sort of its rows' ranks
                ranks = presorted[1].take(rows, axis=1)
                presorted = (np.argsort(ranks, axis=1, kind="stable"), ranks)
        return grow_tree(
            X,
            y,
            max_depth=self.params.max_depth,
            min_samples_leaf=self.params.min_samples_leaf,
            max_features=_resolve_max_features(self.params.max_features, d),
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
