"""Histogram-based gradient boosting with leaf-wise tree growth.

Features are pre-binned once per fit: when a feature has at most n_bins
distinct values the bin edges are exact midpoints between consecutive
distinct values (so split candidates coincide with the exhaustive search),
otherwise edges come from equal-frequency cuts. Trees grow leaf-wise: the
leaf whose best split removes the most squared error is expanded first,
until max_leaves is reached or no leaf can improve. Histograms are built
per node with one vectorized bincount over all features, so each tree
level costs one pass over the node's rows.

Fitted trees store real-valued thresholds, so the boosting loop,
prediction and serialization are those of :class:`boosting.Boosting`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .boosting import Boosting, RoundGrower
from .tree import TreeNodes, _Growth, derived_rng, subsample_rows


class _BinMapper:
    """Per-feature threshold grid and integer binning."""

    def __init__(self, n_bins: int):
        if n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        self.n_bins = n_bins
        self.thresholds: list[np.ndarray] = []

    def fit(self, X: np.ndarray) -> "_BinMapper":
        self.thresholds = []
        for j in range(X.shape[1]):
            col = X[:, j]
            distinct = np.unique(col)
            if distinct.size <= 1:
                thr = np.empty(0, dtype=np.float64)
            elif distinct.size <= self.n_bins:
                thr = 0.5 * (distinct[:-1] + distinct[1:])
                # keep "x <= thr" equivalent to the intended partition even
                # when the midpoint rounds up onto the larger value
                thr = np.where(thr >= distinct[1:], distinct[:-1], thr)
            else:
                xs = np.sort(col)
                n = xs.size
                positions = (np.arange(1, self.n_bins) * n) // self.n_bins
                cuts = np.unique(xs[positions])
                edges = []
                for cut in cuts:
                    i = int(np.searchsorted(distinct, cut))
                    if i == 0:
                        continue
                    lo, hi = distinct[i - 1], distinct[i]
                    t = 0.5 * (lo + hi)
                    if t >= hi:
                        t = lo
                    edges.append(t)
                thr = np.unique(np.asarray(edges, dtype=np.float64))
            self.thresholds.append(thr)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        binned = np.empty(X.shape, dtype=np.int32)
        for j, thr in enumerate(self.thresholds):
            binned[:, j] = np.searchsorted(thr, X[:, j], side="left")
        return binned


@dataclass
class _Leaf:
    node_id: int
    rows: np.ndarray
    depth: int
    cnt: np.ndarray
    sums: np.ndarray
    split_feature: int
    split_bin: int
    gain: float


class _HistTreeBuilder:
    def __init__(
        self,
        X: np.ndarray,
        binned: np.ndarray,
        thresholds: list[np.ndarray],
        n_bins: int,
        *,
        max_depth: int | None,
        min_samples_leaf: int,
        max_leaves: int,
    ):
        self.X = X
        self.binned = binned
        self.thresholds = thresholds
        self.n_bins = n_bins
        self.max_depth = max_depth
        self.min_leaf = min_samples_leaf
        self.max_leaves = max(2, max_leaves)
        d = binned.shape[1]
        self.offsets = (np.arange(d, dtype=np.int32) * n_bins)[None, :]
        # bin b is a usable cut for feature f only if threshold b exists
        self.cut_ok = np.zeros((d, n_bins - 1), dtype=bool)
        for f, thr in enumerate(thresholds):
            self.cut_ok[f, : thr.size] = True

    def _hist(self, rows: np.ndarray, resid: np.ndarray):
        d = self.binned.shape[1]
        flat = (self.binned[rows] + self.offsets).ravel()
        size = d * self.n_bins
        cnt = np.bincount(flat, minlength=size).reshape(d, self.n_bins)
        sums = np.bincount(
            flat, weights=np.repeat(resid[rows], d), minlength=size
        ).reshape(d, self.n_bins)
        return cnt.astype(np.float64), sums

    def _best(self, cnt: np.ndarray, sums: np.ndarray, m: int, total: float):
        """Best (feature, bin, gain) by absolute SSE reduction, or None."""
        cum_n = np.cumsum(cnt, axis=1)[:, :-1]
        cum_s = np.cumsum(sums, axis=1)[:, :-1]
        nr = m - cum_n
        valid = self.cut_ok & (cum_n >= self.min_leaf) & (nr >= self.min_leaf)
        nl_safe = np.maximum(cum_n, 1.0)
        nr_safe = np.maximum(nr, 1.0)
        sr = total - cum_s
        gains = cum_s * cum_s / nl_safe + sr * sr / nr_safe - total * total / m
        gains = np.where(valid, gains, -np.inf)
        flat_idx = int(np.argmax(gains))
        f, b = divmod(flat_idx, gains.shape[1])
        gain = float(gains.flat[flat_idx])
        if not gain > 0.0:
            return None
        return f, b, gain

    def _make_leaf(self, growth: _Growth, rows: np.ndarray, depth: int, resid: np.ndarray) -> _Leaf:
        node_id = growth.add()
        growth.value[node_id] = float(resid[rows].mean())
        cnt, sums = self._hist(rows, resid)
        return self._with_split(_Leaf(node_id, rows, depth, cnt, sums, -1, -1, 0.0), resid)

    def _with_split(self, leaf: _Leaf, resid: np.ndarray) -> _Leaf:
        exhausted = self.max_depth is not None and leaf.depth >= self.max_depth
        if not exhausted and leaf.rows.size >= 2 * self.min_leaf:
            total = float(resid[leaf.rows].sum())  # canonical node total
            best = self._best(leaf.cnt, leaf.sums, leaf.rows.size, total)
            if best is not None:
                leaf.split_feature, leaf.split_bin, leaf.gain = best
        return leaf

    def grow(self, resid: np.ndarray, root_rows: np.ndarray) -> TreeNodes:
        growth = _Growth()
        root = self._make_leaf(growth, root_rows, 0, resid)
        heap: list[tuple[float, int, _Leaf]] = []
        counter = 0
        if root.gain > 0.0:
            heapq.heappush(heap, (-root.gain, counter, root))
        n_leaves = 1
        while heap and n_leaves < self.max_leaves:
            _, _, leaf = heapq.heappop(heap)
            f, b = leaf.split_feature, leaf.split_bin
            go_left = self.binned[leaf.rows, f] <= b
            rows_l = leaf.rows[go_left]
            rows_r = leaf.rows[~go_left]

            left = self._make_leaf(growth, rows_l, leaf.depth + 1, resid)
            right = self._make_leaf(growth, rows_r, leaf.depth + 1, resid)

            # record the cut as the midpoint between the adjacent observed
            # values, like the exact search (the empty bin gap between a
            # boundary and the node's values carries no information)
            lo = float(self.X[rows_l, f].max())
            hi = float(self.X[rows_r, f].min())
            thr = 0.5 * (lo + hi)
            if thr >= hi:
                thr = lo
            growth.feature[leaf.node_id] = f
            growth.threshold[leaf.node_id] = thr
            growth.left[leaf.node_id] = left.node_id
            growth.right[leaf.node_id] = right.node_id

            for child in (left, right):
                if child.gain > 0.0:
                    counter += 1
                    heapq.heappush(heap, (-child.gain, counter, child))
            n_leaves += 1
        return growth.finish()


class HistGradientBoosting(Boosting):
    """Gradient boosting over binned features with leaf-wise trees."""

    kind = "hist_gradient_boosting"

    def _round_grower(self, X: np.ndarray) -> RoundGrower:
        p = self.params
        mapper = _BinMapper(p.n_bins).fit(X)
        builder = _HistTreeBuilder(
            X,
            mapper.transform(X),
            mapper.thresholds,
            p.n_bins,
            max_depth=p.max_depth,
            min_samples_leaf=p.min_samples_leaf,
            max_leaves=p.max_leaves,
        )
        n = X.shape[0]
        all_rows = np.arange(n, dtype=np.intp)

        def grow(residual: np.ndarray, m: int) -> TreeNodes:
            if p.subsample < 1.0:
                rows = subsample_rows(n, p.subsample, derived_rng(p.seed, m))
            else:
                rows = all_rows
            return builder.grow(residual, rows)

        return grow
