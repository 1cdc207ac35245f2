"""Histogram-based gradient boosting with leaf-wise tree growth.

Features are binned once per fit from the ranks of ``splits.presort``:
a value's bin counts its feature's cut ranks at or below its rank. With at
most n_bins distinct values a feature cuts before every rank but the
first, so its bins are its ranks; otherwise it cuts at equal-frequency
positions. A split's threshold is the ``splits.midpoint`` of the node's
values either side of the cut. Trees grow leaf-wise: the leaf whose
best split removes the most squared error is expanded first, until
max_leaves is reached or no leaf can improve. A node's residual-sum
histogram is one vectorized bincount over all features, so each tree level
costs one pass over the node's rows. Only the smaller child of a split
bins its counts; the larger child's are the parent's minus those, exact
for integers.

Fitted trees store real-valued thresholds, so the boosting loop and its
row samples are those of :class:`boosting.Boosting` and prediction and
serialization those of :class:`tree.TreeEnsemble`. The bins are fixed per
fit, so a round grows on its sample's row ids, not on a copy.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .boosting import Boosting, RoundGrower
from .splits import can_split, midpoint, presort, reduction
from .tree import TreeNodes, _Growth


def bin_features(
    n_bins: int, presorted: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram codes of X from ``presorted = splits.presort(X)``: an
    (n, d) matrix of bins, and each column's number of cuts.

    A column with k distinct values cuts before every rank but 0 when
    k <= n_bins, so its bins are its ranks 0..k-1. Otherwise it cuts before
    the distinct ranks found at equal-frequency positions, rank 0 excepted.
    A value's bin is the number of cuts at or below its rank.
    """
    order, ranks = presorted
    d, n = ranks.shape
    # a position is below n, so an n_bins far above the row count sizes nothing
    positions = np.arange(1, min(n_bins, n)) * n // n_bins
    is_cut = np.zeros((d, n), dtype=bool)
    np.put_along_axis(is_cut, np.take_along_axis(ranks, order[:, positions], axis=1), True, axis=1)
    # no value has a rank past k - 1, so those cuts count for no bin
    is_cut[ranks.max(axis=1, initial=0).astype(np.intp) < n_bins] = True
    is_cut[:, 0] = False
    binned = np.take_along_axis(np.cumsum(is_cut, axis=1, dtype=ranks.dtype), ranks, axis=1)
    return np.ascontiguousarray(binned.T), binned.max(axis=1, initial=0)


@dataclass
class _Leaf:
    node_id: int
    rows: np.ndarray
    depth: int
    cnt: np.ndarray | None = None
    sums: np.ndarray | None = None
    split_feature: int = -1
    split_bin: int = -1
    gain: float = 0.0


class _HistTreeBuilder:
    def __init__(
        self,
        X: np.ndarray,
        binned: np.ndarray,
        n_cuts: np.ndarray,
        *,
        max_depth: int | None,
        min_samples_leaf: int,
        max_leaves: int,
    ):
        self.X = X
        self.binned = binned
        self.max_depth = max_depth
        self.min_leaf = min_samples_leaf
        self.max_leaves = max_leaves
        d = binned.shape[1]
        # feature f has n_cuts[f] + 1 bins, so the widest feature sets the
        # histogram width; n_bins may be far wider than the data
        self.width = max(2, 1 + int(n_cuts.max(initial=0)))
        # flat histogram cell of every (row, feature), computed once per fit
        self.codes = binned + np.arange(d, dtype=np.intp) * self.width
        # bin b is a usable cut for feature f only if f cuts after bin b
        self.cut_ok = np.arange(self.width - 1) < n_cuts[:, None]

    def _best(self, cnt: np.ndarray, sums: np.ndarray, m: int, total: float):
        """Best (feature, bin, gain) by absolute SSE reduction, or None."""
        cum_n = np.cumsum(cnt, axis=1)[:, :-1]
        cum_s = np.cumsum(sums, axis=1)[:, :-1]
        # flat (feature, bin) ids of the usable cuts; both sides hold rows,
        # so the gains below divide by nonzero counts
        cuts = np.flatnonzero(self.cut_ok & (cum_n >= self.min_leaf) & (m - cum_n >= self.min_leaf))
        if cuts.size == 0:
            return None
        gains = reduction(cum_s.take(cuts), cum_n.take(cuts), total, m)
        i = int(np.argmax(gains))  # the first best in (feature, bin) order
        gain = float(gains[i])
        if not gain > 0.0:
            return None
        f, b = divmod(int(cuts[i]), self.width - 1)
        return f, b, gain

    def _fill(self, growth: _Growth, leaf: _Leaf, resid: np.ndarray, cnt: np.ndarray | None):
        """Set leaf's value and histograms, then its best split.

        The counts are binned unless cnt gives them; the residual sums
        are always binned, in node-row order.
        """
        growth.value[leaf.node_id] = float(resid[leaf.rows].mean())
        d = self.codes.shape[1]
        size = d * self.width
        flat = self.codes[leaf.rows].ravel()
        if cnt is None:
            cnt = np.bincount(flat, minlength=size).reshape(d, self.width).astype(np.float64)
        leaf.cnt = cnt
        leaf.sums = np.bincount(
            flat, weights=np.repeat(resid[leaf.rows], d), minlength=size
        ).reshape(d, self.width)
        exhausted = self.max_depth is not None and leaf.depth >= self.max_depth
        if not exhausted and can_split(leaf.rows.size, self.min_leaf):
            total = float(resid[leaf.rows].sum())  # canonical node total
            best = self._best(leaf.cnt, leaf.sums, leaf.rows.size, total)
            if best is not None:
                leaf.split_feature, leaf.split_bin, leaf.gain = best

    def grow(self, resid: np.ndarray, root_rows: np.ndarray) -> TreeNodes:
        growth = _Growth()
        root = _Leaf(growth.add(), root_rows, 0)
        self._fill(growth, root, resid, None)
        # equal gains pop in node-id order, the order the leaves were made
        heap: list[tuple[float, int, _Leaf]] = []
        if root.gain > 0.0:
            heapq.heappush(heap, (-root.gain, root.node_id, root))
        n_leaves = 1
        while heap and n_leaves < self.max_leaves:
            _, _, leaf = heapq.heappop(heap)
            f, b = leaf.split_feature, leaf.split_bin
            go_left = self.binned[leaf.rows, f] <= b
            rows_l = leaf.rows[go_left]
            rows_r = leaf.rows[~go_left]

            left = _Leaf(growth.add(), rows_l, leaf.depth + 1)
            right = _Leaf(growth.add(), rows_r, leaf.depth + 1)
            # bin the smaller child's counts; the larger's are the parent's
            # minus those, which is exact because counts are integers
            small, large = (left, right) if rows_l.size <= rows_r.size else (right, left)
            self._fill(growth, small, resid, None)
            self._fill(growth, large, resid, leaf.cnt - small.cnt)

            # record the cut as the midpoint between the adjacent observed
            # values, like the exact search (the empty bin gap between a
            # boundary and the node's values carries no information)
            growth.feature[leaf.node_id] = f
            growth.threshold[leaf.node_id] = float(
                midpoint(self.X[rows_l, f].max(), self.X[rows_r, f].min())
            )
            growth.left[leaf.node_id] = left.node_id
            growth.right[leaf.node_id] = right.node_id

            for child in (left, right):
                if child.gain > 0.0:
                    heapq.heappush(heap, (-child.gain, child.node_id, child))
            n_leaves += 1
        return growth.finish()


class HistGradientBoosting(Boosting):
    """Gradient boosting over binned features with leaf-wise trees."""

    kind = "hist_gradient_boosting"

    def _round_grower(self, X: np.ndarray) -> RoundGrower:
        p = self.params
        binned, n_cuts = bin_features(p.n_bins, presort(X))
        builder = _HistTreeBuilder(
            X,
            binned,
            n_cuts,
            max_depth=p.max_depth,
            min_samples_leaf=p.min_samples_leaf,
            max_leaves=p.max_leaves,
        )
        all_rows = np.arange(X.shape[0], dtype=np.intp)
        return lambda resid, rows, rng: builder.grow(resid, all_rows if rows is None else rows)
