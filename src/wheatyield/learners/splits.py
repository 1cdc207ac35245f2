"""Split search for regression trees.

Both searchers score candidate splits by weighted variance reduction,
computed from partition sums of the (node-centered) target:

    reduction = (S_l^2/n_l + S_r^2/n_r - S^2/n) / n

which equals var(node) - [n_l/n var(left) + n_r/n var(right)]. Ties break
toward the lowest feature index, then the lowest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    gain: float


def _exact_search(Xn: np.ndarray, yn: np.ndarray, feat_ids: np.ndarray, min_leaf: int) -> Split | None:
    """Exhaustive search over midpoints of consecutive distinct values.

    Xn is the node submatrix (rows x selected features); feat_ids maps its
    columns back to original feature indices and must be ascending.
    """
    m, k = Xn.shape
    if m < 2 or m < 2 * min_leaf or k == 0:
        return None
    yc = yn - yn.mean()
    order = np.argsort(Xn.T, axis=1, kind="stable")
    xs = np.take_along_axis(Xn.T, order, axis=1)
    return _sorted_search(xs, yc[order], yc.sum(), feat_ids, min_leaf)


def _sorted_search(
    xs: np.ndarray, ys: np.ndarray, total: float, feat_ids: np.ndarray, min_leaf: int
) -> Split | None:
    """The scan of :func:`_exact_search` over a node already sorted.

    Row j of xs holds feature feat_ids[j]'s node values in ascending
    order (a stable sort), and row j of ys the node-centered targets in
    that same order. total is the centered node sum taken in node-row order:
    one canonical total shared by every feature, so equal partitions found
    through different features score bit-identically and ties resolve by
    the feature-index rule rather than accumulation noise. The node must
    hold at least max(2, 2 * min_leaf) rows.
    """
    k, m = xs.shape
    # candidate i cuts after sorted position i; min_leaf bounds it to [lo, hi)
    leaf = max(min_leaf, 1)
    lo, hi = leaf - 1, m - leaf
    sl = np.cumsum(ys[:, :hi], axis=1)[:, lo:]
    nl = np.arange(lo + 1, hi + 1, dtype=np.float64)
    nr = m - nl
    # gains = (sl^2/nl + sr^2/nr - total^2/m) / m, evaluated in place
    gains = sl * sl
    gains /= nl
    sr = total - sl
    sr *= sr
    sr /= nr
    gains += sr
    gains -= total * total / m
    gains /= m
    valid = xs[:, lo + 1 : hi + 1] > xs[:, lo:hi]
    np.copyto(gains, -np.inf, where=~valid)

    per_col_row = np.argmax(gains, axis=1)
    per_col_gain = gains[np.arange(k), per_col_row]
    col = int(np.argmax(per_col_gain))
    gain = float(per_col_gain[col])
    if not gain > 0.0:
        return None
    row = lo + int(per_col_row[col])
    below, above = float(xs[col, row]), float(xs[col, row + 1])
    threshold = 0.5 * (below + above)
    if threshold >= above:  # midpoint rounded up; keep "x <= thr" consistent
        threshold = below
    return Split(int(feat_ids[col]), threshold, gain)


def _random_search(
    Xn: np.ndarray,
    yn: np.ndarray,
    feat_ids: np.ndarray,
    min_leaf: int,
    rng: np.random.Generator,
) -> Split | None:
    """Extremely-randomized search: one uniform threshold per feature,
    drawn between the node's min and max, best candidate kept."""
    m, k = Xn.shape
    if m < 2 or m < 2 * min_leaf or k == 0:
        return None
    lo = Xn.min(axis=0)
    hi = Xn.max(axis=0)
    usable = hi > lo
    if not usable.any():
        return None
    thresholds = rng.uniform(lo, np.where(usable, hi, lo + 1.0))

    yc = yn - yn.mean()
    total = yc.sum()
    left = Xn <= thresholds[None, :]
    nl = left.sum(axis=0).astype(np.float64)
    sl = yc @ left
    nr = m - nl
    sr = total - sl
    valid = usable & (nl >= min_leaf) & (nr >= min_leaf)
    safe_nl = np.maximum(nl, 1.0)
    safe_nr = np.maximum(nr, 1.0)
    gains = (sl * sl / safe_nl + sr * sr / safe_nr - total * total / m) / m
    gains = np.where(valid, gains, -np.inf)

    col = int(np.argmax(gains))
    gain = float(gains[col])
    if not gain > 0.0:
        return None
    return Split(int(feat_ids[col]), float(thresholds[col]), gain)


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    row_subset: np.ndarray | None = None,
    feature_subset: np.ndarray | None = None,
    min_samples_leaf: int = 1,
) -> Split | None:
    """Best exact split of ``X[row_subset]`` over ``feature_subset``.

    Candidates are midpoints between consecutive distinct sorted values of
    each feature; returns None when no candidate reduces variance.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    rows = (
        np.arange(X.shape[0], dtype=np.intp)
        if row_subset is None
        else np.asarray(row_subset, dtype=np.intp)
    )
    feats = (
        np.arange(X.shape[1], dtype=np.intp)
        if feature_subset is None
        else np.sort(np.asarray(feature_subset, dtype=np.intp))
    )
    if rows.size < 2 or feats.size == 0:
        return None
    return _exact_search(X[np.ix_(rows, feats)], y[rows], feats, min_samples_leaf)
