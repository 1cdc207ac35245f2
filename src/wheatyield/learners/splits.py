"""Split search for regression trees.

Every search (the exact scan and extra-trees here, hist-GB in
``histboost``) lets a node search when :func:`can_split` holds and scores
a cut by :func:`reduction` of the (node-centered) target's partition sums:

    reduction = S_l^2/n_l + S_r^2/n_r - S^2/n

Over n (exact and extra-trees) it is var(node) - [n_l/n var(left) +
n_r/n var(right)]; hist-GB ranks by the drop itself. Ties break toward the
lowest feature index, then the lowest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    gain: float


def presort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Code X once per fit: ``(order, ranks)``, both (d, n) matrices.

    order holds X's row ids sorted stably by each column. ranks holds the
    columns' dense ranks, in the smallest unsigned dtype that holds n - 1:
    equal values get equal ranks and ranks keep the values' order, so a
    stable argsort of any row subset of the ranks equals a stable argsort of
    the same rows of X; numpy radix-sorts 8- and 16-bit keys.
    """
    order = np.argsort(X.T, axis=1, kind="stable")
    d, n = order.shape
    xs = np.take_along_axis(X.T, order, axis=1)
    dtype = np.min_scalar_type(max(n - 1, 0))
    sorted_ranks = np.zeros((d, n), dtype=dtype)
    np.cumsum(xs[:, 1:] != xs[:, :-1], axis=1, dtype=dtype, out=sorted_ranks[:, 1:])
    ranks = np.empty_like(sorted_ranks)
    np.put_along_axis(ranks, order, sorted_ranks, axis=1)
    return order, ranks


def can_split(m: int, min_leaf: int) -> bool:
    """Whether a node of m rows may search: a cut leaves max(1, min_leaf) rows a side."""
    return m >= max(2, 2 * min_leaf)


def reduction(sl, nl, total, m):
    """Squared-error drop of cutting m rows (sum total) into nl rows (sum sl) and the rest."""
    sr = total - sl
    return sl * sl / nl + sr * sr / (m - nl) - total * total / m


def midpoint(lo, hi):
    """Cut between sorted neighbours lo < hi: their midpoint, or lo when the
    midpoint rounds up onto hi, so that "x <= cut" still separates them."""
    mid = 0.5 * (lo + hi)
    return np.where(mid >= hi, lo, mid)


# one block of the exact scan gathers about this many (feature, row) cells,
# so that the block's working arrays stay in a core's L2 cache
_BLOCK_CELLS = 32768


def _sorted_search(
    X: np.ndarray,
    ranks: np.ndarray,
    y: np.ndarray,
    mean: float,
    total: float,
    ids: np.ndarray,
    feat_ids: np.ndarray,
    min_leaf: int,
) -> Split | None:
    """Exhaustive search over midpoints of consecutive distinct values, for
    a node whose rows are already sorted by every candidate feature.

    Row j of ids holds the node's row ids in stable ascending order of
    feature feat_ids[j] (ascending). ranks is a C-contiguous (d, n) matrix
    of integer codes of X's columns that keeps their order and ties (see
    :func:`presort`): two sorted neighbours are a candidate cut
    exactly when their codes differ, so the scan reads codes, not floats.
    X is read only for the winning cut's two neighbours, whose midpoint is
    the threshold.

    The scan centres y's node values by mean. total is the centered node
    sum taken in node-row order: one canonical total shared by every
    feature, so equal partitions found through different features score
    bit-identically and ties resolve by the feature-index rule rather than
    accumulation noise. The node must pass :func:`can_split`.

    Features are scanned in blocks of about ``_BLOCK_CELLS`` cells, and
    gains are computed only at cuts. Each gain is the same per-cell
    arithmetic over the same prefix sums, and the first maximum in
    (feature, candidate) order wins, so neither changes a bit.
    """
    k, m = ids.shape
    # candidate i cuts after sorted position i; min_leaf bounds it to [lo, hi)
    leaf = max(min_leaf, 1)
    lo, hi = leaf - 1, m - leaf
    nl = np.arange(lo + 1, hi + 1, dtype=np.float64)
    codes = ranks.ravel()
    n = ranks.shape[1]
    yc = y - mean
    best_gain, best_col, best_pos = -np.inf, -1, -1
    step = max(1, _BLOCK_CELLS // m)
    for a in range(0, k, step):
        block = ids[a : a + step]
        sums = np.cumsum(yc.take(block[:, :hi]), axis=1)
        rs = codes.take(block + (feat_ids[a : a + step] * n)[:, None])
        # flat (column, candidate) ids of the cuts between distinct values
        cuts = np.flatnonzero(rs[:, lo + 1 : hi + 1] > rs[:, lo:hi])
        if cuts.size == 0:
            continue
        col, cand = np.divmod(cuts, hi - lo)
        gains = reduction(sums.take(cuts + lo * (col + 1)), nl.take(cand), total, m) / m
        # the first maximum in (column, candidate) order, and a later block
        # only when strictly better: the lowest feature, then threshold, wins
        i = int(np.argmax(gains))
        if gains[i] > best_gain:
            best_gain, best_col, best_pos = float(gains[i]), a + int(col[i]), lo + int(cand[i])

    if not best_gain > 0.0:
        return None
    feature = int(feat_ids[best_col])
    below = float(X[ids[best_col, best_pos], feature])
    above = float(X[ids[best_col, best_pos + 1], feature])
    return Split(feature, float(midpoint(below, above)), best_gain)


def _random_search(
    Xn: np.ndarray,
    yn: np.ndarray,
    mean: float,
    total: float,
    feat_ids: np.ndarray,
    min_leaf: int,
    rng: np.random.Generator,
) -> Split | None:
    """Extremely-randomized search: one uniform threshold per feature,
    drawn between the node's min and max, best candidate kept. mean and
    total are the node's, as for :func:`_sorted_search`."""
    m = Xn.shape[0]
    lo = Xn.min(axis=0)
    hi = Xn.max(axis=0)
    usable = hi > lo
    if not usable.any():
        return None
    thresholds = rng.uniform(lo, np.where(usable, hi, lo + 1.0))

    left = Xn <= thresholds[None, :]
    nl = left.sum(axis=0).astype(np.float64)
    sl = (yn - mean) @ left
    # only draws that leave min_leaf rows on each side are scored
    valid = np.flatnonzero(usable & (nl >= min_leaf) & (m - nl >= min_leaf))
    if valid.size == 0:
        return None
    gains = reduction(sl[valid], nl[valid], total, m) / m

    i = int(np.argmax(gains))
    gain = float(gains[i])
    if not gain > 0.0:
        return None
    col = valid[i]
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
    if not can_split(rows.size, min_samples_leaf) or feats.size == 0:
        return None
    Xr, yr = X[rows], y[rows]
    order, ranks = presort(Xr)
    mean = yr.mean()
    return _sorted_search(
        Xr, ranks, yr, mean, (yr - mean).sum(), order[feats], feats, min_samples_leaf
    )
