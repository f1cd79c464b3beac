"""Partition agreement of two label arrays, and the RMSE of two (m, p) coefficient arrays."""

from __future__ import annotations

import warnings

import numpy as np

from .types import _readonly


def rand_index_counts(p1, p2) -> tuple[int, int, int, int]:
    """Pair-decision counts (TP, TN, FP, FN) by direct pair enumeration.

    TP: same group in both; TN: different in both; FP: different in ``p1``
    but co-clustered in ``p2``; FN: co-grouped in ``p1`` but split in ``p2``.
    Kept as the O(m^2) reference path; the ARI below uses the equivalent
    contingency-table computation.
    """
    a, b = np.asarray(p1, dtype=int), np.asarray(p2, dtype=int)
    if a.shape != b.shape:
        raise ValueError("partitions cover different location sets")
    same1 = a[:, None] == a[None, :]
    same2 = b[:, None] == b[None, :]
    iu = np.triu_indices(a.size, k=1)
    s1, s2 = same1[iu], same2[iu]
    tp = int(np.sum(s1 & s2))
    tn = int(np.sum(~s1 & ~s2))
    fn = int(np.sum(s1 & ~s2))
    fp = int(np.sum(~s1 & s2))
    return tp, tn, fp, fn


def adjusted_rand_index(p1, p2) -> float:
    """Chance-corrected pair agreement via the contingency table.

    1 for identical partitions; 0 in expectation under random labelings; may
    be negative in general (not clamped).  When the chance correction is
    degenerate (both partitions all-singletons or both one-group) the
    partitions are identical, so it returns 1, with a warning.
    """
    a, b = np.asarray(p1, dtype=int), np.asarray(p2, dtype=int)
    if a.shape != b.shape:
        raise ValueError("partitions cover different location sets")
    n = a.size
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def comb2(x):
        return x * (x - 1) // 2

    index = int(comb2(table).sum())
    sum_a = int(comb2(table.sum(axis=1)).sum())
    sum_b = int(comb2(table.sum(axis=0)).sum())
    total = comb2(n)
    if total == 0:
        return 1.0
    expected = sum_a * sum_b / total
    maximum = 0.5 * (sum_a + sum_b)
    denom = maximum - expected
    if denom == 0.0:
        # with a = sum_a/total and b = sum_b/total in [0, 1], denom = 0 means
        # a + b = 2ab, i.e. a(1 - b) + b(1 - a) = 0: a = b = 0 (both all
        # singletons) or a = b = 1 (both one group), so the partitions match
        warnings.warn("degenerate chance correction; reporting exact-match indicator")
        return 1.0
    return float((index - expected) / denom)


def rmse_beta(beta_hat: np.ndarray, beta_true: np.ndarray) -> float:
    """Root of the average squared row-wise error of two (m, p) coefficient arrays.

    (m, 1) columns give the RMSE of scalar per-location estimates (mean model).
    """
    bh, bt = _readonly(beta_hat, 2, "beta_hat"), _readonly(beta_true, 2, "beta_true")
    if bh.shape != bt.shape:
        raise ValueError("shape mismatch")
    return float(np.sqrt(np.mean(np.sum((bh - bt) ** 2, axis=1))))
