"""Partition extraction from converged slacks and group-level refitting."""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import wccreg.admm as admm
from .penalty import column_norms
from .types import Dataset, FitResult, Partition


def extract_partition(fit: FitResult, zero_tol: float = 1e-6) -> Partition:
    """Group locations whose pairwise slack vanished, closing transitively.

    Every pair with ``||zeta_ij|| <= zero_tol`` is an edge; groups are the
    connected components, labelled 0..K-1 in order of first appearance.  The
    proximal map produces exact zeros, so the tolerance only absorbs float
    noise.
    """
    if zero_tol < 0:
        raise ValueError("zero_tol must be nonnegative")
    m = fit.beta.shape[0]
    pairs = admm.build_pair_index(m)
    fused = column_norms(fit.zeta) <= zero_tol
    graph = coo_matrix((np.ones(int(fused.sum())), (pairs.i_idx[fused], pairs.j_idx[fused])),
                       shape=(m, m))
    K, components = connected_components(graph, directed=False)
    # relabel so that labels follow the first appearance of each component
    _, first = np.unique(components, return_index=True)
    rank = np.empty(K, dtype=int)
    rank[np.argsort(first)] = np.arange(K)
    labels = rank[components]
    sizes = np.bincount(labels, minlength=K)
    alpha = group_estimates(fit.beta, labels, K)
    return Partition(assignment=labels, K_hat=K, alpha=alpha, group_sizes=sizes)


def group_estimates(beta: np.ndarray, assignment: np.ndarray, K: Optional[int] = None) -> np.ndarray:
    """Unweighted mean of the member coefficient rows, one row per group."""
    beta = np.atleast_2d(beta)
    assignment = np.asarray(assignment, dtype=int)
    if K is None:
        K = int(assignment.max()) + 1
    alpha = np.zeros((K, beta.shape[1]))
    counts = np.bincount(assignment, minlength=K).astype(float)
    np.add.at(alpha, assignment, beta)
    return alpha / counts[:, None]


def location_estimates(partition: Partition) -> np.ndarray:
    """Per-location coefficients implied by the partition: alpha of its group."""
    return partition.alpha[partition.assignment]


def refit_oracle(data: Dataset, partition: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Weighted least squares with coefficients tied inside each group.

    Minimizes the weighted loss over (eta, alpha) with every location's
    coefficients replaced by its group's; this is the estimator one would
    compute if the grouping were known in advance.  The collapsed system is
    the coefficient update's on group-summed blocks with no fusion term, so it
    takes the same structured solve; eta is profiled out as in ``eta_update``.
    """
    if partition.m != data.m:
        raise ValueError("partition size does not match dataset")
    bundle = admm.prepared(data)
    K, p, q = partition.K_hat, data.p, data.q
    labels = partition.assignment
    # the collapsed normal equations: per-location blocks summed within groups
    XtWX = np.zeros((K, p, p))
    XtWy = np.zeros((K, p))
    XtWZ = np.zeros((K, p, q))
    np.add.at(XtWX, labels, bundle.XtWX)
    np.add.at(XtWy, labels, bundle.XtWy)
    np.add.at(XtWZ, labels, bundle.XtWZ)
    rhs = XtWy.reshape(-1)
    if q > 0:
        rhs = rhs - XtWZ.reshape(K * p, q) @ admm.cho_solve(bundle.gz_factor, bundle.ZtWy)
    factor = admm._structured_factor(XtWX, XtWZ, bundle.ZtWZ, bundle.gz_factor, 0.0,
                                     "collapsed normal matrix")
    alpha = admm._structured_solve(factor, rhs)
    return bundle.eta_update(alpha[labels]), alpha
