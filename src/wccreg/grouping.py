"""Partition extraction from converged slacks and group-level refitting."""

from __future__ import annotations

import numpy as np

import wccreg.admm as admm
from .penalty import column_norms
from .types import Dataset, FitResult, Partition, ValidationError, _readonly

# default slack norm at or below which a pair counts as fused
ZERO_TOL = 1e-6


def check_zero_tol(zero_tol: float) -> None:
    """Reject a negative or NaN fused-pair tolerance."""
    if not zero_tol >= 0:
        raise ValidationError(f"zero_tol must be nonnegative, got {zero_tol}")


def extract_partition(fit: FitResult, zero_tol: float = ZERO_TOL) -> Partition:
    """Group locations whose pairwise slack vanished, closing transitively.

    Every pair with ``||zeta_ij|| <= zero_tol`` is an edge; groups are the
    connected components, labelled 0..K-1 in order of first appearance.  The
    proximal map produces exact zeros, so the tolerance only absorbs float
    noise.

    Components are found by min-label propagation: each location points to a
    root, at first itself, and each edge joins two roots.  Every round hooks
    the larger root of each edge to the smaller (``np.minimum.at`` both ways),
    jumps pointers (``root = root[root]``) until every location points
    straight at its root, then moves each edge to its ends' roots and drops
    the edges inside one root.  Rounds repeat until no edge is left.  The root
    of a component is then its smallest location index, so sorting the
    distinct roots orders the groups by first appearance.  When every pair is
    fused (at the fusing end of a lambda path, and at m = 1) the one group is
    returned directly, equal to what the propagation would give.
    """
    check_zero_tol(zero_tol)
    m = fit.beta.shape[0]
    fused = column_norms(fit.zeta) <= zero_tol
    if fused.all():
        labels = np.zeros(m, dtype=np.intp)
        return Partition(assignment=labels, alpha=group_estimates(fit.beta, labels))
    pairs = admm.build_pair_index(m)
    # edges between roots; at first every location is its own root
    a, b = pairs.i_idx[fused], pairs.j_idx[fused]
    root = np.arange(m)
    while a.size:
        np.minimum.at(root, a, b)
        np.minimum.at(root, b, a)
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]
        a = root[a]
        b = root[b]
        apart = a != b
        a, b = a[apart], b[apart]
    labels = np.unique(root, return_inverse=True)[1]
    return Partition(assignment=labels, alpha=group_estimates(fit.beta, labels))


def group_estimates(beta: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Unweighted mean of the member rows of ``beta`` (m, p), one row per label 0..max."""
    beta = _readonly(beta, 2, "beta")
    assignment = np.asarray(assignment, dtype=int)
    counts = np.bincount(assignment).astype(float)
    alpha = np.zeros((counts.size, beta.shape[1]))
    np.add.at(alpha, assignment, beta)
    return alpha / counts[:, None]


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
    # the collapsed normal equations: per-location blocks summed within groups;
    # the right side X'Qy is linear in the blocks, so its group sums are the
    # collapsed system's, with eta already profiled out
    XtWX = np.zeros((K, p, p))
    XtQy = np.zeros((K, p))
    XtWZ = np.zeros((K, p, q))
    np.add.at(XtWX, labels, bundle.XtWX)
    np.add.at(XtQy, labels, bundle.XtQy.reshape(-1, p))
    np.add.at(XtWZ, labels, bundle.XtWZ)
    factor = admm._structured_factor(XtWX, XtWZ, bundle.ZtWZ, bundle.gz_factor, 0.0,
                                     "collapsed normal matrix")
    alpha = admm._structured_solve(factor, XtQy.reshape(-1))
    return bundle.eta_update(alpha[labels]), alpha
