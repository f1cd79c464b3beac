"""Partition extraction from converged slacks and group-level refitting."""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg import cho_solve
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import wccreg.admm as admm
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
    fused = np.linalg.norm(fit.zeta, axis=0) <= zero_tol
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


def _collapsed_design(data: Dataset, assignment: np.ndarray, K: int) -> np.ndarray:
    """Design tying each location's local block to its group columns."""
    cols = data.q + K * data.p
    C = np.zeros((sum(b.n for b in data.locations), cols))
    start = 0
    for i, block in enumerate(data.locations):
        stop = start + block.n
        if data.q > 0:
            C[start:stop, :data.q] = block.Z
        k = int(assignment[i])
        off = data.q + k * data.p
        C[start:stop, off:off + data.p] = block.X
        start = stop
    return C


def refit_oracle(data: Dataset, partition: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Weighted least squares with coefficients tied inside each group.

    Minimizes the weighted loss over (eta, alpha) with every location's
    coefficients replaced by its group's; this is the estimator one would
    compute if the grouping were known in advance.
    """
    if partition.m != data.m:
        raise ValueError("partition size does not match dataset")
    K = partition.K_hat
    C = _collapsed_design(data, partition.assignment, K)
    w = np.concatenate([admm.composite_weights(b) for b in data.locations])
    y = np.concatenate([b.y for b in data.locations])
    G = C.T @ (w[:, None] * C)
    rhs = C.T @ (w * y)
    sol = cho_solve(admm._factor_spd(G, "collapsed normal matrix"), rhs)
    eta = sol[:data.q]
    alpha = sol[data.q:].reshape(K, data.p)
    return eta, alpha


def score_gradient(data: Dataset, partition: Partition, eta: np.ndarray,
                   alpha: np.ndarray) -> np.ndarray:
    """Gradient of the weighted loss in (eta, alpha) at the tied coefficients.

    Vanishes (to solver precision) at the refit_oracle output; used to verify
    that the refit solves the weighted estimating equations.
    """
    K = np.atleast_2d(alpha).shape[0]
    C = _collapsed_design(data, partition.assignment, K)
    w = np.concatenate([admm.composite_weights(b) for b in data.locations])
    y = np.concatenate([b.y for b in data.locations])
    theta = np.concatenate([np.atleast_1d(eta), np.atleast_2d(alpha).reshape(-1)])
    resid = y - C @ theta
    return -C.T @ (w * resid)
