"""ADMM solver for the survey-weighted fusion objective in the linear model.

The loss is ``0.5 * sum_i N_i^{-1} sum_h pi_ih^{-1} (y - z'eta - x'beta_i)^2``
(an extra ``1/sigma2`` factor per row when known variances are present) plus a
concave penalty on every pairwise difference ``beta_i - beta_j``.  Slack
vectors carry the differences, a proximal map handles the penalty, and the
coefficient update is a solve whose matrix depends only on the sample and on
the augmented weight.  Those pieces are built once per dataset by
:func:`prepared` and shared by every fit on it (the whole lambda path), the
starting point, the loss, the BIC and the group refit; each factor is
computed once per dataset and weight.  The pair structure is kept only as the
index arrays (i, j) of each pair: differences gather over them and their
adjoint scatter-adds over them, so the n_pairs x m incidence matrix is never
formed.  Every pair block (differences, slacks, multipliers) is pair-major,
one column per pair: a contiguous (p, n_pairs) array, the layout
:class:`FitResult` stores.  The shared-covariate coefficient eta is not read
by the coefficient update, so the loop leaves it out and it is computed once,
from the final coefficients.  The update matrix is block diagonal minus a
term of rank q + p and is solved in that form (:func:`_structured_factor`),
so no (mp)^2 array is built and a solve is a few O(m p (p + q)) numpy passes.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular, LinAlgError

from .penalty import ScadSpec, check_prox_compatible, prox_columns, scad_value
from .types import AdmmConfig, Dataset, FitResult, LocationBlock, SingularSystemError, validate

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PairIndex:
    """Lexicographic index of the location pairs (i, j), i < j.

    ``i_idx``/``j_idx`` give the row pair of column l; ``column_of`` maps a
    pair back to its column in the slack/multiplier blocks.
    """

    m: int
    i_idx: np.ndarray
    j_idx: np.ndarray

    @property
    def n_pairs(self) -> int:
        return self.i_idx.size

    def column_of(self, i: int, j: int) -> int:
        if not 0 <= i < j < self.m:
            raise ValueError(f"need 0 <= i < j < m, got ({i}, {j})")
        # pairs (0,1),(0,2),...,(0,m-1),(1,2),... in row-major order
        return i * self.m - i * (i + 1) // 2 + (j - i - 1)


@functools.lru_cache(maxsize=1)
def build_pair_index(m: int) -> PairIndex:
    """The pair index of m locations, built once per m and shared read-only."""
    if m < 1:
        raise ValueError("m must be at least 1")
    i_idx, j_idx = np.triu_indices(m, k=1)
    i_idx.flags.writeable = j_idx.flags.writeable = False
    return PairIndex(m=m, i_idx=i_idx, j_idx=j_idx)


@dataclass
class SolverState:
    """Mutable iterate: coefficients, slacks and multipliers (one column per pair)."""

    beta: np.ndarray          # (m, p)
    zeta: np.ndarray          # (p, n_pairs)
    v: np.ndarray             # (p, n_pairs)


def composite_weights(block: LocationBlock) -> np.ndarray:
    """Per-row loss weights ``1/(N * pi)``, times ``1/sigma2`` when present."""
    w = 1.0 / (block.N * block.pi)
    if block.sigma2 is not None:
        w = w / block.sigma2
    return w


def normalized_weights(block: LocationBlock) -> np.ndarray:
    """Inverse inclusion probabilities normalized to sum to one in the block."""
    w = 1.0 / block.pi
    return w / w.sum()


class _Bundle:
    """Per-dataset precomputations: the blocks of the weighted normal equations
    and the stacked rows that the BIC's residual term reads.

    Built once per dataset by :func:`prepared` and kept with it; it holds
    arrays only, never the dataset itself, so the dataset is freed as soon as
    its last reference goes.  The pairwise difference operator D (row l is
    ``e_i - e_j`` for pair l) acts only through the pair index:
    :meth:`differences` gathers ``D beta`` and :meth:`difference_adjoint`
    scatter-adds ``D'S``.  Both work pair-major, one column per pair: their
    pair blocks are contiguous (p, n_pairs) arrays.  The normal equations are
    kept as per-location blocks plus Z'WZ; no (mp)^2 array is built.
    """

    def __init__(self, data: Dataset):
        m, p, q = data.m, data.p, data.q
        self.m, self.p, self.q = m, p, q
        self.pairs = build_pair_index(m)
        # flat position in an (m, p) block of entry (column k, pair l) of a
        # (p, n_pairs) pair block, stored in that block's order
        cols = np.arange(p)[:, None]
        self._pos_i = (self.pairs.i_idx * p + cols).ravel()
        self._pos_j = (self.pairs.j_idx * p + cols).ravel()

        slices = []
        start = 0
        for b in data.locations:
            slices.append(slice(start, start + b.n))
            start += b.n
        self.slices = slices
        self.n_total = start

        weights = [composite_weights(b) for b in data.locations]
        self.y = np.concatenate([b.y for b in data.locations])
        self.w = np.concatenate(weights)
        self.X_blocks = [b.X for b in data.locations]
        self.X = np.concatenate(self.X_blocks, axis=0)                   # (n_total, p)
        self.Z = np.concatenate([b.Z for b in data.locations], axis=0)   # (n_total, q)
        # the BIC's residual weights: each row's location and its normalized weight
        self.row_location = np.repeat(np.arange(m), [b.n for b in data.locations])
        self.w_norm = np.concatenate([normalized_weights(b) for b in data.locations])

        # block pieces of the weighted normal equations (q may be 0)
        self.XtWX = np.stack([b.X.T @ (w[:, None] * b.X) for b, w in zip(data.locations, weights)])
        self.XtWy = np.stack([b.X.T @ (w * b.y) for b, w in zip(data.locations, weights)])
        self.XtWZ = np.stack([b.X.T @ (w[:, None] * b.Z) for b, w in zip(data.locations, weights)])
        wZ = self.w[:, None] * self.Z
        ZtWZ = self.Z.T @ wZ
        self.ZtWy = self.Z.T @ (self.w * self.y)
        self.ZtW = wZ.T                         # (q, n_total)

        # X'Qy = X'Wy - B (Z'WZ)^{-1} Z'Wy with B = X'WZ stacked
        self.XtQy = self.XtWy.reshape(-1)
        self.ZtWZ, self.gz_factor = ZtWZ, None
        if q > 0:
            def factor_z(tau):
                G = ZtWZ + tau * np.eye(q)
                return G, cho_factor(G, lower=True)
            # Z'WZ is kept as factored, with its jitter if it needed one, so
            # the coefficient update, X'Qy and eta all read the same matrix
            self.ZtWZ, self.gz_factor = _factor_spd(factor_z, lambda: np.trace(ZtWZ), "Z'WZ")
            self.XtQy = self.XtQy - self.XtWZ.reshape(m * p, q) @ cho_solve(self.gz_factor, self.ZtWy)
        self._factors: dict[float, tuple] = {}

    def factor(self, scale: float) -> tuple:
        """Structured factor of X'QX + scale * A'A (A'A = 0 for m = 1), cached per scale."""
        key = float(scale)
        if key not in self._factors:
            scale = key if self.m > 1 else 0.0
            self._factors[key] = _structured_factor(self.XtWX, self.XtWZ, self.ZtWZ, self.gz_factor, scale,
                                                    "coefficient update matrix")
        return self._factors[key]

    def solve_beta(self, scale: float, rhs: np.ndarray) -> np.ndarray:
        return _structured_solve(self.factor(scale), rhs)

    def fitted_local(self, beta: np.ndarray) -> np.ndarray:
        """Stacked ``X_i beta_i`` over all rows."""
        out = np.empty(self.n_total)
        for i, sl in enumerate(self.slices):
            out[sl] = self.X_blocks[i] @ beta[i]
        return out

    def eta_update(self, beta: np.ndarray) -> np.ndarray:
        if self.q == 0:
            return np.zeros(0)
        resid = self.y - self.fitted_local(beta)
        return cho_solve(self.gz_factor, self.ZtW @ resid)

    def beta_rhs(self, zeta: np.ndarray, v: np.ndarray, vartheta: float) -> np.ndarray:
        return self.XtQy + self.difference_adjoint(vartheta * zeta - v).reshape(-1)

    def differences(self, beta: np.ndarray) -> np.ndarray:
        """``(D beta)'`` as a (p, n_pairs) block: column l is ``beta_i - beta_j`` for pair l."""
        flat = beta.reshape(-1)
        return (np.take(flat, self._pos_i) - np.take(flat, self._pos_j)).reshape(self.p, -1)

    def difference_adjoint(self, S: np.ndarray) -> np.ndarray:
        """``D'S'`` for a (p, n_pairs) block: +S_l added at row i, -S_l at row j.

        Entry (k, l) of S goes to flat entry (i_l, k) and (j_l, k) of the
        (m, p) result, added in pair order.
        """
        flat = S.reshape(-1)
        size = self.m * self.p
        return (np.bincount(self._pos_i, flat, size)
                - np.bincount(self._pos_j, flat, size)).reshape(self.m, self.p)


def _factor_spd(factor, trace, what: str):
    """``factor(tau)`` factors a symmetric matrix M plus ``tau I`` by Cholesky:
    ``factor(0.0)``, and if M is not positive definite one retry with
    ``tau = 1e-10 * trace()``, the trace of M; fatal if still singular."""
    hint = "use vartheta > 0 or a positive init_ridge"
    try:
        return factor(0.0)
    except LinAlgError:
        jitter = 1e-10 * trace()
    if jitter <= 0:
        raise SingularSystemError(f"{what} is singular; {hint}")
    try:
        return factor(jitter)
    except LinAlgError:
        raise SingularSystemError(f"{what} is singular even after diagonal jitter; {hint}") from None


def _structured_factor(A: np.ndarray, B: np.ndarray, G: np.ndarray, G_factor, scale: float, what: str) -> tuple:
    """Factor of ``M = blockdiag(A_i) - B G^{-1} B' + scale (k I - J) (x) I_p`` for
    A (k, p, p), B (k, p, q), G (q, q) positive definite with Cholesky factor
    G_factor (None when q = 0), by :func:`_factor_spd`.  ``M + tau I = D - U C U'``
    with ``D = blockdiag(A_i + (scale k + tau) I)``, ``U = [B, sqrt(scale) 1_k (x) I_p]``
    (B at scale 0) and ``C = blockdiag(G^{-1}, I_p)``; its inverse is ``D^{-1} + V V'``
    (Woodbury), ``V = D^{-1} U L_K^{-T}``, L_K the Cholesky factor of ``K = C^{-1} - U'D^{-1}U``.
    As U C U' is positive semidefinite, M + tau I is positive definite exactly when
    D's blocks and K are.  Returns D's inverse Cholesky blocks ((k,) for p = 1) and V'.
    """
    k, p, q = B.shape
    eye = np.eye(p)

    def factor(tau):
        A_tau = A + tau * eye
        Linv = np.linalg.inv(np.linalg.cholesky(A_tau + (scale * k) * eye))
        LinvT = Linv.transpose(0, 2, 1)
        U = B if scale == 0 else np.concatenate([B, np.broadcast_to(np.sqrt(scale) * eye, (k, p, p))], 2)
        DinvU = LinvT @ (Linv @ U)                                   # (k, p, q + p)
        K = -np.einsum("kpa,kpb->ab", U, DinvU)
        K[:q, :q] += G
        if scale > 0:
            # I - scale sum_i D_i^{-1} = (1/k) sum_i (A_i + tau I) D_i^{-1}, summed without cancellation
            K[q:, q:] = np.einsum("kab,kbc->ac", A_tau, LinvT @ Linv) / k
        Vt = solve_triangular(np.linalg.cholesky(0.5 * (K + K.T)), DinvU.reshape(k * p, -1).T, lower=True)
        return (Linv[:, 0, 0].copy() if p == 1 else Linv), Vt

    def trace():
        Bf = B.reshape(k * p, q)
        return (np.einsum("kii->", A) + scale * p * k * (k - 1)
                - (np.sum(Bf.T * cho_solve(G_factor, Bf.T)) if q else 0.0))

    return _factor_spd(factor, trace, what)


def _structured_solve(factor: tuple, rhs: np.ndarray) -> np.ndarray:
    """``M^{-1} rhs`` as (k, p): D^{-1} as two batched products with the inverse
    Cholesky blocks (for p = 1 ``rhs * (1/L) * (1/L)``, like a dense triangular
    solve on a diagonal factor), plus ``V (V' rhs)``."""
    Linv, Vt = factor
    if Linv.ndim == 1:
        x = rhs * Linv * Linv
    else:
        x = np.einsum("kji,kj->ki", Linv, np.einsum("kij,kj->ki", Linv, rhs.reshape(Linv.shape[:2]))).ravel()
    if Vt.size:
        x += np.dot(Vt.T, np.dot(Vt, rhs))
    return x.reshape(Linv.shape[0], -1)


def prepared(data: Dataset) -> _Bundle:
    """The dataset's precomputation: validated and built on first use, then reused.

    It is kept on the dataset instance outside its dataclass fields, so the
    dataset's constructor, equality and repr are unchanged.  Two threads that
    race here each build an equal precomputation, and one of them is kept.
    """
    bundle = vars(data).get("_prepared")
    if bundle is None:
        validate(data)
        bundle = _Bundle(data)
        object.__setattr__(data, "_prepared", bundle)
    return bundle


def initialize(data: Dataset, cfg: AdmmConfig) -> SolverState:
    """Starting point: squared-difference fusion of strength ``init_ridge``.

    The normal matrix is the coefficient-update matrix with the augmented
    weight replaced by ``2 * init_ridge``; slacks start at the implied
    pairwise differences and multipliers at zero.
    """
    bundle = prepared(data)
    beta = bundle.solve_beta(2.0 * cfg.init_ridge, bundle.XtQy)
    zeta = bundle.differences(beta)
    return SolverState(beta=beta, zeta=zeta, v=np.zeros_like(zeta))


def update_beta(bundle: _Bundle, zeta: np.ndarray, v: np.ndarray, vartheta: float) -> np.ndarray:
    """One coefficient update given the current slacks and multipliers; eta is
    profiled out, so only beta is returned (its eta is ``bundle.eta_update(beta)``)."""
    return bundle.solve_beta(vartheta, bundle.beta_rhs(zeta, v, vartheta))


def update_zeta(diffs: np.ndarray, v: np.ndarray, spec: ScadSpec, vartheta: float) -> np.ndarray:
    """Proximal step on every pair: ``kappa = (beta_i - beta_j) + v/vartheta``."""
    return prox_columns(diffs + v / vartheta, spec, vartheta)


def update_v(v: np.ndarray, diffs: np.ndarray, zeta: np.ndarray, vartheta: float) -> np.ndarray:
    """Multiplier ascent on the constraint residuals."""
    return v + vartheta * (diffs - zeta)


def primal_residual(diffs: np.ndarray, zeta: np.ndarray) -> float:
    """Norm of the stacked constraint violations ``beta_i - beta_j - zeta_ij``."""
    return float(np.linalg.norm(diffs - zeta))


def weighted_loss(data: Dataset, beta: np.ndarray, eta: np.ndarray) -> float:
    """Half the weighted residual sum of squares (no penalty)."""
    bundle = prepared(data)
    resid = bundle.y - bundle.fitted_local(np.atleast_2d(beta))
    if bundle.q > 0:
        resid = resid - bundle.Z @ np.atleast_1d(eta)
    return 0.5 * float(np.sum(bundle.w * resid * resid))


def objective(data: Dataset, beta: np.ndarray, eta: np.ndarray, spec: ScadSpec) -> float:
    """Weighted loss plus the fusion penalty over all pairwise differences."""
    bundle = prepared(data)
    beta = np.atleast_2d(beta)
    loss = weighted_loss(data, beta, eta)
    if bundle.m == 1:
        return loss
    norms = np.linalg.norm(bundle.differences(beta), axis=0)
    return loss + float(np.sum(scad_value(norms, spec)))


def fit(data: Dataset, spec: ScadSpec, cfg: AdmmConfig = AdmmConfig()) -> FitResult:
    """Run the full solver: initialize, iterate, stop on the primal residual.

    Hitting ``max_iter`` is reported through ``converged=False`` but still
    returns the final iterate; only singular normal systems raise.
    """
    check_prox_compatible(spec, cfg.vartheta)
    bundle = prepared(data)
    vt = cfg.vartheta

    state = initialize(data, cfg)
    beta, zeta, v = state.beta, state.zeta, state.v

    if bundle.m == 1:
        return FitResult(beta=beta, eta=bundle.eta_update(beta), zeta=np.zeros((bundle.p, 0)),
                         v=np.zeros((bundle.p, 0)), iterations=0,
                         final_residual=0.0, converged=True, final_dual_residual=0.0)

    primal = np.inf
    iterations = 0
    for r in range(cfg.max_iter):
        beta = update_beta(bundle, zeta, v, vt)
        diffs = bundle.differences(beta)
        zeta_prev, zeta = zeta, update_zeta(diffs, v, spec, vt)
        v = update_v(v, diffs, zeta, vt)
        primal = primal_residual(diffs, zeta)
        iterations = r + 1
        if primal < cfg.tol:
            break

    # only the last iterate's eta and dual residual are reported, so each is computed once
    eta = bundle.eta_update(beta)
    dual = vt * float(np.linalg.norm(bundle.difference_adjoint(zeta - zeta_prev)))
    converged = primal < cfg.tol
    if not converged:
        logger.warning("solver hit max_iter=%d with primal residual %.3e (tol %.1e)",
                       cfg.max_iter, primal, cfg.tol)
    logger.debug("fit finished: %d iterations, primal %.3e, dual %.3e", iterations, primal, dual)
    return FitResult(beta=beta, eta=eta, zeta=zeta, v=v,
                     iterations=iterations, final_residual=primal,
                     converged=converged, final_dual_residual=dual)
