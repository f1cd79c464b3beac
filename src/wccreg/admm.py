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
from the final coefficients.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

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


def build_pair_index(m: int) -> PairIndex:
    if m < 1:
        raise ValueError("m must be at least 1")
    iu = np.triu_indices(m, k=1)
    return PairIndex(m=m, i_idx=iu[0].copy(), j_idx=iu[1].copy())


def fused_gram(m: int, p: int) -> np.ndarray:
    """Dense ``A'A`` for the pairwise difference operator.

    Never builds A itself: over the full pair set A'A equals
    ``(m I_m - J_m) (x) I_p`` with J the all-ones matrix.
    """
    return np.kron(m * np.eye(m) - np.ones((m, m)), np.eye(p))


@dataclass
class SolverState:
    """Mutable iterate: coefficients, slacks and multipliers (one column per pair)."""

    beta: np.ndarray          # (m, p)
    eta: np.ndarray           # (q,)
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
    pair blocks are contiguous (p, n_pairs) arrays.
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
        self.ZtWZ = self.Z.T @ wZ
        self.ZtWy = self.Z.T @ (self.w * self.y)
        self.ZtW = wZ.T                         # (q, n_total)

        self.XtQX = _block_diag(self.XtWX)
        self.XtQy = self.XtWy.reshape(-1)
        if q > 0:
            self.gz_factor = _factor_spd(self.ZtWZ, "Z'WZ")
            B = self.XtWZ.reshape(m * p, q)
            # X'QX = blockdiag(X'WX) - B (Z'WZ)^{-1} B'
            self.XtQX = self.XtQX - B @ cho_solve(self.gz_factor, B.T)
            self.XtQy = self.XtQy - B @ cho_solve(self.gz_factor, self.ZtWy)

        self.fused = fused_gram(m, p) if m > 1 else np.zeros((p, p))
        self._factors: dict[float, tuple] = {}

    def factor(self, scale: float):
        """Cholesky factor of X'QX + scale * A'A, cached per scale."""
        key = float(scale)
        if key not in self._factors:
            M = self.XtQX + key * self.fused if self.m > 1 else self.XtQX
            self._factors[key] = _factor_spd(M, "coefficient update matrix")
        return self._factors[key]

    def solve_beta(self, scale: float, rhs: np.ndarray) -> np.ndarray:
        return cho_solve(self.factor(scale), rhs).reshape(self.m, self.p)

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


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    m, p, _ = blocks.shape
    out = np.zeros((m * p, m * p))
    for i in range(m):
        out[i * p:(i + 1) * p, i * p:(i + 1) * p] = blocks[i]
    return out


def _factor_spd(M: np.ndarray, what: str):
    """Cholesky with a single trace-jitter retry; fatal if still singular."""
    try:
        return cho_factor(M, lower=True)
    except LinAlgError:
        jitter = 1e-10 * np.trace(M)
        if jitter <= 0:
            raise SingularSystemError(
                f"{what} is singular; use vartheta > 0 or a positive init_ridge"
            ) from None
        try:
            return cho_factor(M + jitter * np.eye(M.shape[0]), lower=True)
        except LinAlgError:
            raise SingularSystemError(
                f"{what} is singular even after diagonal jitter; "
                "use vartheta > 0 or a positive init_ridge"
            ) from None


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
    eta = bundle.eta_update(beta)
    zeta = bundle.differences(beta)
    v = np.zeros_like(zeta)
    return SolverState(beta=beta, eta=eta, zeta=zeta, v=v)


def update_beta(bundle: _Bundle, zeta: np.ndarray, v: np.ndarray, vartheta: float) -> np.ndarray:
    """One coefficient update given the current slacks and multipliers.

    eta is profiled out of the update matrix, so only beta is returned; the
    eta that goes with a beta is ``bundle.eta_update(beta)``.
    """
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
    beta, eta, zeta, v = state.beta, state.eta, state.zeta, state.v

    if bundle.m == 1:
        return FitResult(beta=beta, eta=eta, zeta=np.zeros((bundle.p, 0)),
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
