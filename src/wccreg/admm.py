"""ADMM solver for the survey-weighted fusion objective in the linear model.

The loss is ``0.5 * sum_i N_i^{-1} sum_h pi_ih^{-1} (y - z'eta - x'beta_i)^2``
(an extra ``1/sigma2`` factor per row when known variances are present) plus a
concave penalty on every pairwise difference ``beta_i - beta_j``.  Slack
vectors carry the differences, a proximal map handles the penalty, and the
coefficient update is a solve whose matrix depends only on the sample and on
the augmented weight.  Those pieces are built once per dataset by
:func:`prepared` and shared by every fit on it (the whole lambda path), the
starting point, the BIC and the group refit; each factor is computed once per
dataset and weight.  The sample is held once, as stacked rows, and the
residual ``y - x'beta_i - z'eta`` has one implementation
(:meth:`_Bundle.residuals`) that eta and the BIC read.  The pair
structure is kept only as the index arrays (i, j) of each pair: differences
gather over them and their adjoint scatter-adds over them, so the n_pairs x m
incidence matrix is never formed.  Every pair block (differences, slacks,
multipliers) is pair-major, one column per pair: a contiguous (p, n_pairs)
array, the layout :class:`FitResult` stores.  The shared-covariate coefficient
eta is not read by the coefficient update, so the loop leaves it out and it is
computed once, from the final coefficients.  The update matrix is block
diagonal minus a term of rank q + p and is solved in that form
(:func:`_structured_factor`), so no (mp)^2 array is built and a solve is a few
O(m p (p + q)) numpy passes.

:func:`fit` is the one ADMM loop: each iteration is a coefficient solve, the
proximal map on every pair (:func:`penalty.prox_columns`) and a multiplier
step, written inline against the bundle.  It runs in the scaled form (Boyd et
al. 2011, section 3.1.1): the loop carries the scaled multiplier
``u = v / vartheta``, which takes the products and quotients by vartheta off
the pair blocks (one product on the (m, p) right-hand side is left) and, at
``vartheta = 1`` (or any power of two), makes the same float operations as
the unscaled form.  ``FitResult.v`` is still the unscaled multiplier, formed
once after the loop.  The loop starts from the coefficients of
:func:`initialize`, with slacks at their differences and multipliers at zero.
A single location has no pairs: its pair blocks are (p, 0), the first
iteration already has a zero primal residual, and the loop stops there.
From ``_SUPPORT_MIN_PAIRS`` (4,096) pairs up the loop works on the slack
support instead; :func:`fit` describes that path and its gate.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular, LinAlgError

from .penalty import ScadSpec, check_prox_compatible, live_columns, prox_columns
from .types import AdmmConfig, Dataset, FitResult, SingularSystemError

logger = logging.getLogger(__name__)

# pair count from which :func:`fit` works on the slack support; below it the
# support's extra passes cost more than the skipped columns save
_SUPPORT_MIN_PAIRS = 4096

# iterations between full recomputations of the carried D'u in :func:`fit`.
# Each carried step rounds anew: over ~860 carried iterations beta drifted
# 7e-13 from the plain loop without them, 1e-13 with them
_REFRESH_CARRIED = 64

# the support of an iteration in which no slack column is live
_NO_COLUMNS = np.zeros(0, dtype=np.intp)
_NO_COLUMNS.flags.writeable = False


@dataclass(frozen=True)
class PairIndex:
    """Lexicographic index of the location pairs (i, j), i < j.

    ``i_idx``/``j_idx`` give the row pair of column l of the slack/multiplier
    blocks.
    """

    i_idx: np.ndarray
    j_idx: np.ndarray

    @property
    def n_pairs(self) -> int:
        return self.i_idx.size


@functools.lru_cache(maxsize=1)
def build_pair_index(m: int) -> PairIndex:
    """The pair index of m locations, built once per m and shared read-only."""
    if m < 1:
        raise ValueError("m must be at least 1")
    i_idx, j_idx = np.triu_indices(m, k=1)
    i_idx.flags.writeable = j_idx.flags.writeable = False
    return PairIndex(i_idx=i_idx, j_idx=j_idx)


class _Bundle:
    """Per-dataset precomputations: row weights and the blocks of the weighted
    normal equations, next to the dataset's own stacked rows.

    Every residual (eta's update, the BIC) comes from :meth:`residuals` on
    the stacked rows, which the bundle shares with the dataset (they are
    read-only) rather than copies.  Built once per dataset by
    :func:`prepared` and kept with it; it holds arrays only, never the dataset
    itself, so the dataset is freed as soon as its last reference goes.  The
    pairwise difference operator D (row l is ``e_i - e_j`` for pair l) acts
    only through the pair index: :meth:`differences` gathers ``D beta`` and
    :meth:`difference_adjoint` scatter-adds ``D'S``.  Both work pair-major,
    one column per pair: their pair blocks are contiguous (p, n_pairs) arrays.
    The normal equations are kept as per-location blocks plus Z'WZ, with eta
    already profiled out of the right-hand side (``XtQy``); no (mp)^2 array
    is built.  At q = 0 the Z blocks are empty and take the same steps.
    """

    def __init__(self, data: Dataset):
        m, p, q = data.m, data.p, data.q
        self.m, self.p, self.q = m, p, q
        self.pairs = build_pair_index(m)
        self._i_repeats = None
        # flat position in an (m, p) block of entry (column k, pair l) of a
        # (p, n_pairs) pair block, stored in that block's order.  At p = 1 they
        # are the shared read-only pair index itself: the gathers index with
        # them and np.bincount reads them, and neither copies a read-only index
        if p == 1:
            self._pos_i, self._pos_j = self.pairs.i_idx, self.pairs.j_idx
            # on large blocks :meth:`differences` repeats beta_i over j > i
            # instead of gathering it: i runs 0, ..., m - 2, m - 1 - i times each
            if self.pairs.n_pairs >= _SUPPORT_MIN_PAIRS:
                self._i_repeats = np.arange(m - 1, 0, -1)
        else:
            cols = np.arange(p)[:, None]
            self._pos_i = (self.pairs.i_idx * p + cols).ravel()
            self._pos_j = (self.pairs.j_idx * p + cols).ravel()

        # the sample, once, as stacked rows: the dataset's own read-only arrays,
        # each row's location, its loss weight and its BIC weight (the inverse
        # inclusion probability normalized within its location)
        bounds = data.offsets.tolist()
        self.row_location = np.repeat(np.arange(m), np.diff(data.offsets))
        self.y, self.X, self.Z = data.y, data.X, data.Z
        self.w = 1.0 / (data.N[self.row_location] * data.pi)
        if data.sigma2 is not None:
            self.w = self.w / data.sigma2
        inv_pi = 1.0 / data.pi

        # block pieces of the weighted normal equations (q may be 0) and the
        # BIC weights' sums: one small product per location on its contiguous
        # rows, the float operations of a per-location build
        wX, wy, wZ = self.w[:, None] * self.X, self.w * self.y, self.w[:, None] * self.Z
        self.XtWX, XtWy, self.XtWZ = np.empty((m, p, p)), np.empty((m, p)), np.empty((m, p, q))
        inv_pi_sums = np.empty(m)
        for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
            Xt = self.X[a:b].T
            self.XtWX[i] = Xt @ wX[a:b]
            XtWy[i] = Xt @ wy[a:b]
            self.XtWZ[i] = Xt @ wZ[a:b]
            inv_pi_sums[i] = inv_pi[a:b].sum()
        self.w_norm = inv_pi / inv_pi_sums[self.row_location]
        ZtWZ = self.Z.T @ wZ
        self.ZtW = wZ.T                         # (q, n_total)

        def factor_z(tau):
            G = ZtWZ + tau * np.eye(q)
            return G, cho_factor(G, lower=True)
        # Z'WZ is kept as factored, with its jitter if it needed one, so the
        # coefficient update, X'Qy and eta all read the same matrix
        self.ZtWZ, self.gz_factor = _factor_spd(factor_z, lambda: np.trace(ZtWZ), "Z'WZ")
        # X'Qy = X'Wy - B (Z'WZ)^{-1} Z'Wy with B = X'WZ stacked
        ZtWy = self.Z.T @ wy
        self.XtQy = XtWy.reshape(-1) - self.XtWZ.reshape(m * p, q) @ cho_solve(self.gz_factor, ZtWy)
        self._factors: dict[float, tuple] = {}

    def factor(self, scale: float) -> tuple:
        """Structured factor of X'QX + scale * A'A, cached per scale.  A'A = 0 for
        m = 1, so there every scale is taken as 0: the loop's solve is then the
        start's, bit for bit, and factored once."""
        key = float(scale) if self.m > 1 else 0.0
        if key not in self._factors:
            self._factors[key] = _structured_factor(self.XtWX, self.XtWZ, self.ZtWZ, self.gz_factor, key,
                                                    "coefficient update matrix")
        return self._factors[key]

    def residuals(self, beta: np.ndarray, eta: np.ndarray | None = None) -> np.ndarray:
        """Stacked residuals ``y - x'beta_i - z'eta`` over all rows; the eta
        term is left out when eta is None."""
        resid = self.y - np.sum(self.X * beta[self.row_location], axis=1)
        if eta is not None:
            resid = resid - self.Z @ eta
        return resid

    def eta_update(self, beta: np.ndarray) -> np.ndarray:
        # the one q test: at q = 0 eta is empty, with no pass over the rows
        if self.q == 0:
            return np.zeros(0)
        return cho_solve(self.gz_factor, self.ZtW @ self.residuals(beta))

    def differences(self, beta: np.ndarray) -> np.ndarray:
        """``(D beta)'`` as a (p, n_pairs) block: column l is ``beta_i - beta_j`` for pair l.

        At p = 1 from ``_SUPPORT_MIN_PAIRS`` pairs up, the i side is
        ``np.repeat(beta[:-1], [m - 1, ..., 1])``: the lexicographic pairs hold
        beta_i for every j > i in a row, so the values are the gather's, bit
        for bit, and the i index is not read.  Below the gate the gather is
        the cheaper of the two.
        """
        flat = beta.reshape(-1)
        out = flat[self._pos_i] if self._i_repeats is None else np.repeat(flat[:-1], self._i_repeats)
        out -= flat[self._pos_j]
        return out.reshape(self.p, -1)

    def difference_adjoint(self, S: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """``D'S'`` for a (p, n_pairs) block: +S_l added at row i, -S_l at row j.

        Entry (k, l) of S goes to flat entry (i_l, k) and (j_l, k) of the
        (m, p) result, added in pair order.  With ``cols``, S is the compact
        (p, len(cols)) block of those pair columns, in their order, and the
        block it stands for is zero elsewhere; the sums are the same.  Only
        the pair positions are gathered here: the caller (``fit``) already
        holds the compact block.
        """
        pos_i, pos_j = self._pos_i, self._pos_j
        if cols is not None:
            pos_i = pos_i.reshape(self.p, -1).take(cols, axis=1).reshape(-1)
            pos_j = pos_j.reshape(self.p, -1).take(cols, axis=1).reshape(-1)
        flat = S.reshape(-1)
        size = self.m * self.p
        return (np.bincount(pos_i, flat, size)
                - np.bincount(pos_j, flat, size)).reshape(self.m, self.p)


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
    G_factor (empty when q = 0), by :func:`_factor_spd`.  ``M + tau I = D - U C U'``
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
                - np.sum(Bf.T * cho_solve(G_factor, Bf.T)))

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
    """The dataset's precomputation: built on first use, then reused.

    Construction is the dataset's one check, so nothing is checked again
    here.  The precomputation is kept on the dataset instance outside its
    dataclass fields, so the dataset's constructor, equality and repr are
    unchanged.  Two threads that race here each build an equal
    precomputation, and one of them is kept.
    """
    bundle = vars(data).get("_prepared")
    if bundle is None:
        bundle = _Bundle(data)
        object.__setattr__(data, "_prepared", bundle)
    return bundle


def initialize(data: Dataset, cfg: AdmmConfig) -> np.ndarray:
    """Starting coefficients, (m, p): squared-difference fusion of strength ``init_ridge``.

    The normal matrix is the coefficient-update matrix with the augmented
    weight replaced by ``2 * init_ridge``.
    """
    bundle = prepared(data)
    return _structured_solve(bundle.factor(2.0 * cfg.init_ridge), bundle.XtQy)


def fit(data: Dataset, spec: ScadSpec, cfg: AdmmConfig = AdmmConfig()) -> FitResult:
    """Run the ADMM loop from :func:`initialize`'s coefficients, with slacks
    ``zeta_0 = D beta_0`` and multipliers ``v_0 = 0``; stop on the primal residual.

    The loop carries the scaled multiplier ``u = v / vartheta``.  Each
    iteration solves for beta against ``X'Qy + vartheta D'(zeta - u)``,
    applies the proximal map to ``kappa = D beta + u``, forms the residual
    ``r = D beta - zeta`` once and steps ``u += r``; the primal residual is
    ``sqrt(r . r)``.  ``FitResult.v`` is the unscaled ``vartheta u``.  At
    m = 1 there are no pairs, so the first iteration returns the weighted
    least-squares fit with a zero residual.  Hitting ``max_iter`` is reported
    through ``converged=False`` but still returns the final iterate; only
    singular normal systems raise.

    Blocks of fewer than ``_SUPPORT_MIN_PAIRS`` (4,096) pairs run exactly
    these steps.  On larger blocks the penalty leaves most slacks at exact
    zeros, and the loop skips them where it can:

    * the right-hand side is ``vartheta (D'zeta - D'u)``.  The first ``D'zeta``
      is ``D'D beta_0 = m (beta_0 - mean beta_0)``, by ``A'A = (mI - J) (x) I_p``,
      and ``D'u_0 = 0``;
    * the loop finds the support once per iteration, before the proximal map,
      with one query (:func:`penalty.live_columns`), which tests first
      whether any column of ``kappa`` is live at all and only then builds the
      mask of the live columns; the loop counts the mask.  While they are
      fewer than a quarter of all, they are taken once as a
      compact (p, k) block and handed whole to :func:`penalty.prox_columns`;
      the mapped block is written once into a zero ``zeta``, ``u`` becomes
      ``kappa`` off the support and on it steps from the compact blocks with
      the float operations above; ``D'zeta`` scatter-adds the compact block
      alone (:meth:`_Bundle.difference_adjoint` on its columns), and ``D'u`` is
      carried as ``D'u + m (beta - mean beta) - D'zeta``, written centred so
      that it does not cancel, and recomputed in full every 64 iterations.
      When the support is wider, that iteration is the plain one and the
      next recomputes ``D'(zeta - u)``; carrying restarts from a full
      ``D'u`` when the support is narrow again.  An iteration with no live
      column runs the same steps on a (p, 0) block, which the proximal map
      still receives, once: ``zeta`` is a zero block, kept from the
      iteration before when that one had no live column either, ``u``
      becomes ``kappa``, ``D'zeta`` is zero and ``D'u`` is carried;
    * the start slack ``D beta_0`` is read only by the dual residual of a fit
      that stops on a plain first iteration, so it is formed there and
      nowhere else;
    * the final dual residual is ``vartheta ||D'zeta - D'zeta_prev||`` from the
      carried sums when both are at hand.

    These sums round differently from the plain loop's, so on large blocks
    beta, eta, zeta and v drift from it, with the same iterations and
    partitions; ``tools/support_drift.py`` prints how far, per lambda.  Where
    every pair fuses, zeta is the same zero block.  The gate is where the
    support path starts to pay: below it, its fixed cost per iteration (the
    live mask and its count, the support's index, the scatter on it) exceeds
    the passes it skips.
    """
    check_prox_compatible(spec, cfg.vartheta)
    bundle = prepared(data)
    vt = cfg.vartheta
    factor = bundle.factor(vt)
    m = bundle.m
    large = bundle.pairs.n_pairs >= _SUPPORT_MIN_PAIRS

    beta0 = beta = initialize(data, cfg)
    # the start slack D beta_0; on large blocks it is formed after the loop,
    # where alone it is read (see the docstring)
    zeta = None if large else bundle.differences(beta)
    u = np.zeros((bundle.p, bundle.pairs.n_pairs))
    # D'zeta and D'u, while carried; on large blocks carrying starts at once
    Dz = Du = None
    if large:
        Dz, Du = m * (beta - beta.mean(axis=0)), np.zeros_like(beta)
    # whether zeta is the zero block of an empty support
    zeta_dead = False

    primal = np.inf
    iterations = 0
    for it in range(cfg.max_iter):
        Dz_prev = Dz
        adj = bundle.difference_adjoint(zeta - u) if Du is None else Dz - Du
        beta = _structured_solve(factor, bundle.XtQy + vt * adj.reshape(-1))
        r = bundle.differences(beta)
        kappa = r + u
        # the support: no column, or the live columns when fewer than a quarter
        # of all (a mask is counted several times faster than a dense one is
        # indexed)
        live = None
        if large:
            mask = live_columns(kappa, spec, vt)
            if mask is None:
                live = _NO_COLUMNS
            elif 4 * np.count_nonzero(mask) < mask.size:
                live = np.flatnonzero(mask)
        zeta_prev = zeta
        if live is None:
            zeta = prox_columns(kappa, spec, vt)
            r -= zeta
            u += r
            Dz = Du = None
        else:
            # the live columns, gathered once C-ordered (like the full block, so
            # their norms round alike), are mapped as one compact block, which
            # every step below reads; off the support zeta is 0: r stays D beta,
            # and u + r is kappa.  An empty support keeps the zero block of the
            # one before it
            zeta_live = prox_columns(kappa.take(live, axis=1), spec, vt)
            if live is not _NO_COLUMNS or not zeta_dead:
                zeta = np.zeros(kappa.shape)
                zeta[:, live] = zeta_live
            r_live = r.take(live, axis=1) - zeta_live
            r[:, live] = r_live
            u_live = u.take(live, axis=1) + r_live
            u = kappa
            u[:, live] = u_live
            Dz = bundle.difference_adjoint(zeta_live, live)
            if Du is None or (it + 1) % _REFRESH_CARRIED == 0:
                Du = bundle.difference_adjoint(u)
            else:
                Du += m * (beta - beta.mean(axis=0))
                Du -= Dz
        zeta_dead = live is _NO_COLUMNS
        # norm of the stacked constraint violations beta_i - beta_j - zeta_ij
        flat = r.reshape(-1)
        primal = math.sqrt(flat.dot(flat))
        iterations = it + 1
        if primal < cfg.tol:
            break

    # only the last iterate's eta and dual residual are reported, so each is computed once
    eta = bundle.eta_update(beta)
    if Dz is None or Dz_prev is None:
        if zeta_prev is None:
            zeta_prev = bundle.differences(beta0)
        dual = vt * float(np.linalg.norm(bundle.difference_adjoint(zeta - zeta_prev)))
    else:
        dual = vt * float(np.linalg.norm(Dz - Dz_prev))
    converged = primal < cfg.tol
    if not converged:
        logger.warning("solver hit max_iter=%d with primal residual %.3e (tol %.1e)",
                       cfg.max_iter, primal, cfg.tol)
    logger.debug("fit finished: %d iterations, primal %.3e, dual %.3e", iterations, primal, dual)
    # zeta and v are this fit's own fresh arrays: frozen, FitResult keeps them uncopied
    v = vt * u
    zeta.flags.writeable = v.flags.writeable = False
    return FitResult(beta=beta, eta=eta, zeta=zeta, v=v,
                     iterations=iterations, final_residual=primal,
                     converged=converged, final_dual_residual=dual)

