"""Concave fusion penalty: closed-form evaluation and proximal map.

The penalty on a pairwise difference of norm t is the integral of
``lam * min(1, (gamma - x/lam)_+ / (gamma - 1))`` from 0 to t, which is linear
up to ``lam``, blends quadratically on ``(lam, gamma*lam]`` and is flat
beyond.  The quadrature form lives only in the test oracles; everything here
is the closed-form piecewise version.  On the slack support the work is
split three ways: :func:`live_columns` tells which pair columns the map may
leave nonzero (and :func:`no_live_columns`, without building that mask,
whether there is any), the ADMM loop (``admm.fit``) alone decides, once per
iteration, whether to gather them and scatters the result, and
:func:`prox_columns` maps whatever block it is given, always in full.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import ValidationError


@dataclass(frozen=True)
class ScadSpec:
    """Fusion strength ``lam`` (>= 0) and shape ``gamma`` (> 2), both finite.

    Inside the solver ``gamma`` must additionally exceed ``1 + 1/vartheta``
    strictly, so that the middle branch of the proximal map stays a convex
    problem: its curvature is ``vartheta - 1/(gamma - 1)``, and at equality
    that branch divides by zero.  For ``vartheta >= 1`` the rule is already
    implied by ``gamma > 2``.  It is checked where vartheta is known, by
    :func:`check_prox_compatible`.
    """

    lam: float
    gamma: float = 3.0

    def __post_init__(self):
        if not 0 <= self.lam < np.inf:
            raise ValidationError(f"lam must be nonnegative and finite, got {self.lam}")
        if not 2 < self.gamma < np.inf:
            raise ValidationError(f"gamma must be finite and exceed 2, got {self.gamma}")


def check_prox_compatible(spec: ScadSpec, vartheta: float) -> None:
    """Reject (gamma, vartheta) pairs whose middle proximal branch is not convex.

    ``vartheta`` must be positive, and ``gamma > 1 + 1/vartheta`` must hold
    strictly: the middle branch rescales by ``1/(1 - 1/((gamma - 1) vartheta))``,
    which divides by zero at equality and changes sign below it.  That
    divisor is checked as computed too: just above the bound it can round to
    0 (gamma one ulp above ``1 + 1/0.53``).  For ``vartheta >= 1`` the bound
    is at most 2, so every valid :class:`ScadSpec` (``gamma > 2``) passes.
    """
    if not vartheta > 0:
        raise ValidationError(f"vartheta must be positive, got {vartheta}")
    if not (spec.gamma > 1.0 + 1.0 / vartheta and 1.0 - 1.0 / ((spec.gamma - 1.0) * vartheta) > 0):
        raise ValidationError(
            f"gamma={spec.gamma} must exceed 1 + 1/vartheta = {1.0 + 1.0 / vartheta}"
        )


def scad_value(t, spec: ScadSpec):
    """Penalty value at nonnegative ``t`` (scalar or array).

    Piecewise closed form: ``lam*t`` on [0, lam]; quadratic blend
    ``(gamma*lam*t - (t^2 + lam^2)/2) / (gamma - 1)`` on (lam, gamma*lam];
    constant ``lam^2 (gamma+1)/2`` beyond.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValidationError("t must be nonnegative (pass a norm)")
    lam, gam = spec.lam, spec.gamma
    if lam == 0:
        return np.zeros_like(t) if t.ndim else 0.0
    out = np.where(
        t <= lam,
        lam * t,
        np.where(
            t <= gam * lam,
            (gam * lam * t - 0.5 * (t * t + lam * lam)) / (gam - 1.0),
            0.5 * lam * lam * (gam + 1.0),
        ),
    )
    return out if t.ndim else float(out)


def group_soft_threshold(w: np.ndarray, t: float) -> np.ndarray:
    """Shrink the whole vector toward zero: ``(1 - t/||w||)_+ w``.

    Returns the zero vector when ``||w|| <= t`` (including ``w = 0``).
    """
    if t < 0:
        raise ValidationError("threshold must be nonnegative")
    w = np.asarray(w, dtype=float)
    nrm = float(np.linalg.norm(w))
    if nrm <= t:
        return np.zeros_like(w)
    return (1.0 - t / nrm) * w


def zeta_proximal(kappa: np.ndarray, spec: ScadSpec, vartheta: float) -> np.ndarray:
    """Minimize ``vartheta/2 ||kappa - z||^2 + penalty(||z||)`` over z.

    Three cases keyed on ``||kappa||``: group soft-threshold at ``lam/vartheta``
    up to ``lam + lam/vartheta``; a rescaled soft-threshold on the middle band
    up to ``gamma*lam``; the identity beyond (large differences unshrunk).
    """
    check_prox_compatible(spec, vartheta)
    kappa = np.asarray(kappa, dtype=float)
    lam, gam = spec.lam, spec.gamma
    nrm = float(np.linalg.norm(kappa))
    if nrm > gam * lam:
        return kappa.copy()
    if nrm <= lam + lam / vartheta:
        return group_soft_threshold(kappa, lam / vartheta)
    shrink = 1.0 / ((gam - 1.0) * vartheta)
    return group_soft_threshold(kappa, gam * lam * shrink) / (1.0 - shrink)


def column_norms(block: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of a (p, n) block: ``abs`` for p = 1."""
    return np.abs(block[0]) if block.shape[0] == 1 else np.sqrt(np.einsum("kl,kl->l", block, block))


def live_columns(kappa: np.ndarray, spec: ScadSpec, vartheta: float,
                 norms: np.ndarray | None = None) -> np.ndarray:
    """Mask of the columns of a (p, n_pairs) block that :func:`prox_columns`
    may leave nonzero: all but those with ``||kappa|| <= lam/vartheta``, which
    every branch zeroes, so a NaN norm is live; all of them at ``lam == 0``.
    ``norms`` are kappa's :func:`column_norms` when the caller has them."""
    if spec.lam == 0:
        return np.ones(kappa.shape[1], dtype=bool)
    return ~((column_norms(kappa) if norms is None else norms) <= spec.lam / vartheta)


def no_live_columns(kappa: np.ndarray, spec: ScadSpec, vartheta: float,
                    norms: np.ndarray | None = None) -> bool:
    """Whether no column of a (p, n_pairs) block is live: exactly
    ``not live_columns(kappa, spec, vartheta).any()``, without building the mask.

    At p = 1 the norm is ``abs``, which is exact, so the test is kappa's
    largest and negated smallest entry against ``lam/vartheta``; at p > 1 it
    is the largest of ``norms`` (kappa's :func:`column_norms`, computed when
    not given).  A NaN makes either comparison false, like the live mask's.
    At ``lam == 0`` every column is live, so only a block of no columns has
    none.
    """
    if kappa.shape[1] == 0:
        return True
    if spec.lam == 0:
        return False
    t = spec.lam / vartheta
    if kappa.shape[0] == 1:
        return bool(kappa.max() <= t and -kappa.min() <= t)
    return bool((column_norms(kappa) if norms is None else norms).max() <= t)


def prox_columns(kappa: np.ndarray, spec: ScadSpec, vartheta: float) -> np.ndarray:
    """Column-vectorized :func:`zeta_proximal` for a (p, n) block of kappas,
    pair-major, one column per pair.

    Each column is multiplied by one scale: ``max(0, 1 - t/||kappa||)`` with
    ``t = lam/vartheta`` on the soft-threshold branch, the same with
    ``t = gamma*lam*shrink`` and divided by ``1 - shrink`` on the middle
    branch, and exactly 1 on the identity branch: the columns with
    ``||kappa|| > max(lam + lam/vartheta, gamma*lam)``, which for every norm
    that is not NaN are those past ``gamma*lam`` and off the soft-threshold
    branch.  One ``np.where`` picks the threshold and every later step writes
    into the scale in place; every element gets the float operations of the
    branchwise form, bit for bit.  For p = 1 the norm is ``abs``, which does
    not underflow; for p > 1 a column whose norm underflows to 0 is zeroed,
    like a zero column.

    The map reads every column it is given.  Which columns those are (all
    pairs, or only the live ones of :func:`live_columns`, gathered
    C-ordered) and where the result goes is decided by ``admm.fit``.
    """
    check_prox_compatible(spec, vartheta)
    kappa = np.asarray(kappa, dtype=float)
    if spec.lam == 0:
        return kappa.copy()
    return kappa * _column_scale(column_norms(kappa), spec.lam, spec.gamma, vartheta)


def _column_scale(norms: np.ndarray, lam: float, gam: float, vartheta: float) -> np.ndarray:
    """The per-column factor of :func:`prox_columns` for columns of these norms."""
    soft_top = lam + lam / vartheta
    beyond_soft = norms > soft_top
    shrink = 1.0 / ((gam - 1.0) * vartheta)
    scale = np.where(beyond_soft, gam * lam * shrink, lam / vartheta)     # the threshold t
    # a zero norm (also one that underflowed) gives 1 - t/0 = -inf, or nan
    # where t underflowed too; fmax takes both to the soft-threshold zero
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(scale, norms, out=scale)
    np.subtract(1.0, scale, out=scale)
    np.fmax(0.0, scale, out=scale)
    np.divide(scale, 1.0 - shrink, out=scale, where=beyond_soft)
    np.putmask(scale, norms > max(soft_top, gam * lam), 1.0)
    return scale
