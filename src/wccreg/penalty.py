"""Concave fusion penalty: closed-form evaluation and proximal map.

The penalty on a pairwise difference of norm t is the integral of
``lam * min(1, (gamma - x/lam)_+ / (gamma - 1))`` from 0 to t, which is linear
up to ``lam``, blends quadratically on ``(lam, gamma*lam]`` and is flat
beyond.  The quadrature form lives only in the test oracles; everything here
is the closed-form piecewise version.  On the slack support the work is
split three ways: :func:`live_columns` tells which pair columns the map may
leave nonzero, or that none is, the ADMM loop (``admm.fit``) alone decides,
once per iteration, whether to gather them and scatters the result, and
:func:`prox_columns` maps whatever block it is given.  The map sorts every
column by its norm into dead, identity and the two shrink bands; only when a
band is occupied does it do the shrink arithmetic, over the whole block, and
otherwise it multiplies the block by the 0/1 identity mask.
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


def _norm(v: np.ndarray) -> float:
    """Euclidean norm; ``abs`` for one entry, whose square may underflow or overflow."""
    return abs(v.item()) if v.size == 1 else float(np.linalg.norm(v))


def group_soft_threshold(w: np.ndarray, t: float) -> np.ndarray:
    """Shrink the whole vector toward zero: ``(1 - t/||w||)_+ w``.

    A dead vector, ``||w|| <= t`` (``w = 0`` too) or of NaN norm, returns
    ``w * 0``, keeping signed zeros and NaN entries as :func:`prox_columns` does.
    """
    if t < 0:
        raise ValidationError("threshold must be nonnegative")
    w = np.asarray(w, dtype=float)
    nrm = _norm(w)
    if not nrm > t:
        return w * 0.0
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
    nrm = _norm(kappa)
    if nrm > gam * lam:
        return kappa.copy()
    if nrm <= lam + lam / vartheta:
        return group_soft_threshold(kappa, lam / vartheta)
    shrink = 1.0 / ((gam - 1.0) * vartheta)
    return group_soft_threshold(kappa, gam * lam * shrink) / (1.0 - shrink)


def column_norms(block: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of a (p, n) block: ``abs`` for p = 1."""
    return np.abs(block[0]) if block.shape[0] == 1 else np.sqrt(np.einsum("kl,kl->l", block, block))


def live_columns(kappa: np.ndarray, spec: ScadSpec, vartheta: float) -> np.ndarray | None:
    """Mask of the columns of a (p, n_pairs) block that :func:`prox_columns`
    may leave nonzero, or None when there is none.

    A column is dead when ``||kappa|| <= lam/vartheta``, which every branch
    zeroes, so a NaN norm is live; at ``lam == 0`` every column is live.  The
    all-dead test builds no mask: at p = 1, where the norm is the exact
    ``abs``, it compares kappa's largest and negated smallest entry, and at
    p > 1 the largest :func:`column_norms`, which the mask then reuses.
    ``admm.fit`` has checked (spec, vartheta); its blocks are nonempty float64.
    """
    if spec.lam == 0:
        return np.ones(kappa.shape[1], dtype=bool)
    t = spec.lam / vartheta
    if kappa.shape[0] == 1 and kappa.max() <= t and -kappa.min() <= t:
        return None
    norms = column_norms(kappa)
    if kappa.shape[0] > 1 and norms.max() <= t:
        return None
    return ~(norms <= t)


def prox_columns(kappa: np.ndarray, spec: ScadSpec, vartheta: float) -> np.ndarray:
    """Column-vectorized :func:`zeta_proximal` for a (p, n) block of kappas,
    pair-major, one column per pair.

    Each column falls in one class by its norm: dead (``||kappa|| <= t`` with
    ``t = lam/vartheta``, or NaN), identity (past
    ``max(lam + lam/vartheta, gamma*lam)``, which for every norm that is not
    NaN means past ``gamma*lam`` and off the soft-threshold branch), or one of
    the two shrink bands between.  When no column is in a band, the result is
    ``kappa`` times the 0/1 identity mask.  Otherwise :func:`_band_scale`
    gives every column one factor: ``max(0, 1 - t/||kappa||)`` on the
    soft-threshold band, the same with ``t = gamma*lam*shrink`` and divided
    by ``1 - shrink`` on the middle band, and exactly 0 or 1 on the dead and
    identity columns.  Either way every element gets the float operations of
    the branchwise form, bit for bit, signed zeros and NaN columns included.
    For p = 1 the norm is ``abs``, which does not underflow; for p > 1 a
    column whose norm underflows to 0 is dead, like a zero column.

    ``admm.fit`` has checked (spec, vartheta), picks the float64 block (all
    pairs, none, or the live columns of :func:`live_columns`, C-ordered) and
    places the result; the map picks its path from the class counts.
    """
    if spec.lam == 0:
        return kappa.copy()
    lam, gam = spec.lam, spec.gamma
    t = lam / vartheta
    norms = column_norms(kappa)
    identity = norms > max(lam + t, gam * lam)
    middle = norms > lam + t
    n_identity = np.count_nonzero(identity)
    n_middle = np.count_nonzero(middle) - n_identity
    if not n_middle and np.count_nonzero(norms > t) == n_identity:
        return kappa * identity
    return kappa * _band_scale(norms, identity if n_identity else None,
                               middle ^ identity if n_middle else None, lam, gam, vartheta)


def _band_scale(norms: np.ndarray, identity: np.ndarray | None, middle: np.ndarray | None,
                lam: float, gam: float, vartheta: float) -> np.ndarray:
    """The per-column factor of :func:`prox_columns` for columns of these
    norms, some of them in a shrink band, written over ``norms``.
    ``identity`` and ``middle`` mark the identity and the middle-band
    columns, each None when there is none.

    Every column divides its threshold by ``max(||kappa||, lam/vartheta)``, so
    a dead or NaN column gets ``1 - 1``, exactly 0, and no quotient overflows
    or, unless lam/vartheta underflows to 0, has a zero divisor.  The last
    ``fmax`` takes the identity columns, whose soft-threshold factor is at
    most 1, to exactly 1.  The middle band's threshold and divisor are picked
    only when a column is on it.
    """
    t = lam / vartheta
    shrink = 1.0 / ((gam - 1.0) * vartheta)
    scale = np.fmax(norms, t, out=norms)
    threshold = t if middle is None else np.where(middle, gam * lam * shrink, t)
    if t > 0:
        np.divide(threshold, scale, out=scale)
    else:   # lam/vartheta underflowed to 0: a dead column divides 0 by 0, which fmax zeroes
        with np.errstate(invalid="ignore"):
            np.divide(threshold, scale, out=scale)
    np.subtract(1.0, scale, out=scale)
    np.fmax(0.0 if identity is None else identity, scale, out=scale)
    if middle is not None:
        np.divide(scale, np.where(middle, 1.0 - shrink, 1.0), out=scale)
    return scale
