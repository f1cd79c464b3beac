"""Fusion-strength selection by a modified BIC over a grid of candidates."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

import wccreg.admm as admm
from .grouping import ZERO_TOL, check_zero_tol, extract_partition
from .penalty import ScadSpec, column_norms
from .types import AdmmConfig, Dataset, FitResult, Partition, ValidationError

logger = logging.getLogger(__name__)

_RESIDUAL_FLOOR = 1e-300

MEAN_MODEL = "mean_model"
REGRESSION = "regression"

BIC_RULE = ("C_m = log(m*p+q), complexity C_m*(log m/m)*(K_hat*p + q); "
            "mean_model variant drops q")
GRID_RULE = ("30 log-spaced values in [0.01*anchor, anchor], anchor = largest pairwise "
             "distance between unpenalized per-location coefficient estimates")


@dataclass(frozen=True)
class BicVariant:
    """Which complexity count to use, and the scale constant.

    ``regression`` charges ``K_hat * p + q`` parameters, ``mean_model``
    charges ``K_hat * p`` (intended for intercept-only designs, where p = 1).
    ``C_m`` (None: ``log(m p + q)`` of the scored dataset) is read by :func:`modified_bic`.
    """

    kind: str = REGRESSION
    C_m: Optional[float] = None

    def __post_init__(self):
        if self.kind not in (MEAN_MODEL, REGRESSION):
            raise ValidationError(f"unknown BIC variant kind {self.kind!r}")
        if self.C_m is not None and not self.C_m > 0:
            raise ValidationError("C_m must be positive")


@dataclass(frozen=True, eq=False)
class LambdaRecord:
    """One candidate of a lambda path: its fit, partition and BIC.  Two
    records are equal only when they are the same object."""

    lam: float
    fit: FitResult
    partition: Partition
    bic: float

    @property
    def converged(self) -> bool:
        """``fit.converged``, read only by ``perfbench/``."""
        return self.fit.converged


@dataclass(frozen=True)
class LambdaPath:
    """One record per grid value of a sweep, by increasing ``lam``."""

    records: tuple


def modified_bic(data: Dataset, fit: FitResult, partition: Partition,
                 variant: BicVariant = BicVariant()) -> float:
    """Log of the weight-normalized residual average plus a complexity charge.

    The residual term averages, over locations, the normalized-weight mean of
    squared residuals at the fitted per-location coefficients; the complexity
    term is ``C_m * (log m / m)`` per counted parameter (:data:`BIC_RULE`).
    """
    m = data.m
    bundle = admm.prepared(data)
    resid = bundle.residuals(fit.beta, fit.eta)
    avg = float(np.sum(bundle.w_norm * resid * resid)) / m
    if avg < _RESIDUAL_FLOOR:
        logger.warning("BIC residual term clamped at %g (perfect interpolation?)", _RESIDUAL_FLOOR)
        avg = _RESIDUAL_FLOOR
    units = partition.K_hat * data.p + (data.q if variant.kind == REGRESSION else 0)
    C_m = math.log(m * data.p + data.q) if variant.C_m is None else variant.C_m
    return math.log(avg) + C_m * (math.log(m) / m) * units


def default_lambda_grid(data: Dataset, cfg: AdmmConfig = AdmmConfig(), num: int = 30) -> np.ndarray:
    """Log-spaced grid anchored to the unpenalized fit's coefficient spread.

    The anchor is the largest pairwise distance between the per-location
    coefficients of the unpenalized (ridge-free) fit, or 1 when there is no
    positive distance (as at m = 1); the grid spans ``[0.01 * anchor, anchor]``
    (:data:`GRID_RULE`), and a one-value grid is the anchor.
    """
    if num < 1:
        raise ValidationError("grid size must be at least 1")
    bundle = admm.prepared(data)
    beta0 = admm.initialize(data, replace(cfg, init_ridge=0.0))
    anchor = float(column_norms(bundle.differences(beta0)).max(initial=0.0))
    if anchor <= 0:
        anchor = 1.0
    if num == 1:
        return np.array([anchor])
    return np.geomspace(0.01 * anchor, anchor, num)


def select_lambda(data: Dataset, grid: Sequence[float], gamma: float = ScadSpec.gamma,
                  cfg: AdmmConfig = AdmmConfig(),
                  variant: BicVariant = BicVariant(),
                  zero_tol: float = ZERO_TOL) -> tuple[float, FitResult, Partition, LambdaPath]:
    """Fit every candidate, score with the modified BIC, return the argmin.

    Every candidate has penalty shape ``gamma``; ties break toward the smaller
    candidate.  The grid and ``zero_tol`` are checked before the first fit.
    Candidates whose solver hit the iteration cap are skipped (with a
    warning) as long as at least one converged; fatal solver errors propagate.
    """
    grid = sorted(float(x) for x in grid)
    if not grid:
        raise ValidationError("lambda grid must be nonempty")
    if not all(0 < x < math.inf for x in grid):
        raise ValidationError("lambda grid values must be positive and finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("lambda grid must be strictly increasing")
    check_zero_tol(zero_tol)
    records = []
    for lam in grid:
        fit = admm.fit(data, ScadSpec(lam=lam, gamma=gamma), cfg)
        part = extract_partition(fit, zero_tol)
        bic = modified_bic(data, fit, part, variant)
        records.append(LambdaRecord(lam=lam, fit=fit, partition=part, bic=bic))

    candidates = [r for r in records if r.fit.converged]
    if not candidates:
        logger.warning("no candidate converged; selecting among capped fits")
        candidates = records
    elif len(candidates) < len(records):
        skipped = [r.lam for r in records if not r.fit.converged]
        logger.warning("skipping %d non-converged candidates: %s", len(skipped), skipped)

    best = min(candidates, key=lambda r: r.bic)   # the first of equal scores
    return best.lam, best.fit, best.partition, LambdaPath(records=tuple(records))
