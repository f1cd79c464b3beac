"""Core data containers shared by the solver, selection and simulation layers.

A dataset is a list of location blocks.  Each block stores only the sampled
rows of its location together with the inclusion probabilities under which
they were drawn; unsampled population units are never represented.  All
containers are frozen dataclasses holding read-only numpy arrays, so they can
be shared freely across threads.  Their constructors, also when reached
through ``dataclasses.replace``, check every invariant; that is the one check,
and nothing downstream repeats it.  A dataset also keeps the solver's
precomputation, attached on first use outside its dataclass fields (see
``admm.prepared``); threads that race there only build an equal precomputation
twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


class ValidationError(ValueError):
    """Raised when a dataset or configuration violates its invariants."""


class SingularSystemError(RuntimeError):
    """Raised when a normal system stays singular even after diagonal jitter."""


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LocationBlock:
    """Sampled observations of one location.

    Parameters
    ----------
    location_id : str
        Opaque identifier; ordering of blocks inside a Dataset fixes the
        pairwise index once and for all.
    N : int
        Population size of the location (>= number of sampled rows).
    y : (n,) array
        Responses of the sampled units.
    X : (n, p) array
        Location-specific covariates (p >= 1).
    Z : (n, q) array
        Shared-effect covariates; q may be 0 (shape (n, 0)).
    pi : (n,) array
        First-order inclusion probabilities, each in (0, 1].
    sigma2 : (n,) array, optional
        Known per-row variances for the heteroscedastic weighting; when
        present each row's weight picks up an extra 1/sigma2 factor.
    """

    location_id: str
    N: int
    y: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    pi: np.ndarray
    sigma2: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "y", _readonly(np.atleast_1d(self.y)))
        object.__setattr__(self, "X", _readonly(np.atleast_2d(self.X)))
        Z = np.asarray(self.Z, dtype=float)
        if Z.ndim == 1:
            Z = Z.reshape(len(self.y), -1)
        object.__setattr__(self, "Z", _readonly(Z))
        object.__setattr__(self, "pi", _readonly(np.atleast_1d(self.pi)))
        if self.sigma2 is not None:
            object.__setattr__(self, "sigma2", _readonly(np.atleast_1d(self.sigma2)))
        _check_block(self)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def q(self) -> int:
        return self.Z.shape[1]


def _check_block(block: LocationBlock) -> None:
    lid = block.location_id
    n = block.y.shape[0]
    if n < 1:
        raise ValidationError(f"location {lid!r}: needs at least one sampled row")
    if block.X.shape[0] != n or block.Z.shape[0] != n or block.pi.shape[0] != n:
        raise ValidationError(
            f"location {lid!r}: ragged rows (y has {n}, X has {block.X.shape[0]}, "
            f"Z has {block.Z.shape[0]}, pi has {block.pi.shape[0]})"
        )
    if block.X.shape[1] < 1:
        raise ValidationError(f"location {lid!r}: X must have at least one column")
    if block.sigma2 is not None:
        if block.sigma2.shape[0] != n:
            raise ValidationError(f"location {lid!r}: sigma2 length {block.sigma2.shape[0]} != {n}")
        if not np.all(block.sigma2 > 0):
            raise ValidationError(f"location {lid!r}: sigma2 must be strictly positive")
    if not np.all(np.isfinite(block.y)) or not np.all(np.isfinite(block.X)) or not np.all(np.isfinite(block.Z)):
        raise ValidationError(f"location {lid!r}: non-finite values in y/X/Z")
    if not np.all((block.pi > 0) & (block.pi <= 1)):
        raise ValidationError(f"location {lid!r}: inclusion probabilities must lie in (0, 1]")
    if block.N < n:
        raise ValidationError(f"location {lid!r}: population size N={block.N} smaller than sample size n={n}")


@dataclass(frozen=True)
class Dataset:
    """All sampled observations, grouped by location; ``p`` and ``q`` are the blocks'."""

    locations: tuple

    def __post_init__(self):
        object.__setattr__(self, "locations", tuple(self.locations))
        _check_dataset(self)

    @property
    def m(self) -> int:
        return len(self.locations)

    @property
    def p(self) -> int:
        return self.locations[0].p

    @property
    def q(self) -> int:
        return self.locations[0].q

    @property
    def n_total(self) -> int:
        return sum(b.n for b in self.locations)

    def location_ids(self) -> list[str]:
        return [b.location_id for b in self.locations]


def _check_dataset(data: Dataset) -> None:
    if len(data.locations) < 1:
        raise ValidationError("dataset has no locations")
    seen = set()
    for block in data.locations:
        if not isinstance(block, LocationBlock):
            raise ValidationError("dataset locations must be LocationBlock instances")
        if block.location_id in seen:
            raise ValidationError(f"duplicate location id {block.location_id!r}")
        seen.add(block.location_id)
        if block.p != data.p:
            raise ValidationError(
                f"location {block.location_id!r}: p={block.p} does not match dataset p={data.p}"
            )
        if block.q != data.q:
            raise ValidationError(
                f"location {block.location_id!r}: q={block.q} does not match dataset q={data.q}"
            )


@dataclass(frozen=True)
class AdmmConfig:
    """Solver knobs: augmented-Lagrangian weight, stopping rule, initialization.

    ``vartheta`` is held fixed for the whole run.  ``init_ridge`` is the
    strength of the squared-difference fusion used to build the starting
    point; 0 starts from the per-location weighted least-squares fit, small
    positive values stabilise rank-deficient location designs.
    """

    vartheta: float = 1.0
    tol: float = 1e-6
    max_iter: int = 2000
    init_ridge: float = 0.0

    def __post_init__(self):
        if not self.vartheta > 0:
            raise ValidationError("vartheta must be positive")
        if not self.tol > 0:
            raise ValidationError("tol must be positive")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be at least 1")
        if self.init_ridge < 0:
            raise ValidationError("init_ridge must be nonnegative")


@dataclass(frozen=True)
class FitResult:
    """Converged (or capped) solver state plus iteration diagnostics.

    ``zeta`` and ``v`` are (p, n_pairs), pair-major, one column per pair,
    ordered like the lexicographic pair index; the solver iterates in this
    layout, so they are stored as it leaves them.  A single location has no
    pairs: they are (p, 0), and its fit stops after one iteration with zero
    residuals.  ``final_dual_residual`` is
    ``vartheta ||D'(zeta_k - zeta_{k-1})||`` of the last iteration, computed
    once after the loop (on large pair blocks from the loop's own sums
    ``D'zeta_k`` and ``D'zeta_{k-1}``); it is logged for diagnostics only and
    never used for stopping.
    """

    beta: np.ndarray           # (m, p)
    eta: np.ndarray            # (q,)
    zeta: np.ndarray           # (p, m(m-1)/2)
    v: np.ndarray              # (p, m(m-1)/2)
    iterations: int
    final_residual: float
    converged: bool
    final_dual_residual: float = float("nan")

    def __post_init__(self):
        object.__setattr__(self, "beta", _readonly(np.atleast_2d(self.beta)))
        object.__setattr__(self, "eta", _readonly(np.atleast_1d(self.eta)))
        object.__setattr__(self, "zeta", _readonly(np.atleast_2d(self.zeta)))
        object.__setattr__(self, "v", _readonly(np.atleast_2d(self.v)))
        m, p = self.beta.shape
        npairs = m * (m - 1) // 2
        if self.zeta.shape != (p, npairs) or self.v.shape != (p, npairs):
            raise ValidationError(
                f"slack/multiplier shape {self.zeta.shape} inconsistent with beta {self.beta.shape}"
            )


@dataclass(frozen=True)
class Partition:
    """Location-to-group assignment with the group-level coefficient means."""

    assignment: np.ndarray     # (m,) int labels 0..K_hat-1, by first appearance
    K_hat: int
    alpha: np.ndarray          # (K_hat, p)
    group_sizes: np.ndarray    # (K_hat,) ints

    def __post_init__(self):
        lab = np.array(self.assignment, dtype=int, copy=True)
        lab.flags.writeable = False
        object.__setattr__(self, "assignment", lab)
        object.__setattr__(self, "alpha", _readonly(np.atleast_2d(self.alpha)))
        sizes = np.array(self.group_sizes, dtype=int, copy=True)
        sizes.flags.writeable = False
        object.__setattr__(self, "group_sizes", sizes)
        if len(np.unique(self.assignment)) != self.K_hat:
            raise ValidationError("K_hat does not match the number of distinct groups")
        if self.assignment.size and (self.assignment.min() < 0 or self.assignment.max() != self.K_hat - 1):
            raise ValidationError("group labels must be 0..K_hat-1")
        if int(self.group_sizes.sum()) != self.assignment.size:
            raise ValidationError("group sizes must sum to the number of locations")

    @property
    def m(self) -> int:
        return self.assignment.size
