"""Core data containers shared by the solver, selection and simulation layers.

A dataset holds its sample once, stacked: the sampled rows of every location,
location after location, as contiguous read-only arrays ``y``, ``X``, ``Z``,
``pi`` and the optional ``sigma2``, with per-location ids, population sizes
``N`` and CSR-style row offsets (location i owns rows
``offsets[i]:offsets[i + 1]``).  Unsampled population units are never
represented.  The solver, the BIC, the refit and the Monte Carlo study read
these arrays and never a list of blocks.

:class:`LocationBlock` is the constructor for small inputs, ``Dataset(blocks)``
stacks blocks, and :meth:`Dataset.from_arrays` takes stacked rows as they come
from a reader or a sampler.  All of them go through one vectorized check
(:func:`_check_stacked`) that names the first offending location; that is the
one check, also when reached through ``dataclasses.replace`` on a block, and
nothing downstream repeats it.  ``Dataset.locations`` gives the locations back
as read-only block views of the stacked rows, built on first read and not
checked again.

All containers are frozen dataclasses holding read-only numpy arrays, so they
can be shared freely across threads.  A dataset also keeps the solver's
precomputation, attached on first use outside its dataclass fields (see
``admm.prepared``); threads that race there only build an equal
precomputation twice.
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
    out = np.array(a, dtype=float, order="C")
    out.flags.writeable = False
    return out


def _rows(y, X, Z, pi, sigma2) -> tuple:
    """Row arrays as read-only contiguous float copies: y, pi and sigma2 1-D,
    X and Z 2-D (a 1-D Z is read as one column per row)."""
    y = _readonly(np.atleast_1d(y))
    Z = np.asarray(Z, dtype=float)
    if Z.ndim == 1:
        Z = Z.reshape(len(y), -1)
    return (y, _readonly(np.atleast_2d(X)), _readonly(Z), _readonly(np.atleast_1d(pi)),
            None if sigma2 is None else _readonly(np.atleast_1d(sigma2)))


@dataclass(frozen=True)
class LocationBlock:
    """Sampled observations of one location.

    Parameters
    ----------
    location_id : str
        Opaque identifier; ordering of blocks inside a Dataset fixes the
        pairwise index once and for all.
    N : int
        Population size of the location: a finite integer, at least the
        number of sampled rows.  Kept as an ``int``.
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
        rows = _rows(self.y, self.X, self.Z, self.pi, self.sigma2)
        N = _check_stacked((self.location_id,), np.array([0, rows[0].shape[0]]),
                           np.array([self.N], dtype=float), *rows)
        for name, value in zip(("N", "y", "X", "Z", "pi", "sigma2"), (int(N[0]),) + rows):
            object.__setattr__(self, name, value)

    @classmethod
    def _unchecked(cls, **fields) -> LocationBlock:
        """A block of fields that were checked as part of a dataset."""
        block = object.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(block, name, value)
        return block

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def q(self) -> int:
        return self.Z.shape[1]


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """All sampled observations, stacked location after location.

    ``Dataset(blocks)`` stacks a sequence of :class:`LocationBlock` whose p
    and q agree; :meth:`from_arrays` takes stacked rows.  Location i owns rows
    ``offsets[i]:offsets[i + 1]`` of ``y`` (n,), ``X`` (n, p), ``Z`` (n, q),
    ``pi`` (n,) and ``sigma2`` (n,) or None; ``ids`` and ``N`` (population
    sizes, integral float64) have one entry per location.  Every array is
    read-only and C-contiguous.  Two datasets are equal only when they are the
    same object.
    """

    ids: tuple
    offsets: np.ndarray
    N: np.ndarray
    y: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    pi: np.ndarray
    sigma2: Optional[np.ndarray]

    def __init__(self, locations):
        blocks = tuple(locations)
        for b in blocks:
            if not isinstance(b, LocationBlock):
                raise ValidationError("dataset locations must be LocationBlock instances")
            if b.p != blocks[0].p:
                raise ValidationError(
                    f"location {b.location_id!r}: p={b.p} does not match dataset p={blocks[0].p}")
            if b.q != blocks[0].q:
                raise ValidationError(
                    f"location {b.location_id!r}: q={b.q} does not match dataset q={blocks[0].q}")
        if not blocks:
            raise ValidationError("dataset has no locations")
        stacked = [np.concatenate([getattr(b, name) for b in blocks]) for name in ("y", "X", "Z", "pi")]
        # a block without known variances weighs its rows by 1/1, exactly as without the factor
        sigma2 = None
        if any(b.sigma2 is not None for b in blocks):
            sigma2 = np.concatenate([np.ones(b.n) if b.sigma2 is None else b.sigma2 for b in blocks])
        self._fill(tuple(b.location_id for b in blocks), np.cumsum([0] + [b.n for b in blocks]),
                   [b.N for b in blocks], *stacked, sigma2)

    @classmethod
    def from_arrays(cls, ids, offsets, N, y, X, Z, pi, sigma2=None) -> Dataset:
        """The checked dataset of stacked rows.

        ``N`` holds one population size per location, or one per row (as a
        CSV carries it); then every row of a location must give the same N.
        The arrays are copied.
        """
        data = cls.__new__(cls)
        data._fill(tuple(ids), offsets, N, y, X, Z, pi, sigma2)
        return data

    def _fill(self, ids, offsets, N, y, X, Z, pi, sigma2) -> None:
        offsets = np.array(offsets, dtype=np.intp)
        rows = _rows(y, X, Z, pi, sigma2)
        N = _check_stacked(ids, offsets, np.array(N, dtype=float), *rows)
        offsets.flags.writeable = N.flags.writeable = False
        for name, value in zip(("ids", "offsets", "N", "y", "X", "Z", "pi", "sigma2"),
                               (ids, offsets, N) + rows):
            object.__setattr__(self, name, value)

    @property
    def locations(self) -> tuple:
        """The locations as read-only :class:`LocationBlock` views of the
        stacked rows, built on first read and kept."""
        blocks = vars(self).get("_locations")
        if blocks is None:
            bounds = self.offsets.tolist()
            blocks = tuple(
                LocationBlock._unchecked(
                    location_id=lid, N=int(N), y=self.y[a:b], X=self.X[a:b], Z=self.Z[a:b],
                    pi=self.pi[a:b], sigma2=None if self.sigma2 is None else self.sigma2[a:b])
                for lid, N, a, b in zip(self.ids, self.N.tolist(), bounds, bounds[1:]))
            object.__setattr__(self, "_locations", blocks)
        return blocks

    @property
    def m(self) -> int:
        return len(self.ids)

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def q(self) -> int:
        return self.Z.shape[1]

    @property
    def n_total(self) -> int:
        return self.y.shape[0]

    def location_ids(self) -> list[str]:
        return list(self.ids)


def _check_stacked(ids: tuple, offsets: np.ndarray, N: np.ndarray, y, X, Z, pi, sigma2) -> np.ndarray:
    """The one check of stacked rows; returns the population size per location.

    A failure names the first offending location, and within it the first
    failing check in this order: N a finite integer (on every row, when N is
    given per row), one N on all its rows, at least one row, equal row counts
    in y, X, Z and pi, at least one X column, sigma2's length and sign, finite
    y, X and Z, inclusion probabilities in (0, 1], and N >= n.  The shape
    checks concern the whole stack and fall to its first location (a block is
    a stack of one).  Distinct ids are checked last.
    """
    m, n = len(ids), y.shape[0]
    if m < 1:
        raise ValidationError("dataset has no locations")
    if offsets.shape != (m + 1,) or offsets[0] != 0 or offsets[-1] != n \
            or np.any(offsets[1:] < offsets[:-1]) or N.shape[0] not in (m, n):
        raise ValidationError(f"{m} locations need {m + 1} nondecreasing row offsets from 0 "
                              f"to {n}, and N per location or per row")
    counts = np.diff(offsets)
    per_row = N.shape[0] != m
    failures = []   # (location, message), in the order of the checks

    def flag(bad, rows, text):
        """Record the first location flagged by ``bad`` (per row when ``rows``)
        with ``text``, or ``text(i, k)`` for location i and flagged entry k."""
        if bad.any():
            k = int(bad.argmax())
            i = min(int(np.searchsorted(offsets, k, "right")) - 1, m - 1) if rows else k
            failures.append((i, text(i, k) if callable(text) else text))

    flag(~(np.isfinite(N) & (np.floor(N) == N)), per_row,
         lambda i, k: f"N must be a finite integer, got {float(N[k])}")
    if per_row:
        changes = np.zeros(n, dtype=bool)
        changes[1:] = N[1:] != N[:-1]
        changes[offsets[:-1][counts > 0]] = False
        flag(changes, True, lambda i, k: "inconsistent N values "
             f"{sorted(set(N[offsets[i]:offsets[i + 1]].tolist()))}")
        N_rows, N = N, np.full(m, np.nan)
        N[counts > 0] = N_rows[offsets[:-1][counts > 0]]
    flag(counts < 1, False, "needs at least one sampled row")
    if X.shape[0] != n or Z.shape[0] != n or pi.shape[0] != n:
        failures.append((0, f"ragged rows (y has {n}, X has {X.shape[0]}, "
                            f"Z has {Z.shape[0]}, pi has {pi.shape[0]})"))
    if X.shape[1] < 1:
        failures.append((0, "X must have at least one column"))
    if sigma2 is not None:
        if sigma2.shape[0] != n:
            failures.append((0, f"sigma2 length {sigma2.shape[0]} != {n}"))
        flag(~(sigma2 > 0), True, "sigma2 must be strictly positive")
    for a in (y, X, Z):
        flag(~np.isfinite(a) if a.ndim == 1 else ~np.isfinite(a).all(axis=1), True,
             "non-finite values in y/X/Z")
    flag(~((pi > 0) & (pi <= 1)), True, "inclusion probabilities must lie in (0, 1]")
    flag(N < counts, False,
         lambda i, k: f"population size N={int(N[i])} smaller than sample size n={counts[i]}")
    if failures:
        i, text = min(failures, key=lambda f: f[0])
        raise ValidationError(f"location {ids[i]!r}: {text}")
    if len(set(ids)) < m:
        lid = next(lid for k, lid in enumerate(ids) if lid in ids[:k])
        raise ValidationError(f"duplicate location id {lid!r}")
    return N


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
        if not 0 < self.vartheta < np.inf:
            raise ValidationError(f"vartheta must be positive and finite, got {self.vartheta}")
        if not 0 < self.tol < np.inf:
            raise ValidationError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be at least 1")
        if not 0 <= self.init_ridge < np.inf:
            raise ValidationError(f"init_ridge must be nonnegative and finite, got {self.init_ridge}")


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
