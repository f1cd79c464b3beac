"""Core data containers shared by the solver, selection and simulation layers.

A dataset holds its sample once, stacked: the sampled rows of every location,
location after location, as contiguous read-only arrays ``y``, ``X``, ``Z``,
``pi`` and the optional ``sigma2``, with per-location ids, population sizes
``N`` and CSR-style row offsets (location i owns rows
``offsets[i]:offsets[i + 1]``).  Unsampled population units are never
represented.  The solver, the BIC, the refit and the Monte Carlo study read
these arrays.

``Dataset(ids, offsets, N, y, X, Z, pi, sigma2=None)`` is the one way to
build a dataset, from a reader, a sampler or ``dataclasses.replace`` alike.
It runs one vectorized check (:func:`_check_stacked`) that names the first
offending location, and nothing downstream repeats it.
``Dataset.locations`` gives the locations back as :class:`LocationBlock`
views of the stacked rows, built on first read.

All containers are frozen dataclasses holding read-only numpy arrays, so they
can be shared freely across threads.  :func:`_readonly` fixes each float
array's dimension: any other fails, named, and none is reshaped.  A dataset
also keeps the solver's precomputation, attached on first use outside its
dataclass fields (see ``admm.prepared``); threads that race there only build
an equal precomputation twice.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np


class ValidationError(ValueError):
    """Raised when a dataset or configuration violates its invariants."""


class SingularSystemError(RuntimeError):
    """Raised when a normal system stays singular even after diagonal jitter."""


def _readonly(a, ndim: int, name: str) -> np.ndarray:
    """``a`` as a read-only C-contiguous float64 array: ``a`` itself when it is
    one already and owns its data (as the solver's frozen results do),
    otherwise a copy.  It must have ``ndim`` dimensions; ``name`` names it."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.c_contiguous
            and not a.flags.writeable and a.flags.owndata):
        a = np.array(a, dtype=float, order="C")
        a.flags.writeable = False
    if a.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-D, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class LocationBlock:
    """One location's rows: a read-only view of a dataset's stacked rows, as
    :attr:`Dataset.locations` gives them (``N`` is an ``int``, ``y`` (n,),
    ``X`` (n, p), ``Z`` (n, q), ``pi`` and ``sigma2`` (n,) or None)."""

    location_id: str
    N: int
    y: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    pi: np.ndarray
    sigma2: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True, eq=False)
class Dataset:
    """All sampled observations, stacked location after location.

    Location i, with id ``ids[i]`` and population size ``N[i]``, owns rows
    ``offsets[i]:offsets[i + 1]`` of ``y`` (n,), ``X`` (n, p), ``Z`` (n, q),
    ``pi`` (n,) and ``sigma2`` (n,) or None.  ``N`` may also be given once per
    row, as a CSV carries it; then every row of a location must give the same
    N, and the dataset keeps one per location (integral float64).  The
    constructor copies the arrays into read-only C-contiguous float arrays
    (offsets as integers; a row array that already is one and owns its data
    is kept) and runs :func:`_check_stacked`, also when reached
    through ``dataclasses.replace`` or ``pickle`` (which keeps the fields
    alone).  Two datasets are equal only when they are the same object.
    """

    ids: tuple
    offsets: np.ndarray
    N: np.ndarray
    y: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    pi: np.ndarray
    sigma2: Optional[np.ndarray] = None

    def __post_init__(self):
        ids = tuple(self.ids)
        rows = (_readonly(self.y, 1, "y"), _readonly(self.X, 2, "X"), _readonly(self.Z, 2, "Z"),
                _readonly(self.pi, 1, "pi"),
                None if self.sigma2 is None else _readonly(self.sigma2, 1, "sigma2"))
        offsets, N = _check_stacked(ids, self.offsets, self.N, *rows)
        for f, value in zip(fields(self), (ids, offsets, N) + rows):
            object.__setattr__(self, f.name, value)

    def __reduce__(self):
        return Dataset, tuple(getattr(self, f.name) for f in fields(self))

    @functools.cached_property
    def locations(self) -> tuple:
        """The locations as :class:`LocationBlock` views of the stacked rows,
        built on first read and kept (not pickled)."""
        bounds = self.offsets.tolist()
        return tuple(
            LocationBlock(lid, int(N), self.y[a:b], self.X[a:b], self.Z[a:b], self.pi[a:b],
                          None if self.sigma2 is None else self.sigma2[a:b])
            for lid, N, a, b in zip(self.ids, self.N.tolist(), bounds, bounds[1:]))

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


def _check_stacked(ids: tuple, offsets, N, y, X, Z, pi, sigma2) -> tuple:
    """The one check of stacked rows; returns the read-only row offsets (as
    integers) and population sizes (one per location).

    The row arrays' dimensions are checked before, by :func:`_readonly`, so
    a wrong dimension is named before a missing location.  The stack as a
    whole is checked first, in this order: at least one location; N 1-D;
    finite integral row offsets; m + 1 nondecreasing offsets from 0 to n, and N per location or
    per row.  Then a failure names the first offending location, and within
    it the first failing check in this order: N a finite integer (on every
    row, when N is given per row), one N on all its rows, at least one row,
    equal row counts in y, X, Z and pi, at least one X column, sigma2's length
    and sign, finite y, X and Z, inclusion probabilities in (0, 1], and
    N >= n.  The shape checks concern the whole stack and fall to its first
    location.  Distinct ids are checked last.
    """
    m = len(ids)
    if m < 1:
        raise ValidationError("dataset has no locations")
    N = np.array(N, dtype=float)
    if N.ndim != 1:
        raise ValidationError(f"N must be 1-D, got shape {N.shape}")
    offsets = np.array(offsets, dtype=float)
    if not np.all(np.isfinite(offsets) & (np.floor(offsets) == offsets)):
        raise ValidationError(f"row offsets must be finite integers, got {offsets.tolist()}")
    offsets = offsets.astype(np.intp)
    n = y.shape[0]
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
    offsets.flags.writeable = N.flags.writeable = False
    return offsets, N


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


@dataclass(frozen=True, eq=False)
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
    never used for stopping.  The arrays (``eta`` 1-D, the rest 2-D) are
    held read-only: one that already is a read-only C-contiguous float64
    array owning its data, as ``admm.fit`` hands over zeta and v, is kept as
    is, and any other is copied.  Two results are equal only when they are
    the same object.
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
        for name, ndim in (("beta", 2), ("eta", 1), ("zeta", 2), ("v", 2)):
            object.__setattr__(self, name, _readonly(getattr(self, name), ndim, name))
        m, p = self.beta.shape
        npairs = m * (m - 1) // 2
        if self.zeta.shape != (p, npairs) or self.v.shape != (p, npairs):
            raise ValidationError(
                f"slack/multiplier shape {self.zeta.shape} inconsistent with beta {self.beta.shape}"
            )


@dataclass(frozen=True, eq=False)
class Partition:
    """Location-to-group labels (m,), each of 0..K_hat-1 used at least once,
    and the group-level coefficient means ``alpha`` (K_hat, p): ``K_hat`` is
    its row count and ``group_sizes`` the count of each label.  Two
    partitions are equal only when they are the same object."""

    assignment: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        lab = np.array(self.assignment, dtype=int, copy=True)
        if lab.ndim != 1:
            raise ValidationError(f"assignment must be 1-D, got shape {lab.shape}")
        lab.flags.writeable = False
        object.__setattr__(self, "assignment", lab)
        object.__setattr__(self, "alpha", _readonly(self.alpha, 2, "alpha"))
        if not np.array_equal(np.unique(lab), np.arange(self.K_hat)):
            raise ValidationError(f"group labels must be exactly 0..K_hat-1 for K_hat = {self.K_hat} "
                                  f"alpha rows, got {np.unique(lab).tolist()}")

    @property
    def K_hat(self) -> int:
        return self.alpha.shape[0]

    @property
    def group_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.K_hat)

    @property
    def m(self) -> int:
        return self.assignment.size
