"""Slow-but-independent reference computations used only by the tests.

Each oracle recomputes a quantity along a different route than the library:
numeric quadrature for the penalty, direct normal equations for the weighted
fits, grid-plus-golden-section search for the proximal map, exhaustive
set-partition enumeration for the global objective, and ``csv`` plus ``float``
row by row for the dataset CSV.
"""

from __future__ import annotations

import collections
import csv
import itertools
import math

import numpy as np
from scipy.integrate import quad

import wccreg as w
from wccreg import admm


def scad_quadrature(t: float, spec: w.ScadSpec) -> float:
    """Adaptive quadrature of the penalty integrand; absolute error < 1e-12."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    lam, gam = spec.lam, spec.gamma
    if lam == 0 or t == 0:
        return 0.0

    def integrand(x):
        return lam * min(1.0, max(gam - x / lam, 0.0) / (gam - 1.0))

    # split at the integrand's kinks so quad converges tightly
    pts = [p for p in (lam, gam * lam) if 0 < p < t]
    val, _err = quad(integrand, 0.0, t, points=pts or None, limit=200, epsabs=1e-13)
    return val


def row_weights(block: w.LocationBlock) -> np.ndarray:
    """The loss weight of each row of a location: ``1/(N pi)``, divided by
    ``sigma2`` when the location has known variances."""
    wt = 1.0 / (block.N * block.pi)
    if block.sigma2 is not None:
        wt = wt / block.sigma2
    return wt


def bic_weights(block: w.LocationBlock) -> np.ndarray:
    """The BIC weight of each row of a location: its inverse inclusion
    probability over the sum of them in the location."""
    inv_pi = 1.0 / block.pi
    return inv_pi / inv_pi.sum()


def weighted_ls(block: w.LocationBlock) -> np.ndarray:
    """Closed-form (X'WX)^{-1} X'Wy with the composite row weights."""
    wt = row_weights(block)
    Xw = block.X * np.sqrt(wt)[:, None]
    yw = block.y * np.sqrt(wt)
    sol, *_ = np.linalg.lstsq(Xw, yw, rcond=None)
    return sol


def csv_locations(path, p: int, q: int) -> list[dict]:
    """The locations of a dataset CSV read with ``csv`` and ``float`` alone.

    Header names and ids are stripped, rows whose fields are all blank are
    skipped, and locations come in order of first appearance with their rows
    in file order.  Each is a dict of the block fields, N as an int.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    col = {name.strip(): k for k, name in enumerate(rows[0])}
    members = collections.defaultdict(list)
    for row in rows[1:]:
        if "".join(row).strip():
            members[row[col["location_id"]].strip()].append(row)

    def column(rows, name):
        return np.array([float(r[col[name]]) for r in rows])

    return [{"location_id": lid, "N": int(column(rs, "N")[0]), "y": column(rs, "y"),
             "X": np.column_stack([column(rs, f"x{j + 1}") for j in range(p)]),
             "Z": np.column_stack([column(rs, f"z{j + 1}") for j in range(q)]) if q
             else np.zeros((len(rs), 0)),
             "pi": column(rs, "pi"), "sigma2": column(rs, "sigma2") if "sigma2" in col else None}
            for lid, rs in members.items()]


def prox_numeric(kappa: np.ndarray, spec: w.ScadSpec, vartheta: float) -> np.ndarray:
    """Line search for the proximal minimizer along the kappa direction.

    10,001 uniformly spaced seeds on [0, 2||kappa||] refined by golden-section
    around the best seed.
    """
    kappa = np.asarray(kappa, dtype=float)
    nrm = float(np.linalg.norm(kappa))
    if nrm == 0.0:
        return np.zeros_like(kappa)

    def objective(s):
        return 0.5 * vartheta * (nrm - s) ** 2 + w.scad_value(s, spec)

    grid = np.linspace(0.0, 2.0 * nrm, 10001)
    vals = 0.5 * vartheta * (nrm - grid) ** 2 + w.scad_value(grid, spec)
    k = int(np.argmin(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(200):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
        if b - a < 1e-13 * max(1.0, nrm):
            break
    s_best = min((a + b) / 2.0, grid[k], key=objective)
    return s_best * kappa / nrm


def proximal_objective(zeta: np.ndarray, kappa: np.ndarray, spec: w.ScadSpec,
                       vartheta: float) -> float:
    zeta = np.asarray(zeta, dtype=float)
    return (0.5 * vartheta * float(np.sum((np.asarray(kappa) - zeta) ** 2))
            + w.scad_value(float(np.linalg.norm(zeta)), spec))


def set_partitions(items):
    """All set partitions of a sequence (restricted-growth enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for k in range(len(sub)):
            yield sub[:k] + [[first] + sub[k]] + sub[k + 1:]
        yield [[first]] + sub


def partition_from_groups(groups, m: int, p: int, data=None) -> w.Partition:
    labels = np.empty(m, dtype=int)
    ordered = sorted(groups, key=min)
    for k, g in enumerate(ordered):
        for i in g:
            labels[i] = k
    # relabel by first appearance to satisfy the container invariant
    relabel: dict[int, int] = {}
    out = np.empty(m, dtype=int)
    for i, lab in enumerate(labels):
        if lab not in relabel:
            relabel[lab] = len(relabel)
        out[i] = relabel[lab]
    return w.Partition(assignment=out, alpha=np.zeros((len(relabel), p)))


def weighted_loss(data: w.Dataset, beta, eta) -> float:
    """Half the weighted residual sum of squares, location by location (no penalty)."""
    beta = np.atleast_2d(beta)
    eta = np.atleast_1d(eta)
    total = 0.0
    for i, block in enumerate(data.locations):
        wt = row_weights(block)
        resid = block.y - block.X @ beta[i]
        if data.q:
            resid = resid - block.Z @ eta
        total += 0.5 * float(np.sum(wt * resid * resid))
    return total


def objective(data: w.Dataset, beta, eta, spec: w.ScadSpec) -> float:
    """Weighted loss plus the penalty on every pairwise difference, pair by pair."""
    beta = np.atleast_2d(beta)
    penalty = sum(w.scad_value(float(np.linalg.norm(beta[i] - beta[j])), spec)
                  for i, j in itertools.combinations(range(data.m), 2))
    return weighted_loss(data, beta, eta) + penalty


def brute_force_partition(data: w.Dataset, spec: w.ScadSpec):
    """Exhaustive search over all groupings of the locations.

    For each set partition, coefficients are tied by group and refit; the
    score is the full objective (loss at the tied fit plus the pairwise
    penalty between the implied per-location coefficients).
    """
    m = data.m
    if m > 5:
        raise ValueError("brute force restricted to m <= 5")
    best = None
    for groups in set_partitions(range(m)):
        part = partition_from_groups(groups, m, data.p)
        eta, alpha = w.refit_oracle(data, part)
        part = w.Partition(assignment=part.assignment, alpha=alpha)
        beta = alpha[part.assignment]
        obj = objective(data, beta, eta, spec)
        if best is None or obj < best[1]:
            best = (part, obj)
    return best


def collapsed_design(data: w.Dataset, assignment) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense tied design C, composite weights and responses over all rows.

    The rows of location i carry Z_i in the first q columns and X_i in the
    p columns of its group; this is the design the group refit regresses on.
    """
    K = int(np.max(assignment)) + 1
    C = np.zeros((data.n_total, data.q + K * data.p))
    wt, ys = [], []
    start = 0
    for i, block in enumerate(data.locations):
        stop = start + block.n
        C[start:stop, :data.q] = block.Z
        off = data.q + int(assignment[i]) * data.p
        C[start:stop, off:off + data.p] = block.X
        wt.append(row_weights(block))
        ys.append(block.y)
        start = stop
    return C, np.concatenate(wt), np.concatenate(ys)


def collapsed_score(data: w.Dataset, partition: w.Partition, eta, alpha) -> np.ndarray:
    """Gradient of the weighted loss in (eta, alpha) at the tied coefficients.

    Vanishes (to solver precision) at the group refit's output.
    """
    C, wt, y = collapsed_design(data, partition.assignment)
    theta = np.concatenate([np.atleast_1d(eta), np.atleast_2d(alpha).reshape(-1)])
    return -C.T @ (wt * (y - C @ theta))


def collapsed_wls(data: w.Dataset, partition: w.Partition) -> tuple[np.ndarray, np.ndarray]:
    """Group refit by least squares on the square-root-weighted dense design."""
    C, wt, y = collapsed_design(data, partition.assignment)
    sw = np.sqrt(wt)
    sol, *_ = np.linalg.lstsq(C * sw[:, None], y * sw, rcond=None)
    return sol[:data.q], sol[data.q:].reshape(-1, data.p)


def difference_matrix(m: int) -> np.ndarray:
    """Dense (n_pairs, m) signed incidence matrix; row l is e_i - e_j.

    Pairs are enumerated as (0,1), (0,2), ..., (1,2), ..., the order the
    solver's pair index uses.
    """
    pairs = list(itertools.combinations(range(m), 2))
    D = np.zeros((len(pairs), m))
    for l, (i, j) in enumerate(pairs):
        D[l, i] = 1.0
        D[l, j] = -1.0
    return D


def dense_fused_gram(m: int, p: int) -> np.ndarray:
    """Explicit D'D (x) I_p built from the materialized difference matrix."""
    D = difference_matrix(m)
    return np.kron(D.T @ D, np.eye(p))


def dense_update_matrix(data: w.Dataset, scale: float, z_jitter: float = 0.0) -> np.ndarray:
    """Dense coefficient update matrix ``X'QX + scale D'D (x) I_p``.

    X'QX is the Schur complement of the Z block in the weighted Gram matrix of
    the full design (Z, then one column block per location), solved densely;
    ``z_jitter`` is added to the Z block's diagonal first, as the solver does
    when Z'WZ is singular.
    """
    q = data.q
    C, wt, _ = collapsed_design(data, np.arange(data.m))
    G = C.T @ (wt[:, None] * C)
    Gz = G[:q, :q] + z_jitter * np.eye(q)
    XtQX = G[q:, q:] - G[q:, :q] @ np.linalg.solve(Gz, G[:q, q:]) if q else G
    return XtQX + scale * dense_fused_gram(data.m, data.p)


def connected_labels(m: int, edges) -> np.ndarray:
    """Component label of each node by breadth-first search over undirected edges."""
    neighbours = [[] for _ in range(m)]
    for a, b in edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    labels = [-1] * m
    for start in range(m):
        if labels[start] >= 0:
            continue
        comp = max(labels) + 1
        labels[start] = comp
        queue = collections.deque([start])
        while queue:
            node = queue.popleft()
            for nxt in neighbours[node]:
                if labels[nxt] < 0:
                    labels[nxt] = comp
                    queue.append(nxt)
    return np.array(labels)


def ari_pair_counts(labels_a, labels_b) -> float:
    """ARI from brute-force pair decisions (TP plus the marginal same-pair counts)."""
    tp, tn, fp, fn = w.rand_index_counts(labels_a, labels_b)
    total = tp + tn + fp + fn
    same_a = tp + fn
    same_b = tp + fp
    expected = same_a * same_b / total
    maximum = 0.5 * (same_a + same_b)
    if maximum == expected:
        return 1.0 if fp == fn == 0 else 0.0
    return (tp - expected) / (maximum - expected)


def dense_admm(data: w.Dataset, spec: w.ScadSpec, cfg: w.AdmmConfig) -> dict:
    """Textbook ADMM on the dense normal system, one proximal call per pair.

    The coefficient step solves the full (q + m p) normal equations of the
    loss plus ``vartheta/2 ||A beta - zeta + v/vartheta||^2`` with
    ``np.linalg.solve``, where A is the materialized pair-difference matrix
    (x) I_p; the slack step applies the scalar :func:`wccreg.zeta_proximal`
    to each pair.  Same start, stopping rule and residual definitions as the
    solver: the dual residual is ``vartheta ||A'(zeta_k - zeta_{k-1})||`` of
    the last iteration.
    """
    m, p, q, vt = data.m, data.p, data.q, cfg.vartheta
    C, wt, y = collapsed_design(data, np.arange(m))      # columns: Z, then beta_1..beta_m
    G = C.T @ (wt[:, None] * C)
    b = C.T @ (wt * y)
    A = np.kron(difference_matrix(m), np.eye(p))
    AtA = np.zeros_like(G)
    AtA[q:, q:] = A.T @ A

    def solve(scale, extra):
        rhs = b.copy()
        rhs[q:] += extra
        sol = np.linalg.solve(G + scale * AtA, rhs)
        return sol[q:], sol[:q]

    beta, eta = solve(2.0 * cfg.init_ridge, 0.0)
    zeta = A @ beta
    v = np.zeros_like(zeta)
    for k in range(cfg.max_iter):
        beta, eta = solve(vt, A.T @ (vt * zeta - v))
        diffs = A @ beta
        kappa = (diffs + v / vt).reshape(-1, p)
        zeta_new = np.concatenate([w.zeta_proximal(row, spec, vt) for row in kappa])
        v = v + vt * (diffs - zeta_new)
        primal = float(np.linalg.norm(diffs - zeta_new))
        dual = vt * float(np.linalg.norm(A.T @ (zeta_new - zeta)))
        zeta = zeta_new
        if primal < cfg.tol:
            break
    return {"beta": beta.reshape(m, p), "eta": eta, "zeta": zeta.reshape(-1, p).T,
            "v": v.reshape(-1, p).T, "iterations": k + 1, "final_residual": primal,
            "final_dual_residual": dual}


def prox_columns_branchwise(kappa: np.ndarray, spec: w.ScadSpec, vartheta: float) -> np.ndarray:
    """The column proximal map with one full-length pass per branch decision.

    Same float operations per element as :func:`wccreg.penalty.prox_columns`:
    the threshold and the divisor each picked by ``np.where`` on the
    soft-threshold test, and the identity branch wherever a column is past
    both ``lam + lam/vartheta`` and ``gamma*lam``, which a NaN norm is not:
    a NaN column gets the factor 0, as a dead one does.  It divides by the
    norm itself, so a dead column's ``1 - t/norm`` is at most 0 (or nan),
    which ``fmax`` takes to 0.
    """
    lam, gam = spec.lam, spec.gamma
    if lam == 0:
        return kappa.copy()
    norms = np.abs(kappa[0]) if kappa.shape[0] == 1 else np.sqrt(np.einsum("kl,kl->l", kappa, kappa))
    low = norms <= lam + lam / vartheta
    shrink = 1.0 / ((gam - 1.0) * vartheta)
    thr = np.where(low, lam / vartheta, gam * lam * shrink)
    # a zero or subnormal norm gives t/norm = inf (or nan), which fmax zeroes
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = np.fmax(0.0, 1.0 - thr / norms) / np.where(low, 1.0, 1.0 - shrink)
    scale = np.where((norms > lam + lam / vartheta) & (norms > gam * lam), 1.0, scale)
    return kappa * scale


def unscaled_admm(data: w.Dataset, spec: w.ScadSpec, cfg: w.AdmmConfig) -> w.FitResult:
    """The solver's ADMM loop in unscaled form, on the solver's own bundle.

    It carries the multiplier v itself: the coefficient step solves against
    ``X'Qy + D'(vartheta zeta - v)``, the slack step maps ``D beta + v/vartheta``
    with :func:`prox_columns_branchwise`, the multiplier steps by
    ``vartheta (D beta - zeta)``, differences are taken over the oracle's own
    ``np.triu_indices`` pair list and the residuals are ``np.linalg.norm``.
    Same start, stopping rule and reported fields as :func:`wccreg.fit`.
    """
    bundle = admm.prepared(data)
    vt = cfg.vartheta
    i, j = np.triu_indices(data.m, 1)

    def differences(beta):
        return np.ascontiguousarray((beta[i] - beta[j]).T)

    beta = w.initialize(data, cfg)
    zeta = differences(beta)
    v = np.zeros_like(zeta)
    factor = bundle.factor(vt)
    for k in range(cfg.max_iter):
        rhs = bundle.XtQy + bundle.difference_adjoint(vt * zeta - v).reshape(-1)
        beta = admm._structured_solve(factor, rhs)
        diffs = differences(beta)
        zeta_prev, zeta = zeta, prox_columns_branchwise(diffs + v / vt, spec, vt)
        v = v + vt * (diffs - zeta)
        primal = float(np.linalg.norm(diffs - zeta))
        if primal < cfg.tol:
            break
    dual = vt * float(np.linalg.norm(bundle.difference_adjoint(zeta - zeta_prev)))
    return w.FitResult(beta=beta, eta=bundle.eta_update(beta), zeta=zeta, v=v,
                       iterations=k + 1, final_residual=primal,
                       converged=primal < cfg.tol, final_dual_residual=dual)


def keyed_rng(seed: int, *key: int) -> np.random.Generator:
    """The substream the simulation documents for ``(seed, rep, purpose, location, ...)``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def clamped_probabilities(scores, expected_n: float) -> np.ndarray:
    """The documented clamp, unit by unit: invalid scores take the smallest
    valid one (1e-12 if none), scale to sum ``expected_n``, clip to [1e-6, 1]."""
    valid = [s for s in scores if math.isfinite(s) and s > 0]
    fill = min(valid) if valid else 1e-12
    fixed = [s if math.isfinite(s) and s > 0 else fill for s in scores]
    total = math.fsum(fixed)
    return np.array([min(1.0, max(1e-6, expected_n * s / total)) for s in fixed])


def population_location(kind: str, seed: int, rep: int, i: int, expected_n: float,
                        H: int = 120) -> dict:
    """Location ``i`` of the fixed study design, redrawn from its own substream.

    Three equally likely groups.  Mean model: y = mu_k + 0.25 e with mu in
    (1.2, 1.5, 1.8), scores exp(y) / 1 / log(y).  Regression: x ~ N(0, 1),
    y = b_k0 + b_k1 x + eps with b_k in ((1, 1), (1.5, 1.5), (2, 2)),
    eps = sigma e with sigma = 0.1 exp(0.8 (b_k0 + b_k1 x)), scores
    eps^3 / 1 / exp(-eps^(-1/2)).
    """
    rng = keyed_rng(seed, rep, 0, i)
    k = int(rng.choice(3, p=[1 / 3] * 3))
    if kind == "mean_model":
        mu = (1.2, 1.5, 1.8)[k]
        y = mu + 0.25 * rng.standard_normal(H)
        with np.errstate(invalid="ignore", divide="ignore"):
            scores = (np.exp(y), np.ones(H), np.log(y))[k]
        return {"label": k, "truth": np.array([mu]), "y": y, "X": np.ones((H, 1)),
                "sigma": None, "pi": clamped_probabilities(scores, expected_n)}
    b0, b1 = ((1.0, 1.0), (1.5, 1.5), (2.0, 2.0))[k]
    x = rng.standard_normal(H)
    sigma = 0.1 * np.exp(0.8 * (b0 + b1 * x))
    eps = sigma * rng.standard_normal(H)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        scores = (eps ** 3, np.ones(H), np.exp(-eps ** (-0.5)))[k]
    return {"label": k, "truth": np.array([b0, b1]), "y": b0 + b1 * x + eps,
            "X": np.column_stack([np.ones(H), x]), "sigma": sigma,
            "pi": clamped_probabilities(scores, expected_n)}
