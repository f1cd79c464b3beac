"""Output checks computed outside the program, from its documented definitions.

Each check returns a list of problems (empty when the output is right).  The
formulas are written out here rather than calling the program's own code, so
a change that breaks the program cannot also break its check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

REL = 1e-9


def close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def primal_residual(beta: np.ndarray, zeta: np.ndarray) -> float:
    """``|| (beta_i - beta_j - zeta_ij) over pairs i < j ||`` with zeta as (p, n_pairs)."""
    i, j = np.triu_indices(beta.shape[0], k=1)
    return float(np.linalg.norm(beta[i] - beta[j] - zeta.T))


def check_fit(fit, tol: float, max_iter: int) -> list[str]:
    """A candidate fit's residual, convergence flag and iteration count agree."""
    problems = []
    if not (np.all(np.isfinite(fit.beta)) and np.all(np.isfinite(fit.zeta))):
        problems.append("non-finite coefficients or slacks")
        return problems
    r = primal_residual(fit.beta, fit.zeta)
    if not abs(r - fit.final_residual) <= 1e-12 + 1e-8 * r:
        problems.append(f"primal residual {r!r} != reported {fit.final_residual!r}")
    if fit.converged != (r < tol):
        problems.append(f"converged={fit.converged} but primal residual {r!r} vs tol {tol!r}")
    if not fit.converged and fit.iterations != max_iter:
        problems.append(f"not converged after {fit.iterations} < max_iter={max_iter} iterations")
    return problems


def components(zeta: np.ndarray, m: int, zero_tol: float) -> np.ndarray:
    """Connected components of the zero-slack graph, labelled by first appearance."""
    i, j = np.triu_indices(m, k=1)
    edge = np.linalg.norm(zeta, axis=0) <= zero_tol
    graph = coo_matrix((np.ones(int(edge.sum())), (i[edge], j[edge])), shape=(m, m))
    _, raw = connected_components(graph, directed=False)
    _, first = np.unique(raw, return_index=True)
    relabel = np.empty(first.size, dtype=int)
    relabel[np.argsort(first)] = np.arange(first.size)
    return relabel[raw]


def check_partition(fit, part, zero_tol: float) -> list[str]:
    """Groups are the zero-slack components and alpha the group means of beta."""
    labels = components(fit.zeta, fit.beta.shape[0], zero_tol)
    if part.K_hat != labels.max() + 1 or not np.array_equal(part.assignment, labels):
        return [f"partition K_hat={part.K_hat} differs from the zero-slack components "
                f"(K={labels.max() + 1})"]
    means = np.stack([fit.beta[labels == k].mean(axis=0) for k in range(part.K_hat)])
    if not np.allclose(part.alpha, means, rtol=1e-12, atol=1e-12):
        return ["group coefficients are not the member means of beta"]
    return []


def modified_bic(data, beta, eta, K_hat: int, count_q: bool) -> float:
    """``log(mean_i sum_h w~_ih r_ih^2) + log(mp+q) (log m / m) (K_hat p [+ q])``.

    ``w~`` are the inverse inclusion probabilities normalised within each
    location.
    """
    total = 0.0
    for i, b in enumerate(data.locations):
        r = b.y - b.X @ beta[i]
        if data.q:
            r = r - b.Z @ eta
        w = (1.0 / b.pi) / np.sum(1.0 / b.pi)
        total += float(np.sum(w * r * r))
    m, p, q = data.m, data.p, data.q
    units = K_hat * p + (q if count_q else 0)
    return math.log(max(total / m, 1e-300)) + math.log(m * p + q) * (math.log(m) / m) * units


def check_selection(data, lam_star, fit, part, path, count_q: bool) -> list[str]:
    """BIC of every candidate recomputed; the selected one is the rule's argmin.

    The rule: among converged candidates (all, when none converged) take the
    smallest BIC, ties toward the smaller lambda.
    """
    problems = []
    for rec in path.records:
        bic = modified_bic(data, rec.fit.beta, rec.fit.eta, rec.partition.K_hat, count_q)
        if not close(bic, rec.bic):
            problems.append(f"BIC at lambda={rec.lam!r}: {rec.bic!r}, recomputed {bic!r}")
    pool = [r for r in path.records if r.converged] or list(path.records)
    best = min(pool, key=lambda r: (r.bic, r.lam))
    if best.lam != lam_star or best.fit is not fit or best.partition is not part:
        problems.append(f"selected lambda {lam_star!r}, BIC rule gives {best.lam!r}")
    return problems


def adjusted_rand(a: np.ndarray, b: np.ndarray) -> float:
    """Hubert-Arabie ARI from the contingency table (1 for identical labels)."""
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1.0)
    pairs = lambda x: float(np.sum(x * (x - 1) / 2))  # noqa: E731
    index, sa, sb = pairs(table), pairs(table.sum(1)), pairs(table.sum(0))
    total = a.size * (a.size - 1) / 2
    expected = sa * sb / total
    denom = 0.5 * (sa + sb) - expected
    if denom == 0:
        return 1.0 if np.array_equal(ai, bi) else 0.0
    return (index - expected) / denom


def score_scale(data, assignment: np.ndarray, K: int) -> float:
    """Size of the weighted score at zero coefficients, to scale the refit check."""
    return max(float(np.abs(score(data, assignment, np.zeros(data.q),
                                  np.zeros((K, data.p)))).max()), 1e-300)


def score(data, assignment, eta, alpha) -> np.ndarray:
    """Gradient of the weighted loss in (eta, alpha) with coefficients tied in groups."""
    g_eta = np.zeros(data.q)
    g_alpha = np.zeros_like(np.asarray(alpha, dtype=float))
    for i, b in enumerate(data.locations):
        w = 1.0 / (b.N * b.pi)
        if b.sigma2 is not None:
            w = w / b.sigma2
        k = int(assignment[i])
        r = b.y - b.X @ alpha[k] - (b.Z @ eta if data.q else 0.0)
        if data.q:
            g_eta -= b.Z.T @ (w * r)
        g_alpha[k] -= b.X.T @ (w * r)
    return np.concatenate([g_eta, g_alpha.reshape(-1)])
