import numpy as np
import pytest

import wccreg as w


def random_dataset(rng, m=None, p=None, q=0, n_range=(8, 25), spread=1.0,
                   noise=0.1, groups=None, sigma2=False):
    """Random survey dataset with optional planted group structure.

    ``groups``: list of true coefficient rows, cycled over locations; None
    draws every location's truth independently.
    """
    m = m or int(rng.integers(2, 8))
    p = p or int(rng.integers(1, 4))
    blocks = []
    truths = []
    for i in range(m):
        n = int(rng.integers(*n_range))
        if groups is not None:
            truth = np.asarray(groups[i % len(groups)], dtype=float)
        else:
            truth = spread * rng.standard_normal(p)
        truths.append(truth)
        X = rng.standard_normal((n, p))
        Z = rng.standard_normal((n, q)) if q else np.zeros((n, 0))
        eta = np.arange(1, q + 1, dtype=float) * 0.5
        s2 = rng.uniform(0.5, 2.0, n) if sigma2 else None
        scale = np.sqrt(s2) if sigma2 else 1.0
        y = X @ truth + (Z @ eta if q else 0.0) + noise * scale * rng.standard_normal(n)
        pi = rng.uniform(0.15, 1.0, n)
        blocks.append(w.LocationBlock(f"loc{i}", N=n + int(rng.integers(5, 50)), y=y, X=X,
                                      Z=Z, pi=pi, sigma2=s2))
    return w.Dataset(blocks), np.vstack(truths)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
