import numpy as np
import pytest

import wccreg as w
from wccreg import io as wio


def stack(blocks):
    """The dataset of ``blocks`` (:class:`wccreg.LocationBlock` records, held
    as given), stacked in order through the one constructor."""
    blocks = tuple(blocks)
    rows = {name: np.concatenate([np.asarray(getattr(b, name), dtype=float) for b in blocks])
            for name in ("y", "X", "Z", "pi")}
    sigma2 = None if blocks[0].sigma2 is None else np.concatenate([b.sigma2 for b in blocks])
    return w.Dataset([b.location_id for b in blocks], np.cumsum([0] + [len(b.y) for b in blocks]),
                     [b.N for b in blocks], sigma2=sigma2, **rows)


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
    return stack(blocks), np.vstack(truths)


def write_dataset_csv(path, ds, rng=None):
    """Write ``ds`` in the CSV schema with round-trip float text.

    With ``rng`` the locations' rows are interleaved at random, each location
    first appearing in dataset order and keeping its row order, and one blank
    line goes in among them.
    """
    header = ",".join(wio.expected_columns(ds.p, ds.q, ds.locations[0].sigma2 is not None))
    rows = [[] for _ in ds.locations]
    for k, b in enumerate(ds.locations):
        for h in range(b.n):
            values = [b.y[h], b.pi[h]] + ([b.sigma2[h]] if b.sigma2 is not None else [])
            values += list(b.X[h]) + list(b.Z[h])
            rows[k].append(",".join([b.location_id, str(b.N)] + [repr(float(v)) for v in values]))
    if rng is None:
        lines = [line for r in rows for line in r]
    else:
        lines = [r[0] for r in rows]
        rest = [k for k, r in enumerate(rows) for _ in r[1:]]
        rng.shuffle(rest)
        nxt = [1] * len(rows)
        for k in rest:
            lines.append(rows[k][nxt[k]])
            nxt[k] += 1
        lines.insert(int(rng.integers(1, len(lines))), "")
    path.write_text("\n".join([header] + lines) + "\n", encoding="utf-8")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
