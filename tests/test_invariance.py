"""Exact invariances of the whole lambda selection.

Doubling the responses doubles every solution: the weighted loss and the
SCAD penalty (with lambda doubled) are jointly homogeneous of degree 2, and
multiplying by 2 is exact in binary floating point.  So with ``tol``, the
grid and the fused-slack threshold doubled too, ``select_lambda`` must make
the same decisions on the same floats, times two.  The grid is passed
explicitly, because ``np.geomspace`` at 2a is not exactly twice the grid at a.
Every BIC moves by log 4, to within 1e-15 or two units in the last place of
the BIC, whichever is larger (at a BIC of 15 one unit is 1.8e-15).

Three rewritings of the sample leave the whole selection unchanged up to the
order of float sums: a row with inclusion probability pi <= 1/2 split into
two rows with 2 pi (its weight is shared, not changed), the locations taken
in another order, and the rows of each location taken in another order.
Each must pick the same lambda after the same iterations and reach the same
partitions; beta may move by 1e-13 and the BIC by 1e-14 (they move by up to
4.4e-14 and 1.8e-15 here).  Again one explicit grid goes to both sides,
since the split moves the default grid (by 1.1e-15 on the regression case
here) and so does a row permutation (by 8.9e-16 there).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import wccreg as w
from wccreg import simulation
from wccreg.grouping import ZERO_TOL

from conftest import random_dataset


def _mean_cell():
    """The paper's mean cell (seed 7, n = 10, m = 49), replicate 0."""
    spec = w.ScenarioSpec(kind="mean_model", expected_n=10, m=49, seed=7)
    return simulation.poisson_sample(simulation.generate_population(spec, 0), spec.seed, 0)


def _assert_doubling(ds, grid, variant):
    cfg = w.AdmmConfig()
    lam, _, _, path = w.select_lambda(ds, grid, cfg=cfg, variant=variant)
    lam2, _, _, path2 = w.select_lambda(replace(ds, y=2 * ds.y), 2 * np.asarray(grid),
                                        cfg=replace(cfg, tol=2 * cfg.tol), variant=variant,
                                        zero_tol=2 * ZERO_TOL)
    assert lam2 == 2 * lam
    assert len(path2.records) == len(path.records) == len(grid)
    for rec, rec2 in zip(path.records, path2.records):
        assert rec2.lam == 2 * rec.lam
        for name in ("beta", "eta", "zeta", "v"):
            assert np.array_equal(getattr(rec2.fit, name), 2 * getattr(rec.fit, name)), \
                (rec.lam, name)
        assert (rec2.fit.iterations, rec2.fit.converged) == (rec.fit.iterations, rec.fit.converged)
        assert np.array_equal(rec2.partition.assignment, rec.partition.assignment)
        # the residual average quadruples exactly, so the BIC moves by log 4
        # up to the rounding of the logs and of the sums at the BIC's magnitude
        tol = max(1e-15, 2 * np.spacing(abs(rec2.bic)))
        assert abs(rec2.bic - rec.bic - math.log(4)) <= tol, rec.lam
        assert (rec2.fit.final_residual, rec2.fit.final_dual_residual) == \
            (2 * rec.fit.final_residual, 2 * rec.fit.final_dual_residual)
    return path


def test_mean_cell_selection_doubles_with_the_responses():
    ds = _mean_cell()
    path = _assert_doubling(ds, w.default_lambda_grid(ds), w.BicVariant(kind="mean_model"))
    assert len({r.partition.K_hat for r in path.records}) > 2


def test_regression_selection_with_variances_doubles_with_the_responses(rng):
    # p = 2, q = 1 with known variances: the variances weigh the rows and stay
    ds, _ = random_dataset(rng, m=12, p=2, q=1, sigma2=True, noise=0.5,
                           groups=[[1.0, 1.0], [2.0, 1.5]])
    path = _assert_doubling(ds, w.default_lambda_grid(ds, num=8), w.BicVariant())
    assert len({r.partition.K_hat for r in path.records}) > 1


@pytest.mark.parametrize("p", [1, 2])
def test_selection_above_the_support_gate_doubles_with_the_responses(rng, p):
    # m = 100 has 4,950 pairs, so the solver works on the slack support; a
    # short grid toward the fusing end of the default grid keeps the fits
    # cheap, from two groups to one
    ds, _ = random_dataset(rng, m=100, p=p, n_range=(4, 9), noise=0.3,
                           groups=[np.zeros(p), np.full(p, 2.0)])
    path = _assert_doubling(ds, w.default_lambda_grid(ds)[[17, 20, 23]], w.BicVariant())
    assert [r.partition.K_hat for r in path.records] == [2, 1, 1]


def _rebuilt(ds, ids, counts, N, rows, pi):
    """``ds`` with its locations ``ids`` (``counts`` rows each, sizes ``N``)
    holding rows ``rows`` of ``ds`` and the inclusion probabilities ``pi``."""
    return w.Dataset(ids, np.concatenate(([0], np.cumsum(counts))), N, ds.y[rows],
                     ds.X[rows], ds.Z[rows], pi,
                     None if ds.sigma2 is None else ds.sigma2[rows])


def _split_rows(ds):
    """Every row with pi <= 1/2 as two equal rows with 2 pi, in place."""
    copies = np.where(ds.pi <= 0.5, 2, 1)
    rows = np.repeat(np.arange(ds.n_total), copies)
    counts = np.add.reduceat(copies, ds.offsets[:-1])
    return _rebuilt(ds, ds.ids, counts, ds.N, rows, (ds.pi * copies)[rows])


def _permuted_locations(ds, order):
    """The locations of ``ds`` in the order ``order``, each with its rows."""
    rows = np.concatenate([np.arange(ds.offsets[k], ds.offsets[k + 1]) for k in order])
    return _rebuilt(ds, [ds.ids[k] for k in order], np.diff(ds.offsets)[order], ds.N[order],
                    rows, ds.pi[rows])


def _permuted_rows(ds, rng):
    """``ds`` with the rows of each location in a random order."""
    rows = np.concatenate([a + rng.permutation(b - a) for a, b in zip(ds.offsets[:-1], ds.offsets[1:])])
    return _rebuilt(ds, ds.ids, np.diff(ds.offsets), ds.N, rows, ds.pi[rows])


def _assert_same_selection(ds, other, grid, variant, order=None):
    """``other`` (``ds`` rewritten; its location j is location ``order[j]``
    of ``ds``) selects as ``ds`` does."""
    inverse = np.arange(ds.m) if order is None else np.argsort(order)
    lam, _, _, path = w.select_lambda(ds, grid, variant=variant)
    lam2, _, _, path2 = w.select_lambda(other, grid, variant=variant)
    assert lam2 == lam
    for rec, rec2 in zip(path.records, path2.records, strict=True):
        assert (rec2.fit.iterations, rec2.fit.converged) == \
            (rec.fit.iterations, rec.fit.converged), rec.lam
        same = rec.partition.assignment
        same2 = rec2.partition.assignment[inverse]
        assert np.array_equal(same[:, None] == same, same2[:, None] == same2), rec.lam
        assert np.abs(rec2.fit.beta[inverse] - rec.fit.beta).max() <= 1e-13, rec.lam
        assert abs(rec2.bic - rec.bic) <= 1e-14, rec.lam
    return path


def _small_regression(rng):
    ds, _ = random_dataset(rng, m=12, p=2, q=1, sigma2=True, noise=0.5,
                           groups=[[1.0, 1.0], [2.0, 1.5]])
    return ds, w.default_lambda_grid(ds, num=8), w.BicVariant()


def test_splitting_rows_keeps_the_mean_cell_selection():
    ds = _mean_cell()
    split = _split_rows(ds)
    assert split.n_total > ds.n_total
    path = _assert_same_selection(ds, split, w.default_lambda_grid(ds),
                                  w.BicVariant(kind="mean_model"))
    assert len({r.partition.K_hat for r in path.records}) > 2


def test_splitting_rows_keeps_the_regression_selection(rng):
    ds, grid, variant = _small_regression(rng)
    split = _split_rows(ds)
    assert split.n_total > ds.n_total
    path = _assert_same_selection(ds, split, grid, variant)
    assert len({r.partition.K_hat for r in path.records}) > 1


def test_reordering_locations_keeps_the_mean_cell_selection():
    ds = _mean_cell()
    order = np.random.default_rng(5).permutation(ds.m)
    path = _assert_same_selection(ds, _permuted_locations(ds, order), w.default_lambda_grid(ds),
                                  w.BicVariant(kind="mean_model"), order)
    assert len({r.partition.K_hat for r in path.records}) > 2


def test_reordering_locations_keeps_the_regression_selection(rng):
    ds, grid, variant = _small_regression(rng)
    order = np.random.default_rng(5).permutation(ds.m)
    path = _assert_same_selection(ds, _permuted_locations(ds, order), grid, variant, order)
    assert len({r.partition.K_hat for r in path.records}) > 1


def test_reordering_rows_keeps_the_mean_cell_selection():
    ds = _mean_cell()
    permuted = _permuted_rows(ds, np.random.default_rng(5))
    assert not np.array_equal(permuted.y, ds.y)
    path = _assert_same_selection(ds, permuted, w.default_lambda_grid(ds),
                                  w.BicVariant(kind="mean_model"))
    assert len({r.partition.K_hat for r in path.records}) > 2


def test_reordering_rows_keeps_the_regression_selection(rng):
    ds, grid, variant = _small_regression(rng)
    permuted = _permuted_rows(ds, np.random.default_rng(5))
    assert not np.array_equal(permuted.y, ds.y)
    path = _assert_same_selection(ds, permuted, grid, variant)
    assert len({r.partition.K_hat for r in path.records}) > 1
