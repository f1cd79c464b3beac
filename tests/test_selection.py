import logging
import math

import numpy as np
import pytest

import wccreg as w
from wccreg import admm, selection

import oracles
from conftest import random_dataset, stack


def _fit_and_partition(beta, eta, labels):
    m, p = beta.shape
    npairs = m * (m - 1) // 2
    fit = w.FitResult(beta=beta, eta=eta, zeta=np.zeros((p, npairs)), v=np.zeros((p, npairs)),
                      iterations=1, final_residual=0.0, converged=True)
    part = w.Partition(assignment=labels, alpha=np.zeros((int(max(labels)) + 1, p)))
    return fit, part


class TestModifiedBic:
    def test_hand_computation_with_shared_effect(self):
        # m = 2, p = 1, q = 1, eta = 2; residuals y - x beta_i - z eta by hand
        a = w.LocationBlock("a", 10, y=[4.0, 2.0], X=[[1.0], [1.0]], Z=[[1.0], [0.0]],
                            pi=[0.5, 0.25])
        b = w.LocationBlock("b", 10, y=[1.0, 0.0, 3.0], X=[[1.0], [2.0], [1.0]],
                            Z=[[0.0], [0.0], [1.0]], pi=[1.0, 1.0, 0.5])
        ds = stack([a, b])
        fit, part = _fit_and_partition(np.array([[1.0], [0.5]]), np.array([2.0]), [0, 1])
        # a: residuals 4-1-2 = 1 and 2-1 = 1; weights 2, 4 normalized to 1/3, 2/3 -> 1
        # b: residuals 1-0.5 = 0.5, 0-1 = -1, 3-0.5-2 = 0.5; weights 1, 1, 2 -> 1/4, 1/4, 1/2
        #    -> 0.0625 + 0.25 + 0.125 = 0.4375
        avg = (1.0 + 0.4375) / 2
        c_m = math.log(2 * 1 + 1)
        charge = c_m * math.log(2) / 2
        reg = w.modified_bic(ds, fit, part, w.BicVariant(kind=selection.REGRESSION))
        mean = w.modified_bic(ds, fit, part, w.BicVariant(kind=selection.MEAN_MODEL))
        assert reg == pytest.approx(math.log(avg) + charge * (2 * 1 + 1), abs=1e-14)
        assert mean == pytest.approx(math.log(avg) + charge * (2 * 1), abs=1e-14)

    @pytest.mark.parametrize("kind", [selection.REGRESSION, selection.MEAN_MODEL])
    def test_matches_loop_formula(self, rng, kind):
        ds, _ = random_dataset(rng, m=5, p=2, q=2)
        beta = rng.standard_normal((5, 2))
        eta = rng.standard_normal(2)
        fit, part = _fit_and_partition(beta, eta, [0, 1, 0, 2, 1])
        total = 0.0
        for i, blk in enumerate(ds.locations):
            wts = [1.0 / pi for pi in blk.pi]
            for h in range(blk.n):
                r = blk.y[h] - blk.X[h] @ beta[i] - blk.Z[h] @ eta
                total += wts[h] / sum(wts) * r * r
        units = 3 * 2 + (2 if kind == selection.REGRESSION else 0)
        expected = math.log(total / 5) + math.log(5 * 2 + 2) * math.log(5) / 5 * units
        assert w.modified_bic(ds, fit, part, w.BicVariant(kind=kind)) == pytest.approx(
            expected, abs=1e-12)

    def test_explicit_scale_constant(self, rng):
        ds, _ = random_dataset(rng, m=4, p=1, q=1)
        fit, part = _fit_and_partition(rng.standard_normal((4, 1)), np.zeros(1), [0, 0, 1, 1])
        default = w.modified_bic(ds, fit, part)
        scaled = w.modified_bic(ds, fit, part, w.BicVariant(C_m=2.0))
        units = 2 * 1 + 1
        assert scaled - default == pytest.approx(
            (2.0 - math.log(4 + 1)) * math.log(4) / 4 * units, abs=1e-12)


    def test_residual_floor_on_a_fit_that_interpolates_every_row(self, caplog):
        # every row is y = 2 x exactly at beta_i = 2, so the weighted residual
        # average is 0, and the log term is clamped at log(1e-300)
        blocks = [w.LocationBlock(lid, 10, y=[2.0, 4.0], X=[[1.0], [2.0]], Z=np.zeros((2, 0)),
                                  pi=[0.5, 0.25]) for lid in ("a", "b", "c")]
        ds = stack(blocks)
        fit, part = _fit_and_partition(np.full((3, 1), 2.0), np.zeros(0), [0, 0, 0])
        with caplog.at_level(logging.WARNING, logger="wccreg.selection"):
            bic = w.modified_bic(ds, fit, part)
        assert bic == math.log(1e-300) + math.log(3) * (math.log(3) / 3) * 1
        assert "BIC residual term clamped at 1e-300 (perfect interpolation?)" in caplog.text

    @pytest.mark.parametrize("kw, message", [({"kind": "aic"}, "unknown BIC variant kind 'aic'"),
                                             ({"C_m": 0.0}, "C_m must be positive"),
                                             ({"C_m": -1.0}, "C_m must be positive"),
                                             ({"C_m": float("nan")}, "C_m must be positive")])
    def test_bad_variant_rejected(self, kw, message):
        with pytest.raises(w.ValidationError) as err:
            w.BicVariant(**kw)
        assert str(err.value) == message


def _start_distances(ds):
    bundle = admm.prepared(ds)
    return np.linalg.norm(bundle.differences(w.initialize(ds, w.AdmmConfig())), axis=0)


class TestDefaultLambdaGrid:
    def test_spans_one_percent_of_the_widest_start_distance_to_it(self, rng):
        ds, _ = random_dataset(rng, m=5, p=2)
        anchor = float(_start_distances(ds).max())
        assert np.array_equal(w.default_lambda_grid(ds, num=6), np.geomspace(0.01 * anchor, anchor, 6))
        assert np.array_equal(w.default_lambda_grid(ds, num=1), [anchor])

    @pytest.mark.parametrize("p, q, sigma2", [(1, 0, False), (2, 0, False), (2, 1, True),
                                              (1, 2, True)])
    def test_anchor_is_the_widest_distance_of_the_dense_singleton_refit(self, rng, p, q, sigma2):
        # the unpenalized fit is the group refit at the singleton partition;
        # the oracle solves it as one dense least-squares problem, not
        # through the structured solve
        ds, _ = random_dataset(rng, m=6, p=p, q=q, sigma2=sigma2)
        singletons = w.Partition(assignment=np.arange(ds.m), alpha=np.zeros((ds.m, p)))
        _, alpha = oracles.collapsed_wls(ds, singletons)
        i, j = np.triu_indices(ds.m, k=1)
        widest = np.linalg.norm(alpha[i] - alpha[j], axis=1).max()
        (anchor,) = w.default_lambda_grid(ds, num=1)
        assert anchor == pytest.approx(widest, rel=1e-10, abs=0)
        assert w.default_lambda_grid(ds)[-1] == anchor

    @pytest.mark.parametrize("p", [1, 2])
    def test_single_location_anchors_at_one(self, rng, p):
        # m = 1 has no pairwise distance, so the anchor falls back to 1
        ds, _ = random_dataset(rng, m=1, p=p)
        assert np.array_equal(w.default_lambda_grid(ds, num=5), np.geomspace(0.01, 1.0, 5))
        assert np.array_equal(w.default_lambda_grid(ds, num=1), [1.0])


class TestSelectLambda:
    @pytest.mark.parametrize("grid, message", [
        ([0.5, 0.5, 1.0], "lambda grid must be strictly increasing"),
        ([0.0, 1.0], "lambda grid values must be positive and finite"),
        ([1.0, -0.5], "lambda grid values must be positive and finite"),
        ([1.0, float("nan")], "lambda grid values must be positive and finite"),
        ([1.0, float("inf")], "lambda grid values must be positive and finite"),
        ([], "lambda grid must be nonempty")])
    def test_invalid_grid_rejected_before_any_fit(self, rng, monkeypatch, grid, message):
        ds, _ = random_dataset(rng, m=4, p=1)
        fits = []
        real = admm.fit
        monkeypatch.setattr(admm, "fit", lambda *a, **k: fits.append(1) or real(*a, **k))
        with pytest.raises(w.ValidationError, match=f"^{message}$"):
            selection.select_lambda(ds, grid)
        assert fits == []

    @pytest.mark.parametrize("zero_tol", [-1.0, float("nan")])
    def test_invalid_zero_tol_rejected_before_any_fit(self, rng, monkeypatch, zero_tol):
        ds, _ = random_dataset(rng, m=4, p=1)
        fits = []
        real = admm.fit
        monkeypatch.setattr(admm, "fit", lambda *a, **k: fits.append(1) or real(*a, **k))
        with pytest.raises(w.ValidationError, match=f"^zero_tol must be nonnegative, got {zero_tol}$"):
            selection.select_lambda(ds, [0.01, 0.1], zero_tol=zero_tol)
        assert fits == []

    def test_tie_breaks_toward_smaller_lambda(self, rng, monkeypatch):
        ds, _ = random_dataset(rng, m=4, p=1)
        monkeypatch.setattr(selection, "modified_bic", lambda *args: 0.5)
        grid = [0.4, 0.2, 0.1, 0.05]
        lam, _, _, path = w.select_lambda(ds, grid)
        assert all(r.fit.converged for r in path.records)
        assert [r.lam for r in path.records] == [0.05, 0.1, 0.2, 0.4]
        assert lam == 0.05

    def test_skips_non_converged_candidates(self, rng, monkeypatch, caplog):
        ds, _ = random_dataset(rng, m=5, p=1, spread=2.0)
        dist = _start_distances(ds)
        # gamma * lam below every starting distance: the WLS start is a fixed
        # point, found in one iteration; lam at the widest distance needs more
        small = dist.min() / (3.0 * 10)
        large = [dist.max(), 2 * dist.max()]
        # scores favour the capped candidates, so only the skip keeps them out
        monkeypatch.setattr(selection, "modified_bic",
                            lambda data, fit, part, variant: 0.0 if fit.converged else -1.0)
        cfg = w.AdmmConfig(max_iter=2)
        with caplog.at_level(logging.WARNING, logger="wccreg.selection"):
            lam, fit, _, path = w.select_lambda(ds, [small] + large, cfg=cfg)
        assert [r.fit.converged for r in path.records] == [True, False, False]
        assert lam == small and fit.converged and fit.iterations == 1
        assert "skipping 2 non-converged candidates" in caplog.text

    def test_no_candidate_converged_selects_among_capped(self, rng, monkeypatch, caplog):
        ds, _ = random_dataset(rng, m=5, p=1, spread=2.0)
        dist = _start_distances(ds)
        grid = [dist.max(), 2 * dist.max(), 4 * dist.max()]
        # candidates are scored in increasing lambda; the middle one wins
        scores = iter([1.0, -1.0, 0.0])
        monkeypatch.setattr(selection, "modified_bic", lambda *args: next(scores))
        cfg = w.AdmmConfig(max_iter=2)
        with caplog.at_level(logging.WARNING, logger="wccreg.selection"):
            lam, fit, _, path = w.select_lambda(ds, grid, cfg=cfg)
        assert not any(r.fit.converged for r in path.records)
        assert lam == grid[1] and not fit.converged and fit.iterations == 2
        assert "no candidate converged" in caplog.text
