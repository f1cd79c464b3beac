import gc
import logging
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import wccreg as w
from wccreg import admm, types
from wccreg import io as wio

import oracles
from conftest import random_dataset, write_dataset_csv


def _start_distances(ds):
    """Pairwise distances ||beta_i - beta_j|| of the default start."""
    return np.linalg.norm(admm.prepared(ds).differences(admm.initialize(ds, w.AdmmConfig())), axis=0)


def _record_support_adjoints(monkeypatch):
    """The column counts of the fit's adjoints over the slack support, as they happen."""
    sizes = []
    real = admm._Bundle.difference_adjoint

    def adjoint(self, S, cols=None):
        if cols is not None:
            sizes.append(cols.size)
        return real(self, S, cols)

    monkeypatch.setattr(admm._Bundle, "difference_adjoint", adjoint)
    return sizes


def _first_iterations(ds, spec, vt):
    """The fits capped at one and at two iterations; the second continues the first."""
    fits = [w.fit(ds, spec, w.AdmmConfig(vartheta=vt, max_iter=k)) for k in (1, 2)]
    assert [res.iterations for res in fits] == [1, 2]
    return fits


class TestPairIndex:
    def test_m2(self):
        idx = w.build_pair_index(2)
        assert idx.n_pairs == 1
        assert (idx.i_idx[0], idx.j_idx[0]) == (0, 1)
        assert np.array_equal(oracles.difference_matrix(2), [[1.0, -1.0]])

    def test_m3_lexicographic(self):
        idx = w.build_pair_index(3)
        assert list(zip(idx.i_idx, idx.j_idx)) == [(0, 1), (0, 2), (1, 2)]

    def test_one_read_only_index_per_m(self, rng):
        # the solver and partition extraction share one index per m
        ds, _ = random_dataset(rng, m=5, p=1)
        idx = w.build_pair_index(5)
        assert admm.prepared(ds).pairs is idx is w.build_pair_index(5)
        with pytest.raises(ValueError):
            idx.i_idx[0] = 1

    @pytest.mark.parametrize("m", [2, 3, 7])
    @pytest.mark.parametrize("p", [1, 3])
    def test_difference_adjoint_matches_dense_oracle(self, rng, m, p):
        ds, _ = random_dataset(rng, m=m, p=p)
        bundle = admm.prepared(ds)
        D = oracles.difference_matrix(m)
        S = rng.standard_normal((D.shape[0], p)).T           # pair-major, one column per pair
        assert np.abs(bundle.difference_adjoint(S) - D.T @ S.T).max() < 1e-12
        beta = rng.standard_normal((m, p))
        assert np.array_equal(bundle.differences(beta), (D @ beta).T)

    def test_bundle_memory_is_not_quadratic_in_pairs(self, rng):
        # a dense n_pairs x m incidence matrix alone is ~107 MB at m = 300
        ds, _ = random_dataset(rng, m=300, p=1)
        w.build_pair_index.cache_clear()     # so the pair index is built, and counted, here
        tracemalloc.start()
        try:
            admm.prepared(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_flat_positions_share_the_pair_index_at_p1(self, rng, p):
        # at p = 1 the flat positions are the shared read-only pair index
        # itself; at p > 1 entry (k, l) of a pair block sits at i_l p + k
        ds, _ = random_dataset(rng, m=6, p=p)
        bundle = admm.prepared(ds)
        pairs = bundle.pairs
        if p == 1:
            assert bundle._pos_i is pairs.i_idx and bundle._pos_j is pairs.j_idx
            assert not bundle._pos_i.flags.writeable and not bundle._pos_j.flags.writeable
        else:
            k = np.arange(p)[:, None]
            assert np.array_equal(bundle._pos_i, (pairs.i_idx * p + k).ravel())
            assert np.array_equal(bundle._pos_j, (pairs.j_idx * p + k).ravel())
        # the gathers and the adjoint still agree with the dense operator
        D = oracles.difference_matrix(6)
        beta = rng.standard_normal((6, p))
        S = rng.standard_normal((p, D.shape[0]))
        assert np.array_equal(bundle.differences(beta), (D @ beta).T)
        assert np.abs(bundle.difference_adjoint(S) - D.T @ S.T).max() < 1e-12

    @pytest.mark.parametrize("m", [91, 92, 400])
    def test_differences_repeat_the_i_side_above_the_gate_at_p1(self, rng, m):
        # from the gate up (m = 92, 4,186 pairs; m = 91 has 4,095) the i side
        # at p = 1 is repeated rather than gathered, with the gather's bytes,
        # sign bits of zero differences included
        ds, _ = random_dataset(rng, m=m, p=1, n_range=(2, 4))
        bundle = admm.prepared(ds)
        assert (bundle._i_repeats is not None) == (m * (m - 1) // 2 >= admm._SUPPORT_MIN_PAIRS)
        beta = rng.standard_normal((m, 1))
        beta[::7] = 0.0
        beta[1::7] = -0.0
        beta[2::5] = beta[3]
        flat = beta.reshape(-1)
        want = flat[bundle.pairs.i_idx] - flat[bundle.pairs.j_idx]
        got = bundle.differences(beta)
        assert got.shape == (1, want.size) and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [1, 3])
    def test_adjoint_on_columns_matches_the_full_adjoint(self, rng, p):
        # on a block that is zero off the given columns, the adjoint of its
        # compact (p, len(cols)) block over those columns adds the same terms
        # in the same order as the full one
        ds, _ = random_dataset(rng, m=9, p=p)
        bundle = admm.prepared(ds)
        for live in (np.array([], dtype=np.intp), np.array([0, 5, 35]), np.arange(36)):
            S_live = rng.standard_normal((p, live.size))
            S = np.zeros((p, 36))
            S[:, live] = S_live
            assert np.array_equal(bundle.difference_adjoint(S_live, live), bundle.difference_adjoint(S))


class TestStructuredSolve:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("q", [0, 1, 2])
    @pytest.mark.parametrize("sigma2", [False, True])
    def test_matches_dense_solve(self, rng, p, q, sigma2):
        # the blockwise Woodbury solve against np.linalg.solve on the dense
        # X'QX + s D'D (x) I_p, at the start's scale 0 and an augmented weight
        for m in (1, 2, 7):
            ds, _ = random_dataset(rng, m=m, p=p, q=q, sigma2=sigma2)
            bundle = admm.prepared(ds)
            for scale in (0.0, 1.5):
                rhs = rng.standard_normal(m * p)
                ref = np.linalg.solve(oracles.dense_update_matrix(ds, scale), rhs)
                x = bundle.solve_beta(scale, rhs)
                assert x.shape == (m, p)
                np.testing.assert_allclose(x.reshape(-1), ref, rtol=0, atol=1e-10,
                                           err_msg=f"m={m}, scale={scale}")

    @pytest.mark.parametrize("q", [0, 1])
    def test_singular_block_solves_the_jittered_system(self, rng, q):
        # a location with n_i = 1 < p = 2 has a singular block, so at scale 0
        # the matrix M is singular and the factor retries with
        # tau = 1e-10 tr(M) added to the diagonal
        ds, _ = random_dataset(rng, m=4, p=2, q=q)
        b = ds.locations[0]
        single = w.LocationBlock(b.location_id, b.N, y=b.y[:1], X=[[1.0, 0.0]], Z=b.Z[:1],
                                 pi=b.pi[:1])
        ds = w.Dataset((single,) + ds.locations[1:])
        M = oracles.dense_update_matrix(ds, 0.0)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(M)
        jittered = M + 1e-10 * np.trace(M) * np.eye(M.shape[0])
        rhs = rng.standard_normal(M.shape[0])
        x = admm.prepared(ds).solve_beta(0.0, rhs).reshape(-1)
        assert np.linalg.norm(jittered @ x - rhs) <= 1e-8 * np.linalg.norm(rhs)

    def test_all_zero_design_is_fatal_and_named(self, rng):
        ds, _ = random_dataset(rng, m=3, p=2)
        ds = w.Dataset([w.LocationBlock(b.location_id, b.N, y=b.y, X=np.zeros_like(b.X),
                                        Z=b.Z, pi=b.pi) for b in ds.locations])
        with pytest.raises(w.SingularSystemError, match="coefficient update matrix"):
            w.fit(ds, w.ScadSpec(lam=0.1))
        part = oracles.partition_from_groups([[0, 1], [2]], 3, 2)
        with pytest.raises(w.SingularSystemError, match="collapsed normal matrix"):
            w.refit_oracle(ds, part)
        # with an augmented weight s, M = s (m I - J) (x) I_p is singular too,
        # but its trace is positive: M + tau I has eigenvalue tau on the
        # location means and s m + tau off them, so the solve is known exactly
        s, m = 1.5, ds.m
        tau = 1e-10 * s * ds.p * m * (m - 1)
        rhs = rng.standard_normal((m, ds.p))
        mean = rhs.mean(axis=0)
        exact = (rhs - mean) / (s * m + tau) + mean / tau
        x = admm.prepared(ds).solve_beta(s, rhs.reshape(-1))
        assert np.linalg.norm(x - exact) <= 1e-8 * np.linalg.norm(exact)

    def test_singular_shared_covariate_gram_is_jittered(self, rng):
        # with q = 2 and an all-zero Z column, Z'WZ is singular but has a
        # positive trace: it is factored with tau = 1e-10 tr(Z'WZ) on its
        # diagonal, and the update matrix, eta and the group refit all read
        # that jittered Z'WZ
        ds1, _ = random_dataset(rng, m=5, p=2, q=1, noise=1.0)
        ds = w.Dataset([w.LocationBlock(b.location_id, b.N, y=b.y, X=b.X, pi=b.pi,
                                        Z=np.column_stack([b.Z, np.zeros(b.n)]))
                        for b in ds1.locations])
        bundle = admm.prepared(ds)
        ZtWZ = sum(b.Z.T @ (oracles.row_weights(b)[:, None] * b.Z) for b in ds.locations)
        tau = 1e-10 * np.trace(ZtWZ)
        for scale in (0.0, 1.5):
            rhs = rng.standard_normal(ds.m * ds.p)
            ref = np.linalg.solve(oracles.dense_update_matrix(ds, scale, z_jitter=tau), rhs)
            np.testing.assert_allclose(bundle.solve_beta(scale, rhs).reshape(-1), ref, rtol=0, atol=1e-10,
                                       err_msg=f"scale={scale}")
        # the zero column's eta is exactly 0; the rest is the q = 1 fit up to tau
        spec = w.ScadSpec(lam=float(_start_distances(ds1).min()))
        cfg = w.AdmmConfig(max_iter=5, vartheta=1.5)
        res, ref = w.fit(ds, spec, cfg), oracles.dense_admm(ds1, spec, cfg)
        assert res.iterations == ref["iterations"] == 5
        assert res.eta[1] == 0.0
        np.testing.assert_allclose(res.eta[:1], ref["eta"], rtol=0, atol=1e-9)
        np.testing.assert_allclose(res.beta, ref["beta"], rtol=0, atol=1e-9)
        # the group refit against the dense solve of the whole collapsed
        # system, jittered by 1e-10 of its trace
        part = oracles.partition_from_groups([[0, 1], [2, 3, 4]], 5, 2)
        eta, alpha = w.refit_oracle(ds, part)
        C, wt, y = oracles.collapsed_design(ds, part.assignment)
        G = C.T @ (wt[:, None] * C)
        sol = np.linalg.solve(G + 1e-10 * np.trace(G) * np.eye(len(G)), C.T @ (wt * y))
        assert eta[1] == sol[1] == 0.0
        np.testing.assert_allclose(np.concatenate([eta, alpha.reshape(-1)]), sol, rtol=0, atol=1e-8)

    def test_factor_and_solve_build_no_quadratic_array(self, rng):
        # one dense (mp)^2 float array is 2.88 MB at m = 300, p = 2
        ds, _ = random_dataset(rng, m=300, p=2, q=1, n_range=(4, 8))
        bundle = admm.prepared(ds)
        rhs = rng.standard_normal(bundle.m * bundle.p)
        tracemalloc.start()
        try:
            bundle.factor(1.0)
            bundle.solve_beta(1.0, rhs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (bundle.m * bundle.p) ** 2 * 8


class TestCompositeWeights:
    def test_basic(self):
        b = w.LocationBlock("a", 100, y=[1.0], X=[[1.0]], Z=np.zeros((1, 0)), pi=[0.1])
        assert admm.prepared(w.Dataset([b])).w == pytest.approx([0.1])

    def test_with_sigma2(self):
        b = w.LocationBlock("a", 100, y=[1.0], X=[[1.0]], Z=np.zeros((1, 0)),
                            pi=[0.1], sigma2=[4.0])
        assert admm.prepared(w.Dataset([b])).w == pytest.approx([0.025])

    def test_census_reduces_to_inverse_population(self):
        n = 7
        b = w.LocationBlock("a", n, y=np.zeros(n), X=np.ones((n, 1)),
                            Z=np.zeros((n, 0)), pi=np.ones(n))
        assert admm.prepared(w.Dataset([b])).w == pytest.approx(np.full(n, 1.0 / n))


class TestUpdates:
    def test_single_location_is_wls(self, rng, monkeypatch):
        # m = 1 has no pairs: the general loop makes one iteration on (p, 0)
        # pair blocks, and (beta, eta) is the weighted least-squares fit on [X, Z]
        scales = []
        real = admm._structured_factor
        monkeypatch.setattr(admm, "_structured_factor", lambda *a: scales.append(a[4]) or real(*a))
        for p in (1, 2):
            for q in (0, 1):
                ds, _ = random_dataset(rng, m=1, p=p, q=q)
                scales.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    res = w.fit(ds, w.ScadSpec(lam=0.7))
                # the start and the augmented weight share the one scale-0 factor
                assert scales == [0.0]
                assert res.converged and res.iterations == 1
                assert res.final_residual == 0.0 and res.final_dual_residual == 0.0
                assert res.zeta.shape == res.v.shape == (p, 0)
                b = ds.locations[0]
                joint = oracles.weighted_ls(w.LocationBlock(b.location_id, b.N, y=b.y, X=np.hstack([b.X, b.Z]),
                                                            Z=np.zeros((b.n, 0)), pi=b.pi))
                assert res.beta[0] == pytest.approx(joint[:p], abs=1e-10), (p, q)
                assert res.eta == pytest.approx(joint[p:], abs=1e-10), (p, q)
                # the scale is 0 at m = 1, so beta is the start, bit for bit
                assert np.array_equal(res.beta, admm.initialize(ds, w.AdmmConfig()))

    def test_unpenalized_matches_ols_with_flat_weights(self, rng):
        # equal pi, equal N, lam=0: per-location ordinary least squares
        blocks = []
        for i in range(4):
            X = rng.standard_normal((12, 2))
            y = rng.standard_normal(12)
            blocks.append(w.LocationBlock(f"l{i}", 20, y=y, X=X,
                                          Z=np.zeros((12, 0)), pi=np.full(12, 0.6)))
        ds = w.Dataset(blocks)
        res = w.fit(ds, w.ScadSpec(lam=0.0))
        for i, b in enumerate(blocks):
            ols, *_ = np.linalg.lstsq(b.X, b.y, rcond=None)
            assert res.beta[i] == pytest.approx(ols, abs=1e-8)

    def test_eta_is_weighted_residual_mean(self, rng):
        # Z = all-ones column; with beta known, eta is the weighted mean residual
        n = 30
        X = rng.standard_normal((n, 1))
        truth = np.array([2.0])
        Z = np.ones((n, 1))
        y = X @ truth + 0.5 + 0.01 * rng.standard_normal(n)
        pi = rng.uniform(0.3, 1.0, n)
        ds = w.Dataset([w.LocationBlock("a", 60, y=y, X=X, Z=Z, pi=pi)])
        bundle = admm.prepared(ds)
        eta = bundle.eta_update(truth[None, :])
        wt = oracles.row_weights(ds.locations[0])
        expected = np.sum(wt * (y - X @ truth)) / np.sum(wt)
        assert eta[0] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("q", [0, 2])
    def test_residuals_match_per_location_loop(self, rng, p, q):
        ds, _ = random_dataset(rng, m=5, p=p, q=q)
        bundle = admm.prepared(ds)
        beta = rng.standard_normal((5, p))
        eta = rng.standard_normal(q)
        no_eta = np.concatenate([b.y - b.X @ beta[i] for i, b in enumerate(ds.locations)])
        full = np.concatenate([b.y - b.X @ beta[i] - b.Z @ eta for i, b in enumerate(ds.locations)])
        assert np.abs(bundle.residuals(beta) - no_eta).max() < 1e-12
        assert np.abs(bundle.residuals(beta, eta) - full).max() < 1e-12

    def test_update_beta_eta_zeroes_augmented_gradient(self, rng):
        # iteration k's (beta, eta) minimize the weighted loss plus
        # vartheta/2 ||D beta - zeta + v/vartheta||^2 at the previous slacks
        # and multipliers, so both gradients vanish: from zeta_0 = D beta_0,
        # v_0 = 0 at k = 1, and from the first iteration's zeta, v at k = 2
        ds, _ = random_dataset(rng, m=4, p=2, q=1, noise=1.0)
        D = oracles.difference_matrix(ds.m)
        vt = 1.3
        spec = w.ScadSpec(lam=float(_start_distances(ds).min()))
        first, second = _first_iterations(ds, spec, vt)
        zeta0 = D @ admm.initialize(ds, w.AdmmConfig(vartheta=vt))
        for res, zeta, v in [(first, zeta0, np.zeros_like(zeta0)), (second, first.zeta.T, first.v.T)]:
            grad_beta = vt * D.T @ (D @ res.beta - zeta + v / vt)
            grad_eta = np.zeros(ds.q)
            for i, b in enumerate(ds.locations):
                wr = oracles.row_weights(b) * (b.X @ res.beta[i] + b.Z @ res.eta - b.y)
                grad_beta[i] += b.X.T @ wr
                grad_eta += b.Z.T @ wr
            assert np.abs(grad_beta).max() < 1e-10
            assert np.abs(grad_eta).max() < 1e-10

    def test_update_zeta_matches_elementwise_prox(self, rng):
        # the second iteration's slacks are the scalar prox, pair by pair, of
        # beta_i - beta_j + v/vartheta with the first iteration's multipliers
        ds, _ = random_dataset(rng, m=5, p=2, noise=1.0)
        vt = 1.2
        spec = w.ScadSpec(lam=float(_start_distances(ds).min()))
        first, second = _first_iterations(ds, spec, vt)
        pairs = w.build_pair_index(ds.m)
        for l, (i, j) in enumerate(zip(pairs.i_idx, pairs.j_idx)):
            kappa = second.beta[i] - second.beta[j] + first.v[:, l] / vt
            assert second.zeta[:, l] == pytest.approx(w.zeta_proximal(kappa, spec, vt), abs=1e-12)

    def test_update_v_affine(self, rng):
        # multiplier ascent from v_0 = 0: v_k = v_{k-1} + vartheta (D beta_k - zeta_k)
        ds, _ = random_dataset(rng, m=5, p=2, noise=1.0)
        vt = 1.2
        spec = w.ScadSpec(lam=float(_start_distances(ds).min()))
        D = oracles.difference_matrix(ds.m)
        v = np.zeros((ds.p, D.shape[0]))
        for res in _first_iterations(ds, spec, vt):
            v = v + vt * ((D @ res.beta).T - res.zeta)
            np.testing.assert_allclose(res.v, v, rtol=0, atol=1e-12)


class TestPrimalResidual:
    def test_matches_dense_frobenius(self, rng):
        # the reported primal residual is ||D beta - zeta'||_F of the last iterate
        m, p = 6, 3
        ds, _ = random_dataset(rng, m=m, p=p, noise=1.0)
        spec = w.ScadSpec(lam=float(_start_distances(ds).min()))
        D = oracles.difference_matrix(m)
        for res in _first_iterations(ds, spec, 1.0):
            ref = np.linalg.norm(D @ res.beta - res.zeta.T)
            assert res.final_residual == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestPrecomputation:
    def test_built_once_and_kept_outside_the_fields(self, rng, tmp_path, monkeypatch):
        # construction is the one check: loading an m-location CSV makes one
        # stacked check of all its rows, and the precomputation, a fit, the
        # grid, the BIC and the location views check nothing again
        m = 3
        path = tmp_path / "d.csv"
        write_dataset_csv(path, random_dataset(rng, m=m, p=2)[0])
        checked = []
        real = types._check_stacked
        monkeypatch.setattr(types, "_check_stacked",
                            lambda ids, *a: checked.append(len(ids)) or real(ids, *a))
        ds = wio.load_dataset_csv(path, p=2)
        assert checked == [m]
        text = repr(ds)
        bundle = admm.prepared(ds)
        res = w.fit(ds, w.ScadSpec(lam=0.1))
        w.default_lambda_grid(ds)
        w.modified_bic(ds, res, w.extract_partition(res))
        assert len(ds.locations) == m and ds.locations is ds.locations
        assert admm.prepared(ds) is bundle
        assert checked == [m]
        assert repr(ds) == text
        assert admm.prepared(w.Dataset(ds.locations)) is not bundle
        assert checked == [m, m]

    @pytest.mark.parametrize("p, q, sigma2", [(1, 0, False), (1, 1, True), (2, 2, False), (3, 1, True)])
    def test_bundle_equals_a_per_location_build(self, rng, p, q, sigma2):
        # the stacked build makes the float operations of a loop over the
        # locations' blocks, so its arrays are equal, not only close
        ds, _ = random_dataset(rng, m=7, p=p, q=q, sigma2=sigma2, n_range=(1, 30))
        bundle = admm.prepared(ds)
        weights = [oracles.row_weights(b) for b in ds.locations]
        assert np.array_equal(bundle.w, np.concatenate(weights))
        assert np.array_equal(bundle.w_norm,
                              np.concatenate([oracles.bic_weights(b) for b in ds.locations]))
        assert np.array_equal(bundle.XtWX, np.stack([b.X.T @ (wt[:, None] * b.X)
                                                     for b, wt in zip(ds.locations, weights)]))
        assert np.array_equal(bundle.XtWZ, np.stack([b.X.T @ (wt[:, None] * b.Z)
                                                     for b, wt in zip(ds.locations, weights)]))
        if q == 0:
            assert np.array_equal(bundle.XtQy, np.concatenate([b.X.T @ (wt * b.y)
                                                               for b, wt in zip(ds.locations, weights)]))

    def test_factorizations_do_not_grow_with_grid(self, rng, monkeypatch):
        ds, _ = random_dataset(rng, m=5, p=2, q=1)
        calls = []
        real_dense, real_structured = admm.cho_factor, admm._structured_factor
        monkeypatch.setattr(admm, "cho_factor",
                            lambda *a, **k: calls.append("dense") or real_dense(*a, **k))
        monkeypatch.setattr(admm, "_structured_factor",
                            lambda *a, **k: calls.append("structured") or real_structured(*a, **k))
        counts = []
        for num in (2, 6):
            fresh = w.Dataset(ds.locations)
            calls.clear()
            grid = w.default_lambda_grid(fresh, num=num)
            w.select_lambda(fresh, grid)
            counts.append(sorted(calls))
        # Z'WZ densely; the start (ridge 0) and the augmented weight
        # structured; once each
        assert counts[0] == counts[1] == ["dense", "structured", "structured"]

    def test_dataset_freed_without_cyclic_gc(self, rng):
        ds, _ = random_dataset(rng, m=4, p=1)
        gc.disable()
        try:
            w.fit(ds, w.ScadSpec(lam=0.1))
            refs = [weakref.ref(ds), weakref.ref(admm.prepared(ds))]
            del ds
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()


class TestInitialize:
    def test_zero_ridge_is_wls(self, rng):
        ds, _ = random_dataset(rng, m=5, p=2)
        beta = w.initialize(ds, w.AdmmConfig(init_ridge=0.0))
        assert beta.shape == (5, 2)
        for i, b in enumerate(ds.locations):
            assert beta[i] == pytest.approx(oracles.weighted_ls(b), abs=1e-9)

    def test_huge_ridge_pools(self, rng):
        ds, _ = random_dataset(rng, m=4, p=2)
        beta = w.initialize(ds, w.AdmmConfig(init_ridge=1e8))
        center = beta.mean(axis=0)
        assert np.abs(beta - center).max() < 1e-3

    def test_multipliers_start_at_zero(self, rng):
        # fit starts at zeta_0 = D beta_0 and v_0 = 0, so after one iteration
        # v_1 = vartheta (D beta_1 - zeta_1) exactly, whatever beta_0 is
        ds, _ = random_dataset(rng, m=3, p=1, noise=1.0)
        cfg = w.AdmmConfig(init_ridge=0.01, vartheta=1.5, max_iter=1)
        spec = w.ScadSpec(lam=float(_start_distances(ds).min()))
        res = w.fit(ds, spec, cfg)
        pairs = w.build_pair_index(3)
        assert res.iterations == 1 and res.v.shape == (1, pairs.n_pairs)
        diffs = admm.prepared(ds).differences(res.beta)
        assert np.array_equal(res.v, 1.5 * (diffs - res.zeta))


class TestObjective:
    def test_perfect_fit_no_penalty(self, rng):
        X = rng.standard_normal((10, 2))
        truth = np.array([1.0, -2.0])
        b = w.LocationBlock("a", 20, y=X @ truth, X=X, Z=np.zeros((10, 0)),
                            pi=np.full(10, 0.5))
        ds = w.Dataset([b])
        assert oracles.objective(ds, truth[None, :], np.zeros(0), w.ScadSpec(lam=0.0)) == pytest.approx(0.0)

    def test_lam_zero_equals_half_wrss(self, rng):
        ds, _ = random_dataset(rng, m=3, p=2)
        beta = rng.standard_normal((3, 2))
        direct = 0.0
        for i, b in enumerate(ds.locations):
            wt = oracles.row_weights(b)
            r = b.y - b.X @ beta[i]
            direct += 0.5 * np.sum(wt * r * r)
        assert oracles.objective(ds, beta, np.zeros(0), w.ScadSpec(lam=0.0)) == pytest.approx(direct)

    @pytest.mark.parametrize("p", [1, 2])
    def test_single_location_is_the_loss(self, rng, p):
        ds, _ = random_dataset(rng, m=1, p=p)
        beta = rng.standard_normal((1, p))
        spec = w.ScadSpec(lam=0.8)
        assert oracles.objective(ds, beta, np.zeros(0), spec) == oracles.weighted_loss(ds, beta, np.zeros(0))

    def test_identical_rows_only_loss(self, rng):
        ds, _ = random_dataset(rng, m=3, p=2)
        beta = np.tile(rng.standard_normal(2), (3, 1))
        spec = w.ScadSpec(lam=0.8)
        assert oracles.objective(ds, beta, np.zeros(0), spec) == pytest.approx(
            oracles.weighted_loss(ds, beta, np.zeros(0)))


class TestFit:
    def test_lam_zero_matches_wls_oracle(self, rng):
        for _ in range(10):
            ds, _ = random_dataset(rng, m=int(rng.integers(2, 10)), p=int(rng.integers(1, 4)))
            res = w.fit(ds, w.ScadSpec(lam=0.0))
            ref = np.vstack([oracles.weighted_ls(b) for b in ds.locations])
            assert np.abs(res.beta - ref).max() < 1e-8

    def test_huge_lam_matches_pooled_wls(self, rng):
        ds, _ = random_dataset(rng, m=5, p=2, noise=0.2)
        res = w.fit(ds, w.ScadSpec(lam=1e3))
        part = w.extract_partition(res)
        assert part.K_hat == 1
        Xs = np.vstack([b.X for b in ds.locations])
        ys = np.concatenate([b.y for b in ds.locations])
        wt = np.concatenate([oracles.row_weights(b) for b in ds.locations])
        pooled = np.linalg.solve(Xs.T @ (wt[:, None] * Xs), Xs.T @ (wt * ys))
        assert np.abs(part.alpha[0] - pooled).max() < 1e-6

    def test_two_group_recovery(self, rng):
        ds, truth = random_dataset(rng, m=6, p=2, n_range=(50, 51), noise=0.02,
                                   groups=[(1.0, 1.0), (1.0, 1.0), (1.0, 1.0),
                                           (3.0, 3.0), (3.0, 3.0), (3.0, 3.0)])
        res = w.fit(ds, w.ScadSpec(lam=0.5), w.AdmmConfig())
        part = w.extract_partition(res)
        assert part.K_hat == 2
        assert w.adjusted_rand_index(part.assignment, [0, 0, 0, 1, 1, 1]) == 1.0

    def test_converged_flag_respects_tolerance(self, rng):
        ds, _ = random_dataset(rng, m=4, p=1, noise=0.3)
        res = w.fit(ds, w.ScadSpec(lam=0.05), w.AdmmConfig(tol=1e-8))
        assert res.converged
        assert res.final_residual < 1e-8

    def test_wls_start_is_fixed_point_below_gamma_lam(self, rng):
        # when gamma*lam is below every pairwise distance of the WLS start, each
        # pair sits on the identity branch of the prox, so the start is an exact
        # fixed point: one iteration, zero residual
        ds, _ = random_dataset(rng, m=5, p=2, noise=0.5)
        spec = w.ScadSpec(lam=0.08)
        assert spec.gamma * spec.lam < _start_distances(ds).min()
        res = w.fit(ds, spec)
        assert res.converged
        assert res.iterations == 1
        assert res.final_residual == 0.0
        # the slacks track the differences exactly, so the multipliers stay at 0
        assert np.all(res.v == 0.0)

    def test_max_iter_cap_not_fatal(self, rng, caplog):
        ds, _ = random_dataset(rng, m=5, p=2, noise=0.5)
        # lam at the smallest starting distance puts gamma*lam above it, so the
        # closest pair starts inside the shrinkage region and the start is not
        # a fixed point
        spec = w.ScadSpec(lam=float(_start_distances(ds).min()))
        assert w.fit(ds, spec).iterations > 2

        cfg = w.AdmmConfig(max_iter=2)
        with caplog.at_level(logging.WARNING, logger="wccreg.admm"):
            res = w.fit(ds, spec, cfg)
        assert not res.converged
        assert res.iterations == 2
        assert any("max_iter=2" in rec.getMessage() for rec in caplog.records)

        m = ds.m
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        gaps = [res.beta[i] - res.beta[j] - res.zeta[:, l] for l, (i, j) in enumerate(pairs)]
        primal = float(np.sqrt(sum(g @ g for g in gaps)))
        assert primal == pytest.approx(res.final_residual, rel=1e-10)
        assert primal >= cfg.tol

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("q", [0, 1])
    def test_matches_dense_textbook_admm(self, rng, p, q):
        # lam at the smallest starting distance, so the start is not a fixed
        # point and every capped run does its k iterations
        ds, _ = random_dataset(rng, m=8, p=p, q=q, noise=1.0, sigma2=bool(q))
        spec = w.ScadSpec(lam=float(_start_distances(ds).min()))
        assert w.fit(ds, spec, w.AdmmConfig(vartheta=1.5)).iterations > 5
        for k in (1, 2, 5):
            cfg = w.AdmmConfig(max_iter=k, vartheta=1.5)
            res = w.fit(ds, spec, cfg)
            ref = oracles.dense_admm(ds, spec, cfg)
            assert res.iterations == ref["iterations"] == k
            for name in ("beta", "eta", "zeta", "v"):
                np.testing.assert_allclose(getattr(res, name), ref[name], rtol=0, atol=1e-10,
                                           err_msg=f"{name} after {k} iterations")
            for name in ("final_residual", "final_dual_residual"):
                assert getattr(res, name) == pytest.approx(ref[name], rel=0, abs=1e-10), name
            assert res.final_dual_residual > 0

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("vt", [1.0, 2.0, 0.7])
    def test_scaled_loop_matches_the_unscaled_loop(self, rng, monkeypatch, p, q, vt):
        # carrying u = v/vartheta makes the same float operations as carrying
        # v when vartheta is a power of two, so every field is bit-identical;
        # at vartheta = 0.7 the fits agree to 1e-13 with equal iteration counts
        ds, _ = random_dataset(rng, m=8, p=p, q=q, noise=1.0, sigma2=bool(q))
        branches = set()
        real = admm.prox_columns

        def prox(kappa, spec, vartheta):
            # which proximal branch each column takes: zero, soft, middle, identity
            edges = [spec.lam / vartheta, spec.lam + spec.lam / vartheta, spec.gamma * spec.lam]
            branches.update(np.searchsorted(edges, np.linalg.norm(kappa, axis=0)).tolist())
            return real(kappa, spec, vartheta)

        monkeypatch.setattr(admm, "prox_columns", prox)
        for lam in np.sort(_start_distances(ds))[[0, 7, 14, 21]]:
            spec = w.ScadSpec(lam=float(lam))
            for max_iter in (1, 2, 2000):
                cfg = w.AdmmConfig(vartheta=vt, max_iter=max_iter)
                res, ref = w.fit(ds, spec, cfg), oracles.unscaled_admm(ds, spec, cfg)
                assert (res.iterations, res.converged) == (ref.iterations, ref.converged)
                for name in ("beta", "eta", "zeta", "v", "final_residual", "final_dual_residual"):
                    got, want = getattr(res, name), getattr(ref, name)
                    if vt == 0.7:
                        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13, err_msg=name)
                    else:
                        assert np.array_equal(got, want), (name, lam, max_iter)
            assert res.converged and res.iterations > 2
        assert branches == {0, 1, 2, 3}

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("vt", [1.0, 2.0, 0.7])
    def test_support_path_matches_the_unscaled_loop(self, rng, monkeypatch, p, q, vt):
        # with the gate lowered to one pair, the loop carries D'u and works on
        # the slack support from the start; against the plain loop the
        # iterations and partitions are equal, and beta, eta, zeta and v agree
        # to 1e-12.  The slacks are not bit-identical: beta moves in its last
        # bits from the first iteration on, and a pair whose norm sits at
        # lam/vartheta can come out 0 on one side and 2e-16 on the other.
        # lam = 1e3 fuses every pair, on both sides
        monkeypatch.setattr(admm, "_SUPPORT_MIN_PAIRS", 1)
        ds, _ = random_dataset(rng, m=8, p=p, q=q, noise=1.0, sigma2=bool(q))
        supports = _record_support_adjoints(monkeypatch)
        lams = list(np.sort(_start_distances(ds))[[0, 7, 14, 21]]) + [1e3]
        narrowed = []
        for lam in lams:
            spec = w.ScadSpec(lam=float(lam))
            for max_iter in (1, 2, 2000):
                cfg = w.AdmmConfig(vartheta=vt, max_iter=max_iter)
                supports.clear()
                res, ref = w.fit(ds, spec, cfg), oracles.unscaled_admm(ds, spec, cfg)
                assert (res.iterations, res.converged) == (ref.iterations, ref.converged)
                for name in ("beta", "eta", "zeta", "v", "final_residual", "final_dual_residual"):
                    np.testing.assert_allclose(getattr(res, name), getattr(ref, name), rtol=0, atol=1e-12,
                                               err_msg=f"{name}, lam={lam}, max_iter={max_iter}")
                got, want = w.extract_partition(res), w.extract_partition(ref)
                assert np.array_equal(got.assignment, want.assignment)
                # the support path runs on fewer than a quarter of the pairs
                assert all(4 * n < ds.m * (ds.m - 1) // 2 for n in supports)
            assert res.converged
            if supports:
                narrowed.append(lam)
        assert got.K_hat == 1 and not np.any(res.zeta) and not np.any(ref.zeta)
        assert len(narrowed) >= 2 and narrowed[-1] == 1e3

    def test_support_path_at_the_real_gate(self, rng, monkeypatch):
        # 100 locations have 4,950 pairs, above the 4,096-column gate; with one
        # location in ten planted apart, under a fifth of the pairs stay unfused.
        # lam = 0.2 runs ~860 carried iterations (so D'u is recomputed in full
        # every 64), lam = 0.8 fuses every pair
        assert admm._SUPPORT_MIN_PAIRS == 4096
        ds, _ = random_dataset(rng, m=100, p=1, q=1, n_range=(4, 9), noise=0.3,
                               groups=[(0.0,)] * 9 + [(1.5,)])
        supports = _record_support_adjoints(monkeypatch)
        for lam, K in ((0.2, 3), (0.8, 1)):
            spec = w.ScadSpec(lam=lam)
            supports.clear()
            res, ref = w.fit(ds, spec), oracles.unscaled_admm(ds, spec, w.AdmmConfig())
            assert (res.iterations, res.converged) == (ref.iterations, True)
            assert len(supports) >= res.iterations - 2 and 4 * max(supports) < 4950
            for name in ("beta", "eta", "zeta", "v"):
                np.testing.assert_allclose(getattr(res, name), getattr(ref, name), rtol=0, atol=1e-12,
                                           err_msg=f"{name}, lam={lam}")
            part = w.extract_partition(res)
            assert part.K_hat == K
            assert np.array_equal(part.assignment, w.extract_partition(ref).assignment)
        assert np.array_equal(res.zeta, ref.zeta)

    @pytest.mark.parametrize("m", [8, 100])
    def test_support_is_found_once_per_iteration_above_the_gate(self, rng, monkeypatch, m):
        # the loop alone finds the support: above the gate (m = 100, 4,950
        # pairs) it takes live_columns of the whole kappa block once per
        # iteration, and below it (m = 8, 28 pairs) never
        ds, _ = random_dataset(rng, m=m, p=1, q=1, n_range=(4, 9), noise=0.3,
                               groups=[(0.0,)] * 9 + [(1.5,)])
        shapes = []
        real = admm.live_columns
        monkeypatch.setattr(admm, "live_columns",
                            lambda kappa, *a: shapes.append(kappa.shape) or real(kappa, *a))
        res = w.fit(ds, w.ScadSpec(lam=0.2))
        assert res.iterations > 2
        n_pairs = m * (m - 1) // 2
        assert shapes == ([(1, n_pairs)] * res.iterations if n_pairs >= admm._SUPPORT_MIN_PAIRS else [])

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("vt", [1.0, 0.7])
    def test_plain_first_iteration_above_the_gate_reports_the_start_slack_dual(self, rng, monkeypatch, p, vt):
        # a small lam leaves most columns live, so the first iteration is the
        # plain one, and a large tol stops the fit there; its dual residual
        # reads the start slack D beta_0, which the loop forms only then
        ds, _ = random_dataset(rng, m=100, p=p, q=1, n_range=(4, 9), noise=0.3)
        supports = _record_support_adjoints(monkeypatch)
        cfg = w.AdmmConfig(vartheta=vt, tol=1e6)
        res = w.fit(ds, w.ScadSpec(lam=1e-3), cfg)
        assert res.iterations == 1 and res.converged and supports == []
        bundle = admm.prepared(ds)
        start = bundle.differences(admm.initialize(ds, cfg))
        assert res.final_dual_residual == vt * float(np.linalg.norm(bundle.difference_adjoint(res.zeta - start)))
        assert res.final_dual_residual > 0

    def test_all_dead_iterations_return_a_read_only_zero_slack(self, rng, monkeypatch):
        # lam = 0.8 fuses every pair of the planted data above the gate: the
        # later iterations have no live column, one after another, and each
        # still maps its (p, 0) block once; the slacks come back all zero
        ds, _ = random_dataset(rng, m=100, p=1, q=1, n_range=(4, 9), noise=0.3,
                               groups=[(0.0,)] * 9 + [(1.5,)])
        shapes = []
        real = admm.prox_columns
        monkeypatch.setattr(admm, "prox_columns",
                            lambda kappa, *a: shapes.append(kappa.shape) or real(kappa, *a))
        res = w.fit(ds, w.ScadSpec(lam=0.8))
        assert res.converged and len(shapes) == res.iterations
        dead = [shape == (1, 0) for shape in shapes]
        assert any(a and b for a, b in zip(dead, dead[1:])) and dead[-1]
        assert not np.any(res.zeta) and not res.zeta.flags.writeable

    def test_eta_computed_once_per_fit(self, rng, monkeypatch):
        # neither the start nor the coefficient update reads eta, so one fit
        # makes exactly one eta update, after the loop
        ds, _ = random_dataset(rng, m=6, p=2, q=1, noise=1.0)
        spec = w.ScadSpec(lam=float(_start_distances(ds).min()))
        calls = []
        real = admm._Bundle.eta_update
        monkeypatch.setattr(admm._Bundle, "eta_update",
                            lambda self, beta: calls.append(1) or real(self, beta))
        iterations, counts = [], []
        for max_iter in (2, 20):
            calls.clear()
            res = w.fit(ds, spec, w.AdmmConfig(max_iter=max_iter))
            iterations.append(res.iterations)
            counts.append(len(calls))
        assert iterations[0] == 2 < iterations[1]
        assert counts == [1, 1]
        assert np.array_equal(res.eta, real(admm.prepared(ds), res.beta))

    def test_gamma_vartheta_incompatibility_fatal(self, rng):
        ds, _ = random_dataset(rng, m=2, p=1)
        with pytest.raises(w.ValidationError):
            w.fit(ds, w.ScadSpec(lam=0.1, gamma=2.2), w.AdmmConfig(vartheta=0.5))

    def test_location_permutation_equivariance(self, rng):
        ds, _ = random_dataset(rng, m=5, p=2, noise=0.2)
        perm = np.array([3, 0, 4, 2, 1])
        ds_perm = w.Dataset([ds.locations[i] for i in perm])
        spec = w.ScadSpec(lam=0.15)
        res = w.fit(ds, spec)
        res_perm = w.fit(ds_perm, spec)
        assert np.abs(res_perm.beta - res.beta[perm]).max() < 1e-8
        part = w.extract_partition(res)
        part_perm = w.extract_partition(res_perm)
        assert part_perm.K_hat == part.K_hat
        assert sorted(part.group_sizes) == sorted(part_perm.group_sizes)
        # both fits leave every location on its own, so the index's chance
        # correction is degenerate and it reports the exact-match indicator
        assert part.K_hat == ds.m
        with pytest.warns(UserWarning, match="degenerate chance correction"):
            assert w.adjusted_rand_index(part.assignment[perm], part_perm.assignment) == pytest.approx(1.0)

    def test_weight_rescaling_invariance(self, rng):
        # pi -> c*pi and N -> N/c leaves the composite weights, and hence the
        # lam=0 fit, untouched
        ds, _ = random_dataset(rng, m=4, p=2)
        c = 0.5
        blocks = []
        for b in ds.locations:
            blocks.append(w.LocationBlock(b.location_id, int(np.ceil(b.N / c)),
                                          y=b.y, X=b.X, Z=b.Z, pi=np.minimum(b.pi * c, 1.0)))
        # integer N rounding would break exactness; rebuild weights directly instead
        scaled = w.Dataset(blocks)
        res = w.fit(ds, w.ScadSpec(lam=0.0))
        res_scaled = w.fit(scaled, w.ScadSpec(lam=0.0))
        ref = np.vstack([oracles.weighted_ls(b) for b in scaled.locations])
        assert np.abs(res_scaled.beta - ref).max() < 1e-8
        # weights identical when N/c is exact
        exact = all(float(b.N / c).is_integer() for b in ds.locations)
        if exact:
            assert np.abs(res.beta - res_scaled.beta).max() < 1e-10

    def test_q_positive_profile_consistency(self, rng):
        # with q>0 and lam=0, (beta, eta) solve the joint weighted LS problem
        ds, _ = random_dataset(rng, m=3, p=2, q=2)
        res = w.fit(ds, w.ScadSpec(lam=0.0))
        # stack the full design: blockdiag(X) columns then Z columns
        Xfull = []
        start = 0
        ntot = sum(b.n for b in ds.locations)
        for i, b in enumerate(ds.locations):
            M = np.zeros((ntot, ds.m * ds.p))
            Xfull.append(b.X)
        big = np.zeros((ntot, ds.m * ds.p + ds.q))
        r0 = 0
        for i, b in enumerate(ds.locations):
            big[r0:r0 + b.n, i * ds.p:(i + 1) * ds.p] = b.X
            big[r0:r0 + b.n, ds.m * ds.p:] = b.Z
            r0 += b.n
        wt = np.concatenate([oracles.row_weights(b) for b in ds.locations])
        ys = np.concatenate([b.y for b in ds.locations])
        sol = np.linalg.solve(big.T @ (wt[:, None] * big), big.T @ (wt * ys))
        assert np.abs(res.beta.reshape(-1) - sol[:ds.m * ds.p]).max() < 1e-8
        assert np.abs(res.eta - sol[ds.m * ds.p:]).max() < 1e-8

    def test_sigma2_weighting_changes_fit(self, rng):
        ds, _ = random_dataset(rng, m=3, p=1, sigma2=True)
        stripped = w.Dataset([
            w.LocationBlock(b.location_id, b.N, y=b.y, X=b.X, Z=b.Z, pi=b.pi)
            for b in ds.locations])
        res_sigma = w.fit(ds, w.ScadSpec(lam=0.0))
        res_plain = w.fit(stripped, w.ScadSpec(lam=0.0))
        assert np.abs(res_sigma.beta - res_plain.beta).max() > 1e-6
        ref = np.vstack([oracles.weighted_ls(b) for b in ds.locations])
        assert np.abs(res_sigma.beta - ref).max() < 1e-8

    def test_fit_result_residual_invariant(self, rng):
        ds, _ = random_dataset(rng, m=4, p=2, noise=0.3)
        res = w.fit(ds, w.ScadSpec(lam=0.1))
        if res.converged:
            assert res.final_residual < w.AdmmConfig().tol
