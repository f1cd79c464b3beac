import numpy as np
import pytest

import wccreg as w

import oracles
from conftest import random_dataset, stack


def fake_fit(beta, zeta_cols):
    """FitResult with prescribed slack columns (p x n_pairs)."""
    m, p = beta.shape
    npairs = m * (m - 1) // 2
    zeta = np.asarray(zeta_cols, dtype=float).reshape(p, npairs)
    return w.FitResult(beta=beta, eta=np.zeros(0), zeta=zeta,
                       v=np.zeros((p, npairs)), iterations=1,
                       final_residual=0.0, converged=True)


class TestExtractPartition:
    def test_all_zero_slacks_single_group(self, rng):
        beta = rng.standard_normal((4, 2))
        fit = fake_fit(beta, np.zeros((2, 6)))
        part = w.extract_partition(fit)
        assert part.K_hat == 1
        assert int(part.group_sizes[0]) == 4

    def test_no_zero_slacks_all_singletons(self, rng):
        beta = rng.standard_normal((4, 1))
        fit = fake_fit(beta, np.ones((1, 6)))
        part = w.extract_partition(fit)
        assert part.K_hat == 4
        assert np.array_equal(part.assignment, [0, 1, 2, 3])

    def test_transitive_closure(self):
        # zeta_12 = zeta_23 = 0 but zeta_13 large: still one group
        beta = np.array([[0.0], [0.0], [0.0]])
        zeta = np.array([[0.0, 5.0, 0.0]])   # pairs (0,1), (0,2), (1,2)
        part = w.extract_partition(fake_fit(beta, zeta))
        assert part.K_hat == 1

    def test_tolerance_respected(self):
        beta = np.zeros((2, 1))
        part_tight = w.extract_partition(fake_fit(beta, [[1e-5]]), zero_tol=1e-6)
        part_loose = w.extract_partition(fake_fit(beta, [[1e-5]]), zero_tol=1e-4)
        assert part_tight.K_hat == 2
        assert part_loose.K_hat == 1

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_negative_or_nan_tolerance_rejected(self, tol):
        # a NaN tolerance would fuse no pair and report every location apart
        with pytest.raises(w.ValidationError, match="zero_tol must be nonnegative"):
            w.extract_partition(fake_fit(np.zeros((2, 1)), [[0.0]]), zero_tol=tol)

    @staticmethod
    def _assert_matches_components(beta, fused):
        # exact labels, sizes and group means against breadth-first search
        m = beta.shape[0]
        pairs = w.build_pair_index(m)
        zeta = np.where(fused, 0.0, 1.0) * np.ones((beta.shape[1], 1))
        part = w.extract_partition(fake_fit(beta, zeta))
        labels = oracles.connected_labels(m, zip(pairs.i_idx[fused], pairs.j_idx[fused]))
        K = labels.max() + 1
        assert part.K_hat == K
        assert np.array_equal(part.assignment, labels)
        # labels follow first appearance: group k's first location comes
        # before group k + 1's
        first = np.unique(part.assignment, return_index=True)[1]
        assert np.all(np.diff(first) > 0)
        assert np.array_equal(part.group_sizes, [np.sum(labels == k) for k in range(K)])
        np.testing.assert_allclose(part.alpha, [beta[labels == k].mean(axis=0) for k in range(K)],
                                   rtol=1e-13, atol=1e-13)
        return part

    @pytest.mark.parametrize("m", [2, 6, 30])
    @pytest.mark.parametrize("density", [0.02, 0.1, 0.3, 0.7])
    def test_random_zero_patterns_match_components(self, rng, m, density):
        for _ in range(20):
            beta = rng.standard_normal((m, 2))
            fused = rng.random(m * (m - 1) // 2) < density
            self._assert_matches_components(beta, fused)

    @pytest.mark.parametrize("order", ["index", "reversed", "zigzag", "random"])
    def test_long_path_matches_components(self, rng, order):
        # 200 locations fused only along one path, a component of diameter
        # 199 and the slowest case for label propagation.  "index" fuses only
        # the pairs (i, i+1); the others fuse consecutive locations of the
        # paths 199, 198, ..., 0 and 199, 0, 198, 1, ... and of a random path
        m = 200
        path = {"index": np.arange(m), "reversed": np.arange(m)[::-1],
                "zigzag": np.ravel(np.column_stack([np.arange(m - 1, m // 2 - 1, -1), np.arange(m // 2)])),
                "random": rng.permutation(m)}[order]
        a, b = np.minimum(path[:-1], path[1:]), np.maximum(path[:-1], path[1:])
        pairs = w.build_pair_index(m)
        column = a * m - a * (a + 1) // 2 + (b - a - 1)       # lexicographic pair position
        assert np.array_equal(pairs.i_idx[column], a) and np.array_equal(pairs.j_idx[column], b)
        fused = np.zeros(pairs.n_pairs, dtype=bool)
        fused[column] = True
        part = self._assert_matches_components(rng.standard_normal((m, 1)), fused)
        assert part.K_hat == 1
        # cutting the path's first 100 edges leaves 100 singletons beside a
        # path of 100 locations
        fused[column[: m // 2]] = False
        assert self._assert_matches_components(rng.standard_normal((m, 1)), fused).K_hat == m // 2 + 1

    @pytest.mark.parametrize("m", [2, 6, 30])
    def test_no_pairs_and_all_pairs_fused(self, rng, m):
        beta = rng.standard_normal((m, 2))
        n_pairs = m * (m - 1) // 2
        none = self._assert_matches_components(beta, np.zeros(n_pairs, dtype=bool))
        assert none.K_hat == m and np.array_equal(none.assignment, np.arange(m))
        every = self._assert_matches_components(beta, np.ones(n_pairs, dtype=bool))
        assert every.K_hat == 1 and np.array_equal(every.group_sizes, [m])

    @pytest.mark.parametrize("m", [1, 2, 400])
    def test_every_pair_fused_skips_the_propagation(self, rng, monkeypatch, m):
        # with every slack at or below zero_tol the one-group partition comes
        # back without building the pair index; one ulp lower leaves exactly
        # one pair unfused, the propagation runs, and at m > 2 it finds the
        # same group, bit for bit
        beta = rng.standard_normal((m, 2))
        n_pairs = m * (m - 1) // 2
        norms = rng.uniform(1e-9, 1e-7, n_pairs)
        fit = fake_fit(beta, np.vstack([norms, np.zeros(n_pairs)]))
        built = []
        real = w.build_pair_index
        monkeypatch.setattr("wccreg.admm.build_pair_index", lambda k: built.append(k) or real(k))
        tol = float(norms.max(initial=0.0))
        every = w.extract_partition(fit, zero_tol=tol)
        assert built == []
        assert every.K_hat == 1 and np.array_equal(every.group_sizes, [m])
        assert np.array_equal(every.assignment, np.zeros(m, dtype=int))
        assert np.array_equal(every.alpha, w.group_estimates(beta, np.zeros(m, dtype=int)))
        if m == 1:
            return
        part = w.extract_partition(fit, zero_tol=float(np.nextafter(tol, -np.inf)))
        assert built == [m]
        labels = oracles.connected_labels(m, [(i, j) for i, j, x in
                                              zip(*np.triu_indices(m, 1), norms) if x < tol])
        assert np.array_equal(part.assignment, labels)
        if m > 2:
            assert part.K_hat == 1
            for name in ("assignment", "alpha", "group_sizes"):
                got, want = getattr(every, name), getattr(part, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    def test_m1_single_group(self):
        fit = w.FitResult(beta=np.array([[1.0]]), eta=np.zeros(0),
                          zeta=np.zeros((1, 0)), v=np.zeros((1, 0)),
                          iterations=0, final_residual=0.0, converged=True)
        part = w.extract_partition(fit)
        assert part.K_hat == 1
        assert np.array_equal(part.assignment, [0]) and np.array_equal(part.group_sizes, [1])
        assert np.array_equal(part.alpha, [[1.0]])


class TestGroupEstimates:
    def test_singletons_copy_rows(self, rng):
        beta = rng.standard_normal((3, 2))
        alpha = w.group_estimates(beta, [0, 1, 2])
        assert np.array_equal(alpha, beta)

    def test_a_one_dimensional_beta_is_named(self):
        # a 1-D beta used to be read as one row, so both groups got all of it
        with pytest.raises(w.ValidationError) as err:
            w.group_estimates(np.array([1.0, 2.0, 3.0]), [0, 0, 1])
        assert str(err.value) == "beta must be 2-D, got shape (3,)"

    def test_pair_mean(self):
        alpha = w.group_estimates(np.array([[1.0, 2.0], [3.0, 4.0]]), [0, 0])
        assert alpha[0] == pytest.approx([2.0, 3.0])

    def test_matches_manual_sums(self, rng):
        beta = rng.standard_normal((10, 3))
        labels = rng.integers(0, 4, 10)
        labels[:4] = [0, 1, 2, 3]
        alpha = w.group_estimates(beta, labels)
        for k in range(4):
            assert alpha[k] == pytest.approx(beta[labels == k].mean(axis=0), abs=1e-12)

    def test_idempotent_after_collapsing(self, rng):
        # replacing rows by their group means and re-extracting cannot split groups
        ds, _ = random_dataset(rng, m=6, p=2, noise=0.1,
                               groups=[(0.0, 0.0), (4.0, 4.0)])
        res = w.fit(ds, w.ScadSpec(lam=0.6))
        part = w.extract_partition(res)
        collapsed = part.alpha[part.assignment]
        refit = w.fit(_with_responses(ds, collapsed), w.ScadSpec(lam=0.6))
        part2 = w.extract_partition(refit)
        assert part2.K_hat <= part.K_hat


def _with_responses(ds, beta_rows):
    blocks = []
    for i, b in enumerate(ds.locations):
        blocks.append(w.LocationBlock(b.location_id, b.N, y=b.X @ beta_rows[i],
                                      X=b.X, Z=b.Z, pi=b.pi))
    return stack(blocks)


class TestRefitOracle:
    def test_one_group_intercept_is_weighted_mean(self, rng):
        n = 20
        y = rng.standard_normal(n) + 3.0
        pi = rng.uniform(0.2, 1.0, n)
        ds = stack([w.LocationBlock("a", 40, y=y, X=np.ones((n, 1)), Z=np.zeros((n, 0)), pi=pi)])
        part = w.extract_partition(w.fit(ds, w.ScadSpec(lam=0.0)))
        eta, alpha = w.refit_oracle(ds, part)
        wt = oracles.row_weights(ds.locations[0])
        assert alpha[0, 0] == pytest.approx(np.sum(wt * y) / np.sum(wt), abs=1e-10)

    def test_singleton_partition_equals_wls(self, rng):
        ds, _ = random_dataset(rng, m=4, p=2)
        part = w.Partition(assignment=np.arange(4), alpha=np.zeros((4, 2)))
        eta, alpha = w.refit_oracle(ds, part)
        ref = np.vstack([oracles.weighted_ls(b) for b in ds.locations])
        assert np.abs(alpha - ref).max() < 1e-9

    def test_recovers_truth_within_three_se(self, rng):
        # well-separated synthetic data, true partition imposed
        groups = [(1.0, 1.0), (4.0, 4.0)]
        ds, truth = random_dataset(rng, m=6, p=2, n_range=(60, 61), noise=0.1,
                                   groups=groups)
        labels = np.array([0, 1, 0, 1, 0, 1])
        part = w.Partition(assignment=labels, alpha=np.zeros((2, 2)))
        eta, alpha = w.refit_oracle(ds, part)
        # crude SE bound: noise / sqrt(total group rows)
        se = 0.1 / np.sqrt(3 * 60) * 3.0
        assert np.abs(alpha[0] - np.array([1.0, 1.0])).max() < 5 * se + 0.05
        assert np.abs(alpha[1] - np.array([4.0, 4.0])).max() < 5 * se + 0.05

    def test_score_gradient_vanishes_at_refit(self, rng):
        for _ in range(10):
            q = int(rng.integers(0, 3))
            ds, _ = random_dataset(rng, m=int(rng.integers(2, 6)), p=2, q=q)
            fitres = w.fit(ds, w.ScadSpec(lam=0.2))
            part = w.extract_partition(fitres)
            eta, alpha = w.refit_oracle(ds, part)
            grad = oracles.collapsed_score(ds, part, eta, alpha)
            assert np.linalg.norm(grad) < 1e-6

    def test_score_gradient_nonzero_off_solution(self, rng):
        ds, _ = random_dataset(rng, m=3, p=2)
        part = w.extract_partition(w.fit(ds, w.ScadSpec(lam=0.1)))
        eta, alpha = w.refit_oracle(ds, part)
        grad = oracles.collapsed_score(ds, part, eta, alpha + 0.5)
        assert np.linalg.norm(grad) > 1e-3

    @pytest.mark.parametrize("q", [0, 1, 2])
    @pytest.mark.parametrize("sigma2", [False, True])
    def test_matches_dense_collapsed_least_squares(self, rng, q, sigma2):
        # the group sums of the cached blocks against a solve on the dense design
        for _ in range(10):
            m = int(rng.integers(2, 8))
            ds, _ = random_dataset(rng, m=m, p=int(rng.integers(1, 4)), q=q, sigma2=sigma2)
            labels = rng.integers(0, m, m)
            groups = [np.flatnonzero(labels == k).tolist() for k in np.unique(labels)]
            part = oracles.partition_from_groups(groups, m, ds.p)
            eta, alpha = w.refit_oracle(ds, part)
            eta_ref, alpha_ref = oracles.collapsed_wls(ds, part)
            assert eta.shape == (q,) and alpha.shape == (part.K_hat, ds.p)
            assert np.abs(eta - eta_ref).max(initial=0.0) < 1e-10
            assert np.abs(alpha - alpha_ref).max() < 1e-10

    def test_partition_size_mismatch_rejected(self, rng):
        ds, _ = random_dataset(rng, m=3, p=1)
        part = w.Partition(assignment=np.arange(2), alpha=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            w.refit_oracle(ds, part)
