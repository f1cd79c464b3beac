import warnings

import numpy as np
import pytest

import wccreg as w

import oracles


def random_partition_labels(rng, m, kmax=5):
    return rng.integers(0, kmax, m)


class TestRandIndexCounts:
    def test_identical_partitions_no_errors(self):
        a = np.array([0, 0, 1, 1, 2])
        tp, tn, fp, fn = w.rand_index_counts(a, a)
        assert fp == 0 and fn == 0
        assert tp + tn == 10

    def test_three_location_example(self):
        # p1 = {1,2 | 3}, p2 = all singletons
        tp, tn, fp, fn = w.rand_index_counts([0, 0, 1], [0, 1, 2])
        assert (tp, tn, fp, fn) == (0, 2, 0, 1)

    def test_counts_cover_all_pairs(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 15))
            a = random_partition_labels(rng, m)
            b = random_partition_labels(rng, m)
            counts = w.rand_index_counts(a, b)
            assert sum(counts) == m * (m - 1) // 2

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            w.rand_index_counts([0, 1], [0, 1, 2])


class TestAdjustedRandIndex:
    def test_identical_is_one(self, rng):
        a = random_partition_labels(rng, 12)
        assert w.adjusted_rand_index(a, a) == pytest.approx(1.0)

    def test_matches_pair_count_oracle(self, rng):
        # some draws put both labelings in one group, where the chance
        # correction is degenerate and a warning says so
        with pytest.warns(UserWarning, match="degenerate chance correction"):
            for _ in range(200):
                m = int(rng.integers(3, 20))
                a = random_partition_labels(rng, m, kmax=4)
                b = random_partition_labels(rng, m, kmax=4)
                got = w.adjusted_rand_index(a, b)
                ref = oracles.ari_pair_counts(a, b)
                assert got == pytest.approx(ref, abs=1e-12)

    def test_one_group_vs_singletons_is_zero(self):
        m = 6
        assert w.adjusted_rand_index(np.zeros(m, dtype=int), np.arange(m)) == pytest.approx(0.0)

    def test_symmetry(self, rng):
        for _ in range(50):
            a = random_partition_labels(rng, 10)
            b = random_partition_labels(rng, 10)
            assert w.adjusted_rand_index(a, b) == pytest.approx(w.adjusted_rand_index(b, a))

    def test_relabel_invariance(self, rng):
        a = random_partition_labels(rng, 12, kmax=3)
        b = random_partition_labels(rng, 12, kmax=3)
        perm = {0: 7, 1: 2, 2: 9, 3: 4, 4: 0}
        a2 = np.array([perm[x] for x in a])
        assert w.adjusted_rand_index(a, b) == pytest.approx(w.adjusted_rand_index(a2, b))

    def test_degenerate_both_singletons(self):
        with pytest.warns(UserWarning):
            val = w.adjusted_rand_index(np.arange(5), np.arange(5))
        assert val == 1.0

    def test_degenerate_both_one_group(self):
        with pytest.warns(UserWarning):
            val = w.adjusted_rand_index(np.zeros(5, int), np.zeros(5, int))
        assert val == 1.0

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_every_partition_pair_against_pair_counts(self, m):
        # every pair of set partitions of m items: the degenerate-correction
        # warning fires only for identical ones (both all singletons or both
        # one group), and every value is the brute-force pair-count ARI
        groupings = list(oracles.set_partitions(range(m)))
        labels = []
        for groups in groupings:
            lab = np.empty(m, dtype=int)
            for k, g in enumerate(groups):
                lab[g] = k
            labels.append(lab)
        keys = [frozenset(frozenset(g) for g in groups) for groups in groupings]
        for a, ka in zip(labels, keys):
            for b, kb in zip(labels, keys):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    got = w.adjusted_rand_index(a, b)
                degenerate = m > 1 and ka == kb and len(ka) in (1, m)
                assert [c.category for c in caught] == ([UserWarning] if degenerate else [])
                if m == 1:
                    assert got == 1.0
                else:
                    assert got == oracles.ari_pair_counts(a, b)


class TestRmse:
    # the mean model's scalar estimates are scored as (m, 1) columns
    def test_exact_recovery_zero(self):
        assert w.rmse_beta([[1.0], [2.0]], [[1.0], [2.0]]) == 0.0
        assert w.rmse_beta(np.ones((3, 2)), np.ones((3, 2))) == 0.0

    def test_mu_two_point(self):
        assert w.rmse_beta([[1.3], [0.6]], [[1.0], [1.0]]) == pytest.approx(np.sqrt(0.25 / 2), abs=1e-4)

    def test_sign_invariance(self, rng):
        truth = rng.standard_normal((5, 1))
        err = rng.standard_normal((5, 1))
        assert w.rmse_beta(truth + err, truth) == pytest.approx(w.rmse_beta(truth - err, truth))

    def test_beta_single_row_norm(self):
        assert w.rmse_beta(np.array([[3.0, 4.0]]), np.zeros((1, 2))) == pytest.approx(5.0)

    def test_column_is_the_scalar_rmse_when_p1(self, rng):
        est = rng.standard_normal(6)
        tru = rng.standard_normal(6)
        assert w.rmse_beta(est[:, None], tru[:, None]) == np.sqrt(np.mean((est - tru) ** 2))

    @pytest.mark.parametrize("beta_hat, beta_true, message", [
        ([1.0, 2.0, 3.0], np.zeros((3, 1)), "beta_hat must be 2-D, got shape (3,)"),
        ([[1.0], [2.0], [3.0]], np.zeros(3), "beta_true must be 2-D, got shape (3,)"),
        (np.ones((2, 1, 1)), np.ones((2, 1)), "beta_hat must be 2-D, got shape (2, 1, 1)"),
    ])
    def test_a_coefficient_array_of_another_dimension_is_named(self, beta_hat, beta_true, message):
        # a 1-D vector of m estimates used to be read as one row of m
        # coefficients: rmse_beta([1, 2, 3], zeros(3)) gave sqrt(14), not sqrt(14/3)
        with pytest.raises(w.ValidationError) as err:
            w.rmse_beta(beta_hat, beta_true)
        assert str(err.value) == message

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            w.rmse_beta([[1.0]], [[1.0], [2.0]])
        with pytest.raises(ValueError):
            w.rmse_beta(np.ones((2, 2)), np.ones((2, 3)))
