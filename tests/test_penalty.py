import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wccreg as w
from wccreg import penalty
from wccreg.penalty import check_prox_compatible, prox_columns

import oracles
from conftest import random_dataset


SPEC = w.ScadSpec(lam=0.5, gamma=3.0)


def same_bytes(a, b):
    """Equal shape, dtype and bytes: tells -0.0 from 0.0, and NaN equals itself."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestScadValue:
    def test_zero(self):
        assert w.scad_value(0.0, SPEC) == 0.0

    def test_flat_region(self):
        # beyond gamma*lam the penalty is the constant lam^2 (gamma+1)/2
        assert w.scad_value(2.0, SPEC) == pytest.approx(0.5, abs=1e-12)
        assert w.scad_value(2.0, SPEC) == pytest.approx(oracles.scad_quadrature(2.0, SPEC), abs=1e-10)

    def test_linear_region(self):
        assert w.scad_value(0.3, SPEC) == pytest.approx(0.15, abs=1e-12)
        assert w.scad_value(0.3, SPEC) == pytest.approx(oracles.scad_quadrature(0.3, SPEC), abs=1e-10)

    def test_negative_rejected(self):
        with pytest.raises(w.ValidationError):
            w.scad_value(-0.1, SPEC)

    def test_matches_quadrature_randomized(self, rng):
        for _ in range(1000):
            lam = rng.uniform(0.0, 3.0)
            gam = rng.uniform(2.01, 8.0)
            t = rng.uniform(0.0, 4.0 * max(lam, 0.1) * gam)
            spec = w.ScadSpec(lam=lam, gamma=gam)
            assert w.scad_value(t, spec) == pytest.approx(
                oracles.scad_quadrature(t, spec), abs=1e-10)

    @given(lam=st.floats(0.01, 3.0), gam=st.floats(2.01, 8.0), scale=st.floats(0.0, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_nondecreasing_and_concave(self, lam, gam, scale):
        spec = w.ScadSpec(lam=lam, gamma=gam)
        ts = np.linspace(0.0, scale * gam * lam + 1e-3, 200)
        vals = w.scad_value(ts, spec)
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-12)
        assert np.all(np.diff(diffs) <= 1e-9)


class TestGroupSoftThreshold:
    def test_collapses_small_vectors(self):
        assert np.array_equal(w.group_soft_threshold(np.array([0.3, 0.4]), 1.0), np.zeros(2))

    def test_identity_at_zero_threshold(self):
        v = np.array([3.0, 4.0])
        assert np.array_equal(w.group_soft_threshold(v, 0.0), v)

    def test_shrinks_by_norm(self):
        out = w.group_soft_threshold(np.array([3.0, 4.0]), 2.5)
        assert out == pytest.approx([1.5, 2.0])

    def test_zero_vector_with_positive_threshold(self):
        assert np.array_equal(w.group_soft_threshold(np.zeros(3), 1.0), np.zeros(3))

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=5), st.floats(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_never_increases_norm(self, vec, t):
        v = np.asarray(vec)
        assert np.linalg.norm(w.group_soft_threshold(v, t)) <= np.linalg.norm(v) + 1e-12


class TestZetaProximal:
    def test_large_kappa_unshrunk(self):
        kappa = np.array([3.0, 4.0])
        out = w.zeta_proximal(kappa, SPEC, vartheta=1.0)
        assert np.array_equal(out, kappa)

    def test_small_kappa_zeroed(self):
        out = w.zeta_proximal(np.array([0.2, 0.1]), SPEC, vartheta=1.0)
        assert np.array_equal(out, np.zeros(2))

    def test_middle_case_matches_numeric(self):
        kappa = 1.2 * np.array([0.6, 0.8])
        out = w.zeta_proximal(kappa, SPEC, vartheta=1.0)
        ref = oracles.prox_numeric(kappa, SPEC, 1.0)
        assert out == pytest.approx(ref, abs=1e-6)

    def test_incompatible_gamma_rejected(self):
        with pytest.raises(w.ValidationError):
            w.zeta_proximal(np.ones(2), w.ScadSpec(lam=1.0, gamma=2.1), vartheta=0.5)

    def test_matches_numeric_randomized(self, rng):
        for _ in range(400):
            vt = rng.uniform(0.4, 3.0)
            gam = rng.uniform(max(2.0, 1.0 + 1.0 / vt) + 0.05, 7.0)
            lam = rng.uniform(0.01, 2.0)
            spec = w.ScadSpec(lam=lam, gamma=gam)
            kappa = rng.standard_normal(int(rng.integers(1, 4))) * rng.uniform(0.05, 3.0)
            out = w.zeta_proximal(kappa, spec, vt)
            ref = oracles.prox_numeric(kappa, spec, vt)
            assert out == pytest.approx(ref, abs=1e-6)

    def test_beats_candidate_grid(self, rng):
        # the map's value is minimal among 10,001 collinear candidates
        for _ in range(60):
            vt = rng.uniform(0.4, 3.0)
            gam = rng.uniform(max(2.0, 1.0 + 1.0 / vt) + 0.05, 7.0)
            spec = w.ScadSpec(lam=rng.uniform(0.01, 2.0), gamma=gam)
            kappa = rng.standard_normal(3) * rng.uniform(0.05, 3.0)
            out = w.zeta_proximal(kappa, spec, vt)
            got = oracles.proximal_objective(out, kappa, spec, vt)
            nrm = np.linalg.norm(kappa)
            cands = np.linspace(0, 2 * nrm, 10001)[:, None] * kappa / nrm
            objs = (0.5 * vt * np.sum((kappa - cands) ** 2, axis=1)
                    + w.scad_value(np.linalg.norm(cands, axis=1), spec))
            assert np.all(got <= objs + 1e-9)

    def test_output_collinear_with_kappa(self, rng):
        for _ in range(100):
            kappa = rng.standard_normal(3) * rng.uniform(0.05, 3.0)
            out = w.zeta_proximal(kappa, SPEC, 1.0)
            cross = np.linalg.norm(np.cross(out, kappa))
            assert cross <= 1e-9 * max(1.0, np.linalg.norm(kappa) ** 2)

    def test_zero_kappa_returns_zero(self):
        assert np.array_equal(w.zeta_proximal(np.zeros(2), SPEC, 1.0), np.zeros(2))

    def test_lam_zero_is_identity(self, rng):
        kappa = rng.standard_normal(3)
        out = w.zeta_proximal(kappa, w.ScadSpec(lam=0.0, gamma=3.0), 1.0)
        assert out == pytest.approx(kappa)

    def test_prox_columns_matches_single(self, rng):
        vt = 1.3
        spec = w.ScadSpec(lam=0.4, gamma=3.2)
        K = (rng.standard_normal((50, 3)) * rng.uniform(0.05, 3.0, (50, 1))).T
        cols = prox_columns(K, spec, vt)
        for l in range(50):
            assert cols[:, l] == pytest.approx(w.zeta_proximal(K[:, l], spec, vt), abs=1e-12)

    def test_prox_columns_at_branch_boundaries(self):
        # lam/vartheta = 0.5 (zero below), lam + lam/vartheta = 1.0 (end of the
        # soft-threshold branch) and gamma*lam = 1.5 (start of the identity);
        # a zero column stays zero and 5.0 is far inside the identity branch
        spec, vt = w.ScadSpec(lam=0.5, gamma=3.0), 1.0
        edges = [0.5, 1.0, 1.5]
        norms = [0.0, -0.0, 2.0, 5.0] + [x for e in edges for x in
                                    (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))]
        for rows in ([[t] for t in norms], [[t, 0.0] for t in norms], [[0.0, -t] for t in norms]):
            kappa = np.array(rows).T
            with warnings.catch_warnings():
                warnings.simplefilter("error")      # a zero column must not divide by zero
                out = prox_columns(kappa, spec, vt)
            for l, t in enumerate(norms):
                assert out[:, l] == pytest.approx(w.zeta_proximal(kappa[:, l], spec, vt), abs=1e-12)
                if abs(t) <= 0.5:
                    assert np.all(out[:, l] == 0.0), t
                if abs(t) > 1.5:
                    assert np.array_equal(out[:, l], kappa[:, l]), t

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("vt", [1.0, 2.0, 0.7])
    def test_prox_columns_bit_identical_to_branchwise_form(self, rng, p, vt):
        # the map makes the same float operations per element as one np.where
        # per branch decision, on random and on boundary norms, on both signs
        # and on NaN columns, byte for byte (so the sign of every zero too);
        # at gamma*lam the middle branch rounds to 1 + 2^-52 for (0.37, 3.7)
        # and to 1 - 2.3e-15 for (0.123, 2.5) at vartheta = 0.7.  Each block is
        # mapped whole, with both bands, and as its columns of each class
        # alone, which takes the 0/1 path and the single-band paths
        nan_cols = np.full((p, 2), np.nan)
        nan_cols[1:, 1] = -1.0      # at p > 1, NaN beside a finite entry
        for spec in (w.ScadSpec(lam=0.4, gamma=3.2), w.ScadSpec(lam=0.37, gamma=3.7),
                     w.ScadSpec(lam=0.123, gamma=2.5)):
            edges = [spec.lam / vt, spec.lam + spec.lam / vt, spec.gamma * spec.lam]
            norms = [0.0, 1e-170] + [x for e in edges for x in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))]
            direction = rng.standard_normal((p, len(norms)))
            direction[0] = np.abs(direction[0]) + 1.0
            direction[1:] = 0.0     # the norm is the first entry, exactly
            kappa = direction / direction[0] * norms
            kappa = np.concatenate([kappa, -kappa, nan_cols,
                                    rng.standard_normal((p, 500)) * rng.uniform(0.01, 3.0, 500)], axis=1)
            kappa[1:, :2 * len(norms)] = -0.0
            nrm = penalty.column_norms(kappa)
            classes = [~(nrm > edges[0]), (nrm > edges[0]) & ~(nrm > edges[1]),
                       (nrm > edges[1]) & ~(nrm > max(edges[1:])), nrm > max(edges[1:])]
            blocks = [kappa] + [kappa[:, c] for c in classes] + [kappa[:, classes[0] | classes[3]]]
            for block in blocks:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = prox_columns(block, spec, vt)
                assert same_bytes(got, oracles.prox_columns_branchwise(block, spec, vt))

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("vt", [1.0, 0.7])
    def test_live_columns_are_the_nonzero_columns_of_the_branchwise_form(self, rng, p, vt):
        # a column is live exactly when the map may leave it nonzero: at
        # lam/vartheta it is dead and one ulp above it live; a p > 1 column
        # whose norm underflows to 0 is dead, and a NaN column is live
        spec = w.ScadSpec(lam=0.37, gamma=3.7)
        t = spec.lam / vt
        norms = np.concatenate([[0.0, 1e-170, np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf),
                                 spec.lam + t, spec.gamma * spec.lam],
                                rng.uniform(0, 2 * spec.gamma * spec.lam, 300)])
        kappa = np.zeros((p, norms.size))
        kappa[0] = norms * rng.choice([-1.0, 1.0], norms.size)      # the norm is the first entry, exactly
        extra = [np.full(p, np.nan), np.r_[1.0, np.full(p - 1, np.nan)]]
        if p > 1:
            extra += [np.full(p, 1e-170), np.r_[-1e-170, np.full(p - 1, 1e-170)]]
        kappa = np.concatenate([kappa, np.array(extra).T], axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            live = penalty.live_columns(kappa, spec, vt)
        ref = oracles.prox_columns_branchwise(kappa, spec, vt)
        assert live.dtype == bool and live.shape == (kappa.shape[1],)
        assert np.array_equal(live, np.any(ref != 0, axis=0))
        assert not live[3] and live[4] and live[norms.size] and live[norms.size + 1]
        if p > 1:
            assert not live[-2:].any()
        # at lam = 0 the map is the identity: every column is live, a zero one too
        assert penalty.live_columns(kappa, w.ScadSpec(lam=0.0), vt).all()

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("vt", [1.0, 0.7])
    def test_live_columns_is_none_exactly_when_the_mask_is_empty(self, rng, p, vt):
        # no live column gives None, and otherwise the mask of the columns
        # whose norm is not at or below lam/vartheta, on blocks whose norms
        # sit at lam/vartheta, one ulp above it, on +-0 columns and with a NaN
        # column
        spec = w.ScadSpec(lam=0.37, gamma=3.7)
        t = spec.lam / vt
        cases = []
        for top in (t, np.nextafter(t, np.inf), np.nan):
            for sign in (1.0, -1.0):
                norms = np.concatenate([[0.0, -0.0, np.nextafter(t, -np.inf)], rng.uniform(0, t, 300)])
                kappa = np.zeros((p, norms.size))
                kappa[0] = norms * rng.choice([-1.0, 1.0], norms.size)  # the norm is the first entry
                kappa[0, int(rng.integers(norms.size))] = sign * top
                cases.append(kappa)
        cases += [np.zeros((p, 50)), -np.zeros((p, 50))]
        got = []
        for kappa in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                mask = penalty.live_columns(kappa, spec, vt)
            ref = ~(penalty.column_norms(kappa) <= t)
            assert (mask is None) == (not ref.any())
            assert mask is None or np.array_equal(mask, ref)
            got.append(mask is None)
            # at lam = 0 every column is live, a zero one too
            assert penalty.live_columns(kappa, w.ScadSpec(lam=0.0), vt).all()
        assert got == [True, True, False, False, False, False, True, True]

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("vt", [1.0, 0.7])
    @pytest.mark.parametrize("live_share", [0.0, 0.1, 0.24, 0.5])
    def test_prox_columns_on_the_live_columns_match_branchwise_form(self, rng, monkeypatch, p, vt, live_share):
        # the live columns, taken as a compact block, equal the branchwise
        # form's on those columns, byte for byte; the branchwise form is zero
        # on the dead columns, and the full block equals it everywhere.  The
        # band factor is computed once, over every column given, exactly when
        # one of them is in a shrink band; otherwise the map takes kappa times
        # its 0/1 identity mask
        spec = w.ScadSpec(lam=0.37, gamma=3.7)
        n = 5000
        t = spec.lam / vt
        edges = [t, spec.lam + t, spec.gamma * spec.lam]
        dead = np.concatenate([[0.0, 1e-170, np.nextafter(t, -np.inf), t], rng.uniform(0, t, n)])
        n_live = int(live_share * n)
        live = np.concatenate([[np.nextafter(t, np.inf)] + [x for e in edges[1:] for x in
                                                             (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))],
                               rng.uniform(t, 4 * spec.gamma * spec.lam, n)])[:n_live]
        norms = np.concatenate([dead[:n - n_live], live])
        rng.shuffle(norms)
        direction = rng.standard_normal((p, n))
        kappa = direction / np.linalg.norm(direction, axis=0) * norms     # exact norms at p = 1
        mask = penalty.live_columns(kappa, spec, vt)
        assert (mask is None) == (n_live == 0)
        mask = np.zeros(n, dtype=bool) if mask is None else mask
        assert np.array_equal(mask, penalty.column_norms(kappa) > t)
        nrm = penalty.column_norms(kappa)
        band = (nrm > t) & ~(nrm > max(spec.lam + t, spec.gamma * spec.lam))
        scaled = []
        real = penalty._band_scale
        monkeypatch.setattr(penalty, "_band_scale", lambda nr, *a: scaled.append(nr.size) or real(nr, *a))
        ref = oracles.prox_columns_branchwise(kappa, spec, vt)
        live = np.flatnonzero(mask)
        out = prox_columns(kappa.take(live, axis=1), spec, vt)
        assert same_bytes(out, ref[:, live])
        assert not np.any(ref[:, ~mask])
        assert scaled == ([live.size] if band.any() else [])
        scaled.clear()
        assert same_bytes(prox_columns(kappa, spec, vt), ref)
        assert scaled == ([n] if band.any() else [])
        assert band.any() == (n_live > 0)

    def test_prox_columns_keeps_nan_and_empty_blocks_on_the_live_columns(self):
        # a NaN column is live, so mapping only the live columns gives the
        # full pass's result on them, and the full pass is zero elsewhere; the
        # (p, 0) block of a single location, or of an empty support, is
        # returned as is
        spec, vt = w.ScadSpec(lam=0.5), 1.0
        kappa = np.zeros((2, 5000))
        kappa[:, 7] = [np.nan, 1.0]
        kappa[:, 9] = [3.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cols = np.flatnonzero(penalty.live_columns(kappa, spec, vt))
            out = prox_columns(kappa.take(cols, axis=1), spec, vt)
            full = prox_columns(kappa, spec, vt)
        assert cols.tolist() == [7, 9]
        assert np.isnan(out[0, 0]) and np.array_equal(out[:, 1], [3.0, 0.0])
        assert same_bytes(out, full[:, cols])
        assert not np.any(np.delete(full, cols, axis=1))
        for p in (1, 2):
            empty = np.zeros((p, 0))
            cols = np.zeros(0, dtype=np.intp)
            for got in (prox_columns(empty.take(cols, axis=1), spec, vt), prox_columns(empty, spec, vt)):
                assert got.shape == (p, 0)
                assert np.array_equal(got, oracles.prox_columns_branchwise(empty, spec, vt))

    def test_prox_columns_lam_zero_returns_a_new_equal_array(self, rng):
        kappa = rng.standard_normal((7, 2)).T
        out = prox_columns(kappa, w.ScadSpec(lam=0.0), 1.0)
        assert out is not kappa and not np.shares_memory(out, kappa)
        assert np.array_equal(out, kappa)

    @pytest.mark.parametrize("column", [[1e-170], [1e-170, 1e-170], [-1e-170, 1e-170]])
    def test_prox_columns_zeroes_a_norm_that_underflows(self, column):
        # the squared entries underflow to 0, but the norm is far below
        # lam/vartheta = 0.5, so the column is soft-thresholded to zero
        spec, vt = w.ScadSpec(lam=0.5, gamma=3.0), 1.0
        kappa = np.array(column)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = prox_columns(kappa, spec, vt)
        assert np.array_equal(out[:, 0], w.zeta_proximal(kappa[:, 0], spec, vt))
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("kappa, lam, gamma, vt, want", [
        ([5e-324], 5e-324, 3.0, 2.0, None), ([-5e-324], 5e-324, 3.0, 2.0, None),
        ([1e-320], 5e-324, 3.0, 2.0, None), ([1e200], 1e200, 3.0, 1.0, None),
        ([2.5e200], 1e200, 3.0, 1.0, None), ([5e200], 1e200, 3.0, 1.0, None),
        ([-0.1], 0.5, 3.0, 1.0, [-0.0]), ([np.nan, -1.0], 0.4, 3.2, 1.0, [np.nan, -0.0]),
        ([-1e200], 1e200, 3.0, 1.0, [-0.0])])
    def test_scalar_maps_match_prox_columns_on_one_entry_extremes(self, kappa, lam, gamma, vt, want):
        # the norm of a one-entry vector is abs in all three maps: the squared
        # entry underflows to 0 at 5e-324 and overflows past about 1.3e154.
        # At lam = 5e-324, vartheta = 2, lam/vartheta rounds to 0, so every
        # case there is on the soft-threshold branch at threshold 0; at
        # lam = 1e200, vartheta = 1, the first three cases are soft-thresholded
        # to 0, on the middle band and unshrunk.  A dead column is kappa * 0 in
        # every map, so a negative entry gives -0.0, and a column of NaN norm
        # is dead: its NaN stays and its other entries become signed zeros
        spec = w.ScadSpec(lam=lam, gamma=gamma)
        kappa = np.array(kappa)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = w.zeta_proximal(kappa, spec, vt)
            soft = w.group_soft_threshold(kappa, lam / vt)
        assert same_bytes(got, prox_columns(kappa[:, None], spec, vt)[:, 0])
        if not penalty._norm(kappa) > lam + lam / vt:
            assert same_bytes(soft, got)
        if want is not None:
            assert same_bytes(got, np.array(want))

    def test_prox_columns_zeroes_a_zero_column_when_the_threshold_underflows(self):
        # lam/vartheta rounds to 0, so a zero column divides 0 by 0 once a
        # column is in a band: at p = 1, 5e-324 is on the soft-threshold band
        # (0, lam] and 1e-323 on the middle band (lam, gamma*lam].  The p = 1
        # block holds a NaN beside finite entries, on which zeta_proximal
        # differs, so it is checked against the branchwise form alone
        spec, vt = w.ScadSpec(lam=5e-324), 2.0
        assert spec.lam / vt == 0.0
        for kappa in (np.array([[0.0, 1e-170, 0.25], [0.0, 1e-170, 0.0]]),
                      np.array([[0.0, -0.0, 5e-324, -1e-323, 0.25, np.nan]])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = prox_columns(kappa, spec, vt)
            assert same_bytes(out, oracles.prox_columns_branchwise(kappa, spec, vt))
            if kappa.shape[0] == 2:
                for l in range(kappa.shape[1]):
                    assert np.array_equal(out[:, l], w.zeta_proximal(kappa[:, l], spec, vt)), l
            else:
                assert out[0, [0, 1, 2, 4]].tolist() == [0.0, -0.0, 5e-324, 0.25]
                assert -1e-323 < out[0, 3] < 0.0        # shrunk, not zeroed

    @pytest.mark.parametrize("p", [1, 2])
    def test_prox_columns_on_subnormal_and_edge_norms_raises_no_warning(self, p):
        # a subnormal dead column used to divide lam/vartheta by its norm,
        # which overflows at p = 1; every column here, of norm 0, -0, a
        # subnormal, lam/vartheta, one ulp above it or a band edge, with
        # either sign, maps as zeta_proximal does and raises no warning
        spec = w.ScadSpec(lam=0.5)
        for vt in (1.0, 0.7):
            t = spec.lam / vt
            norms = [0.0, -0.0, 5e-324, 1e-320, t, np.nextafter(t, np.inf),
                     spec.lam + t, spec.gamma * spec.lam]
            kappa = np.zeros((p, 2 * len(norms)))
            kappa[0] = np.concatenate([norms, np.negative(norms)])    # the norm is the first entry, exactly
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = prox_columns(kappa, spec, vt)
                for l in range(kappa.shape[1]):
                    ref = w.zeta_proximal(kappa[:, l], spec, vt)
                    np.testing.assert_allclose(out[:, l], ref, rtol=1e-15, atol=0, err_msg=str(kappa[:, l]))
            assert same_bytes(out, oracles.prox_columns_branchwise(kappa, spec, vt))
            assert not np.any(out[:, [0, 1, 2, 3, 4, 8, 9, 10, 11, 12]])

    @pytest.mark.parametrize("vt", [0.09, 0.36, 0.53, 0.95])
    def test_check_prox_compatible_rejects_a_divisor_that_rounds_to_zero(self, rng, vt):
        # gamma one ulp above 1 + 1/vartheta passes the bound, but
        # 1 - 1/((gamma - 1) vartheta) rounds to 0, and the middle branch divides by it.
        # fit and zeta_proximal reject it; prox_columns trusts fit's check
        spec = w.ScadSpec(lam=1.0, gamma=float(np.nextafter(1.0 + 1.0 / vt, np.inf)))
        assert spec.gamma > 1.0 + 1.0 / vt
        assert 1.0 - 1.0 / ((spec.gamma - 1.0) * vt) == 0.0
        ds, _ = random_dataset(rng, m=3, p=1)
        for reject in (lambda: check_prox_compatible(spec, vt), lambda: w.zeta_proximal(np.ones(1), spec, vt),
                       lambda: w.fit(ds, spec, w.AdmmConfig(vartheta=vt))):
            with pytest.raises(w.ValidationError, match=f"^gamma={spec.gamma!r} must exceed"):
                reject()

    def test_check_prox_compatible_boundary(self):
        check_prox_compatible(w.ScadSpec(lam=1.0, gamma=3.0), 1.0)
        # the bound 1 + 1/vartheta exceeds 2 only for vartheta < 1; at these
        # vartheta it is exactly representable, and the inequality is strict
        for vt, bound in [(0.5, 3.0), (0.25, 5.0)]:
            check_prox_compatible(w.ScadSpec(lam=1.0, gamma=np.nextafter(bound, np.inf)), vt)
            for gamma in (bound, np.nextafter(bound, -np.inf)):
                with pytest.raises(w.ValidationError):
                    check_prox_compatible(w.ScadSpec(lam=1.0, gamma=gamma), vt)
        for vt in (0.0, -1.0):
            with pytest.raises(w.ValidationError, match="vartheta must be positive"):
                check_prox_compatible(w.ScadSpec(lam=1.0, gamma=3.0), vt)
