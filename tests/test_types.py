from dataclasses import replace

import numpy as np
import pytest

import wccreg as w
from wccreg import admm
from wccreg import io as wio


def block(n=5, p=2, q=0, pi=None, N=50, lid="a", sigma2=None):
    rng = np.random.default_rng(3)
    return w.LocationBlock(
        location_id=lid, N=N,
        y=rng.standard_normal(n),
        X=rng.standard_normal((n, p)),
        Z=rng.standard_normal((n, q)) if q else np.zeros((n, 0)),
        pi=pi if pi is not None else np.full(n, 0.4),
        sigma2=sigma2,
    )


class TestInvariants:
    def test_wellformed_two_location_dataset(self):
        ds = w.Dataset([block(lid="a"), block(lid="b")])
        assert ds.m == 2 and ds.p == 2 and ds.q == 0

    def test_zero_inclusion_probability_names_location(self):
        with pytest.raises(w.ValidationError, match="badloc"):
            block(pi=np.array([0.5, 0.0, 0.5, 0.5, 0.5]), lid="badloc")

    def test_replace_rechecks_and_names_location(self):
        b = block(lid="badloc")
        with pytest.raises(w.ValidationError, match="location 'badloc': inclusion probabilities"):
            replace(b, pi=np.array([0.5, 0.0, 0.5, 0.5, 0.5]))

    def test_pi_above_one_rejected(self):
        with pytest.raises(w.ValidationError, match="inclusion"):
            block(pi=np.array([0.5, 1.2, 0.5, 0.5, 0.5]))

    def test_empty_z_blocks_ok(self):
        ds = w.Dataset([block(q=0)])
        assert ds.q == 0 and ds.locations[0].Z.shape == (5, 0)

    def test_population_smaller_than_sample_rejected(self):
        with pytest.raises(w.ValidationError, match="population size"):
            block(n=5, N=3)

    def test_ragged_rows_rejected(self):
        with pytest.raises(w.ValidationError, match="ragged"):
            w.LocationBlock("r", 50, y=np.zeros(4), X=np.zeros((5, 2)),
                            Z=np.zeros((4, 0)), pi=np.full(4, 0.5))

    def test_p_mismatch_across_blocks_rejected(self):
        with pytest.raises(w.ValidationError, match="location 'b': p=3 does not match dataset p=2"):
            w.Dataset((block(p=2, lid="a"), block(p=3, lid="b")))

    def test_q_mismatch_across_blocks_rejected(self):
        with pytest.raises(w.ValidationError, match="location 'c': q=0 does not match dataset q=1"):
            w.Dataset((block(q=1, lid="a"), block(q=1, lid="b"), block(q=0, lid="c")))

    def test_shape_is_read_off_the_blocks(self):
        ds = w.Dataset((block(p=3, q=2, lid="a"), block(p=3, q=2, lid="b")))
        assert (ds.m, ds.p, ds.q) == (2, 3, 2)
        with pytest.raises(w.ValidationError, match="no locations"):
            w.Dataset(())

    def test_nonpositive_sigma2_rejected(self):
        with pytest.raises(w.ValidationError, match="sigma2"):
            block(sigma2=np.array([1.0, 0.0, 1.0, 1.0, 1.0]))

    def test_empty_block_rejected(self):
        with pytest.raises(w.ValidationError):
            w.LocationBlock("e", 10, y=np.zeros(0), X=np.zeros((0, 1)),
                            Z=np.zeros((0, 0)), pi=np.zeros(0))

    def test_duplicate_location_ids_rejected(self):
        with pytest.raises(w.ValidationError, match="duplicate"):
            w.Dataset([block(lid="a"), block(lid="a")])

    def test_arrays_read_only(self):
        b = block()
        with pytest.raises(ValueError):
            b.y[0] = 1.0

    @pytest.mark.parametrize("N", [float("inf"), 10.5, float("nan")])
    def test_population_size_must_be_a_finite_integer(self, N):
        with pytest.raises(w.ValidationError) as err:
            block(N=N)
        assert str(err.value) == f"location 'a': N must be a finite integer, got {N}"
        with pytest.raises(w.ValidationError) as err:
            w.Dataset.from_arrays(["a", "b"], [0, 5, 10], [50, N], np.zeros(10), np.ones((10, 1)),
                                  np.zeros((10, 0)), np.full(10, 0.5))
        assert str(err.value) == f"location 'b': N must be a finite integer, got {N}"

    def test_integral_population_size_is_kept_as_int(self):
        assert type(block(N=50.0).N) is int and block(N=np.int64(7)).N == 7


class TestStackedDataset:
    def test_blocks_are_stacked_and_viewed_back(self):
        a, b = block(n=3, q=1, lid="a", N=40), block(n=5, q=1, lid="b", sigma2=np.full(5, 2.0))
        ds = w.Dataset([a, b])
        assert ds.ids == ("a", "b") and ds.offsets.tolist() == [0, 3, 8]
        assert ds.N.tolist() == [40.0, 50.0] and ds.n_total == 8
        # a block without variances stacks as variances of one
        assert ds.sigma2.tolist() == [1.0] * 3 + [2.0] * 5
        for got, want in zip(ds.locations, (a, b)):
            assert (got.location_id, got.N, got.n) == (want.location_id, want.N, want.n)
            for name in ("y", "X", "Z", "pi"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
        for arr in (ds.offsets, ds.N, ds.y, ds.X, ds.Z, ds.pi, ds.sigma2, ds.locations[1].X):
            assert not arr.flags.writeable
            assert arr.flags.c_contiguous

    def test_from_arrays_takes_population_sizes_per_row(self):
        rows = dict(y=np.zeros(4), X=np.ones((4, 1)), Z=np.zeros((4, 0)), pi=np.full(4, 0.5))
        ds = w.Dataset.from_arrays(["a", "b"], [0, 1, 4], [9, 7, 7, 7], **rows)
        assert ds.N.tolist() == [9.0, 7.0] and [b.N for b in ds.locations] == [9, 7]
        with pytest.raises(w.ValidationError, match="^location 'b': inconsistent N values "
                                                    r"\[7.0, 8.0\]$"):
            w.Dataset.from_arrays(["a", "b"], [0, 1, 4], [9, 7, 8, 7], **rows)

    def test_the_first_offending_location_is_named(self):
        # a fails only the last check (N < n), b an earlier one: a is named
        y = np.array([0.0, 0.0, np.nan, 0.0])
        with pytest.raises(w.ValidationError, match="^location 'a': population size N=1 "
                                                    "smaller than sample size n=2$"):
            w.Dataset.from_arrays(["a", "b"], [0, 2, 4], [1, 9], y, np.ones((4, 1)),
                                  np.zeros((4, 0)), np.full(4, 0.5))

    def test_offsets_must_cover_the_rows(self):
        with pytest.raises(w.ValidationError, match="row offsets"):
            w.Dataset.from_arrays(["a"], [0, 3], [9], np.zeros(4), np.ones((4, 1)),
                                  np.zeros((4, 0)), np.full(4, 0.5))


class TestConfigs:
    def test_admm_config_defaults(self):
        cfg = w.AdmmConfig()
        assert cfg.vartheta == 1.0 and cfg.tol == 1e-6 and cfg.max_iter == 2000

    @pytest.mark.parametrize("kw", [
        {"vartheta": 0.0}, {"tol": 0.0}, {"max_iter": 0}, {"init_ridge": -1.0},
        {"init_ridge": float("nan")}, {"init_ridge": float("inf")}, {"vartheta": float("inf")},
        {"tol": float("inf")}, {"tol": float("nan")},
    ])
    def test_bad_config_rejected(self, kw):
        with pytest.raises(w.ValidationError, match=next(iter(kw))):
            w.AdmmConfig(**kw)

    def test_scad_spec_validation(self):
        with pytest.raises(w.ValidationError):
            w.ScadSpec(lam=-0.1)
        with pytest.raises(w.ValidationError):
            w.ScadSpec(lam=float("nan"))
        with pytest.raises(w.ValidationError):
            w.ScadSpec(lam=1.0, gamma=2.0)
        # an infinite gamma makes the proximal map's threshold inf * 0 = nan
        for kw, field in [({"lam": float("inf")}, "lam"), ({"lam": 1.0, "gamma": float("inf")}, "gamma"),
                          ({"lam": 1.0, "gamma": float("nan")}, "gamma")]:
            with pytest.raises(w.ValidationError, match=f"^{field} must be"):
                w.ScadSpec(**kw)


class TestPartitionContainer:
    def test_rejects_inconsistent_k(self):
        with pytest.raises(w.ValidationError):
            w.Partition(assignment=np.array([0, 0, 1]), K_hat=3,
                        alpha=np.zeros((3, 1)), group_sizes=np.array([2, 1, 0]))

    def test_rejects_bad_sizes(self):
        with pytest.raises(w.ValidationError):
            w.Partition(assignment=np.array([0, 1]), K_hat=2,
                        alpha=np.zeros((2, 1)), group_sizes=np.array([2, 1]))


class TestSerializationRoundTrip:
    def test_fit_result_round_trip_exact(self, rng):
        m, p = 4, 2
        npairs = m * (m - 1) // 2
        fit = w.FitResult(beta=rng.standard_normal((m, p)) * np.pi,
                          eta=rng.standard_normal(1),
                          zeta=rng.standard_normal((p, npairs)),
                          v=rng.standard_normal((p, npairs)),
                          iterations=17, final_residual=1.2345678901234567e-7,
                          converged=True, final_dual_residual=3.3e-9)
        import json
        back = wio.fit_result_from_dict(json.loads(wio.dumps(wio.fit_result_to_dict(fit))))
        assert np.array_equal(back.beta, fit.beta)
        assert np.array_equal(back.zeta, fit.zeta)
        assert np.array_equal(back.v, fit.v)
        assert back.final_residual == fit.final_residual
        assert back.iterations == fit.iterations

    def test_single_location_fit_round_trip(self, rng):
        # m = 1, p = 2: the pair blocks are (2, 0) and come back with that shape
        b = w.LocationBlock("a", 40, y=rng.standard_normal(12), X=rng.standard_normal((12, 2)),
                            Z=rng.standard_normal((12, 1)), pi=rng.uniform(0.2, 1.0, 12))
        fit = w.fit(w.Dataset([b]), w.ScadSpec(lam=0.5))
        import json
        back = wio.fit_result_from_dict(json.loads(wio.dumps(wio.fit_result_to_dict(fit))))
        assert back.zeta.shape == back.v.shape == (2, 0)
        assert wio.fit_result_to_dict(fit)["zeta"] == ""
        for name in ("beta", "eta", "zeta", "v"):
            assert np.array_equal(getattr(back, name), getattr(fit, name)), name
        assert (back.iterations, back.final_residual, back.converged, back.final_dual_residual) == (
            fit.iterations, fit.final_residual, fit.converged, fit.final_dual_residual)

    def test_dumps_is_byte_deterministic_and_keeps_nan(self, rng):
        import json
        v = rng.standard_normal((1, 3))
        v[0, 1] = np.nan
        fit = w.FitResult(beta=rng.standard_normal((3, 1)), eta=np.zeros(0),
                          zeta=rng.standard_normal((1, 3)), v=v,
                          iterations=5, final_residual=1e-7, converged=True)

        def report():
            return {"schema_version": wio.SCHEMA_VERSION, "fit": wio.fit_result_to_dict(fit),
                    "bic": float("nan")}

        text = wio.dumps(report())
        assert text.encode("utf-8") == wio.dumps(report()).encode("utf-8")
        assert text.endswith("}\n") and text.count("\n") == 1
        back = json.loads(text)
        assert list(back) == ["schema_version", "fit", "bic"]
        assert np.isnan(back["bic"]) and np.isnan(back["fit"]["final_dual_residual"])
        # the pair-space fields are base64 float64 bytes, exact down to a NaN in v
        assert isinstance(back["fit"]["zeta"], str) and isinstance(back["fit"]["v"], str)
        rt = wio.fit_result_from_dict(back["fit"])
        assert np.array_equal(rt.zeta, fit.zeta)
        assert np.array_equal(rt.v, fit.v, equal_nan=True) and np.isnan(rt.v[0, 1])

    @pytest.mark.parametrize("field", ["zeta", "v"])
    @pytest.mark.parametrize("value, message", [
        ("AAAAAAAAAAA=", "holds 8 bytes, expected .* = 48"),
        ("not base64!", "is not valid base64"),
        ([[0.0, 0.0, 0.0]], "must be a base64 string .* got list"),
    ])
    def test_pair_field_decoder_names_the_field(self, rng, field, value, message):
        # m = 3, p = 2: each pair field holds 2 * 3 float64 values, 48 bytes
        fit = w.FitResult(beta=rng.standard_normal((3, 2)), eta=np.zeros(0),
                          zeta=rng.standard_normal((2, 3)), v=rng.standard_normal((2, 3)),
                          iterations=5, final_residual=1e-7, converged=True)
        d = wio.fit_result_to_dict(fit)
        d[field] = value
        with pytest.raises(w.ValidationError, match=f"fit field '{field}' {message}"):
            wio.fit_result_from_dict(d)

    def test_partition_round_trip(self):
        part = w.Partition(assignment=np.array([0, 1, 0, 2]), K_hat=3,
                           alpha=np.array([[1.0], [2.0], [3.0]]),
                           group_sizes=np.array([2, 1, 1]))
        import json
        back = wio.partition_from_dict(json.loads(wio.dumps(wio.partition_to_dict(part))))
        assert np.array_equal(back.assignment, part.assignment)
        assert back.K_hat == part.K_hat
        assert np.array_equal(back.alpha, part.alpha)


def test_public_names_are_unique_and_resolve():
    assert len(w.__all__) == len(set(w.__all__))
    for name in w.__all__:
        assert getattr(w, name) is not None, name
    assert w.fit is admm.fit
