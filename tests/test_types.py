import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

import wccreg as w
from wccreg import admm
from wccreg import io as wio
from wccreg.selection import LambdaRecord

from conftest import random_dataset, stack


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


def rows(n=3, p=1):
    """Stacked row arrays of n valid rows."""
    return dict(y=np.zeros(n), X=np.ones((n, p)), Z=np.zeros((n, 0)), pi=np.full(n, 0.5))


class TestInvariants:
    def test_wellformed_two_location_dataset(self):
        ds = stack([block(lid="a"), block(lid="b")])
        assert ds.m == 2 and ds.p == 2 and ds.q == 0

    def test_zero_inclusion_probability_names_location(self):
        with pytest.raises(w.ValidationError, match="badloc"):
            stack([block(pi=np.array([0.5, 0.0, 0.5, 0.5, 0.5]), lid="badloc")])

    def test_replace_rechecks_and_names_location(self):
        ds = stack([block(lid="badloc")])
        with pytest.raises(w.ValidationError, match="location 'badloc': inclusion probabilities"):
            replace(ds, pi=np.array([0.5, 0.0, 0.5, 0.5, 0.5]))

    def test_pi_above_one_rejected(self):
        with pytest.raises(w.ValidationError, match="inclusion"):
            stack([block(pi=np.array([0.5, 1.2, 0.5, 0.5, 0.5]))])

    def test_empty_z_blocks_ok(self):
        ds = stack([block(q=0)])
        assert ds.q == 0 and ds.locations[0].Z.shape == (5, 0)

    def test_population_smaller_than_sample_rejected(self):
        with pytest.raises(w.ValidationError, match="population size"):
            stack([block(n=5, N=3)])

    def test_ragged_rows_rejected(self):
        with pytest.raises(w.ValidationError, match="ragged"):
            stack([w.LocationBlock("r", 50, y=np.zeros(4), X=np.zeros((5, 2)),
                                   Z=np.zeros((4, 0)), pi=np.full(4, 0.5))])

    def test_shape_is_read_off_the_blocks(self):
        ds = stack((block(p=3, q=2, lid="a"), block(p=3, q=2, lid="b")))
        assert (ds.m, ds.p, ds.q) == (2, 3, 2)
        with pytest.raises(w.ValidationError, match="no locations"):
            w.Dataset((), [0], [], **rows(0))

    def test_nonpositive_sigma2_rejected(self):
        with pytest.raises(w.ValidationError, match="sigma2"):
            stack([block(sigma2=np.array([1.0, 0.0, 1.0, 1.0, 1.0]))])

    def test_empty_block_rejected(self):
        with pytest.raises(w.ValidationError):
            stack([w.LocationBlock("e", 10, y=np.zeros(0), X=np.zeros((0, 1)),
                                   Z=np.zeros((0, 0)), pi=np.zeros(0))])

    def test_duplicate_location_ids_rejected(self):
        with pytest.raises(w.ValidationError, match="duplicate"):
            stack([block(lid="a"), block(lid="a")])

    def test_arrays_read_only(self):
        ds = stack([block()])
        for arr in (ds.y, ds.locations[0].y):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("N", [float("inf"), 10.5, float("nan")])
    def test_population_size_must_be_a_finite_integer(self, N):
        with pytest.raises(w.ValidationError) as err:
            stack([block(N=N)])
        assert str(err.value) == f"location 'a': N must be a finite integer, got {N}"
        with pytest.raises(w.ValidationError) as err:
            w.Dataset(["a", "b"], [0, 5, 10], [50, N], np.zeros(10), np.ones((10, 1)),
                      np.zeros((10, 0)), np.full(10, 0.5))
        assert str(err.value) == f"location 'b': N must be a finite integer, got {N}"

    def test_integral_population_size_is_kept_as_int(self):
        assert type(stack([block(N=50.0)]).locations[0].N) is int
        assert stack([block(N=np.int64(7))]).locations[0].N == 7


class TestStackedDataset:
    def test_blocks_are_stacked_and_viewed_back(self):
        a = block(n=3, q=1, lid="a", N=40, sigma2=np.ones(3))
        b = block(n=5, q=1, lid="b", sigma2=np.full(5, 2.0))
        ds = stack([a, b])
        assert ds.ids == ("a", "b") and ds.offsets.tolist() == [0, 3, 8]
        assert ds.N.tolist() == [40.0, 50.0] and ds.n_total == 8
        assert ds.sigma2.tolist() == [1.0] * 3 + [2.0] * 5
        for got, want in zip(ds.locations, (a, b)):
            assert (got.location_id, got.N, got.n) == (want.location_id, want.N, want.n)
            for name in ("y", "X", "Z", "pi", "sigma2"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
        for arr in (ds.offsets, ds.N, ds.y, ds.X, ds.Z, ds.pi, ds.sigma2, ds.locations[1].X):
            assert not arr.flags.writeable
            assert arr.flags.c_contiguous

    def test_the_constructor_is_the_one_way_in(self):
        # a sequence of blocks is no dataset; replace builds a new, checked
        # dataset with its own precomputation
        with pytest.raises(TypeError):
            w.Dataset([block(lid="a"), block(lid="b")])
        ds = w.Dataset(["a"], [0, 3], [9], **rows())
        bundle = admm.prepared(ds)
        doubled = replace(ds, y=np.full(3, 2.0))
        assert doubled.y.tolist() == [2.0] * 3 and ds.y.tolist() == [0.0] * 3
        assert admm.prepared(doubled) is not bundle and admm.prepared(ds) is bundle
        assert doubled.ids == ds.ids and doubled.N is not ds.N

    def test_population_sizes_may_be_given_per_row(self):
        ds = w.Dataset(["a", "b"], [0, 1, 4], [9, 7, 7, 7], **rows(4))
        assert ds.N.tolist() == [9.0, 7.0] and [b.N for b in ds.locations] == [9, 7]
        with pytest.raises(w.ValidationError, match="^location 'b': inconsistent N values "
                                                    r"\[7.0, 8.0\]$"):
            w.Dataset(["a", "b"], [0, 1, 4], [9, 7, 8, 7], **rows(4))

    def test_the_first_offending_location_is_named(self):
        # a fails only the last check (N < n), b an earlier one: a is named
        y = np.array([0.0, 0.0, np.nan, 0.0])
        with pytest.raises(w.ValidationError, match="^location 'a': population size N=1 "
                                                    "smaller than sample size n=2$"):
            w.Dataset(["a", "b"], [0, 2, 4], [1, 9], y, np.ones((4, 1)),
                      np.zeros((4, 0)), np.full(4, 0.5))

    def test_offsets_must_cover_the_rows(self):
        with pytest.raises(w.ValidationError, match="row offsets"):
            w.Dataset(["a"], [0, 3], [9], **rows(4))

    @pytest.mark.parametrize("middle", [1.7, 1.0000001, float("nan"), float("inf")])
    def test_fractional_or_non_finite_offsets_are_rejected(self, middle):
        # a fraction used to be truncated, so [0, 1.7, 3] read as [0, 1, 3],
        # and a NaN failed in the integer conversion
        with pytest.raises(w.ValidationError) as err:
            w.Dataset(["a", "b"], [0, middle, 3], [9, 9], **rows())
        assert str(err.value) == f"row offsets must be finite integers, got [0.0, {middle}, 3.0]"

    def test_integral_float_offsets_are_read_as_integers(self):
        ds = w.Dataset(["a", "b"], np.array([0.0, 1.0, 3.0]), [9, 9], **rows())
        assert ds.offsets.dtype == np.intp and ds.offsets.tolist() == [0, 1, 3]

    @pytest.mark.parametrize("name, value, shape", [
        ("y", np.zeros((3, 3)), "(3, 3)"), ("pi", np.full((3, 1), 0.5), "(3, 1)"),
        ("sigma2", np.ones((3, 1)), "(3, 1)"), ("X", np.ones(3), "(3,)"),
        ("Z", np.zeros((3, 1, 1)), "(3, 1, 1)"), ("y", np.float64(0.0), "()"),
        ("N", [[9]], "(1, 1)"),
    ])
    def test_arrays_of_the_wrong_rank_are_rejected(self, name, value, shape):
        # a (3, 3) y used to pass the check and fail inside the first fit
        fields = {**rows(), "ids": ["a"], "offsets": [0, 3], "N": [9], name: value}
        ndim = 2 if name in ("X", "Z") else 1
        with pytest.raises(w.ValidationError) as err:
            w.Dataset(**fields)
        assert str(err.value) == f"{name} must be {ndim}-D, got shape {shape}"

    def test_rank_is_checked_before_the_offsets(self):
        with pytest.raises(w.ValidationError, match="^y must be 1-D"):
            w.Dataset(["a"], [0, 1.5], [9], **dict(rows(), y=np.zeros((3, 1))))

    def test_rank_is_checked_before_the_location_count(self):
        with pytest.raises(w.ValidationError, match="^X must be 2-D, got shape \\(0,\\)"):
            w.Dataset([], [0], [], np.zeros(0), np.zeros(0), np.zeros((0, 0)), np.zeros(0))

    @pytest.mark.parametrize("edit, message", [
        ({"X": np.ones((3, 0))}, "X must have at least one column"),
        ({"sigma2": np.ones(2)}, "sigma2 length 2 != 3")])
    def test_a_design_without_columns_or_a_short_sigma2_is_named(self, edit, message):
        with pytest.raises(w.ValidationError) as err:
            w.Dataset(["a"], [0, 3], [9], **{**rows(), **edit})
        assert str(err.value) == f"location 'a': {message}"

    def test_a_one_dimensional_z_is_rejected(self):
        # Z is (n, q) even at q = 1: a 1-D Z is not read as one column
        with pytest.raises(w.ValidationError) as err:
            w.Dataset(["a"], [0, 3], [9], **dict(rows(), Z=np.arange(3.0)))
        assert str(err.value) == "Z must be 2-D, got shape (3,)"


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
        # three alpha rows (K_hat = 3) for two labels
        with pytest.raises(w.ValidationError, match="labels must be exactly 0..K_hat-1"):
            w.Partition(assignment=np.array([0, 0, 1]), alpha=np.zeros((3, 1)))

    def test_rejects_an_unused_label(self):
        with pytest.raises(w.ValidationError, match="labels must be exactly 0..K_hat-1"):
            w.Partition(assignment=np.array([0, 0, 2]), alpha=np.zeros((3, 1)))

    @pytest.mark.parametrize("assignment, alpha, message", [
        ([0, 0, 1], [0.0, 1.0], "alpha must be 2-D, got shape (2,)"),
        ([[0, 1]], [[0.0], [1.0]], "assignment must be 1-D, got shape (1, 2)"),
    ])
    def test_rejects_an_array_of_another_dimension(self, assignment, alpha, message):
        # a 1-D alpha used to be read as one row (K_hat = 1), and a 2-D
        # assignment passed and then failed in group_sizes
        with pytest.raises(w.ValidationError) as err:
            w.Partition(assignment=np.array(assignment), alpha=np.array(alpha))
        assert str(err.value) == message

    def test_rejects_bad_sizes(self):
        # a report's group sizes must be those of its assignment
        d = {"K_hat": 2, "assignment": [1, 1, 2], "alpha": [[0.0], [1.0]], "group_sizes": [1, 2]}
        with pytest.raises(w.ValidationError, match="partition field 'group_sizes' is \\[1, 2\\], "
                                                    "but the assignment gives \\[2, 1\\]"):
            wio.partition_from_dict(d)


class TestResultContainers:
    def test_results_compare_and_hash_by_identity(self):
        # their fields are arrays, so a field-wise == would ask an array for
        # its truth value; equality is identity, as for Dataset
        def part():
            return w.Partition(assignment=np.array([0, 1, 0]), alpha=np.zeros((2, 1)))

        def fit():
            return w.FitResult(beta=np.zeros((3, 1)), eta=np.zeros(0), zeta=np.zeros((1, 3)),
                               v=np.zeros((1, 3)), iterations=1, final_residual=0.0, converged=True)

        def record():
            return LambdaRecord(lam=0.5, fit=fit(), partition=part(), bic=1.0)

        for make in (part, fit, record):
            a, b = make(), make()
            assert a == a and a != b and not (a == b)
            assert hash(a) == hash(a) and len({a, b}) == 2

    @pytest.mark.parametrize("name, value, message", [
        ("beta", np.zeros(3), "beta must be 2-D, got shape (3,)"),
        ("eta", np.float64(0.0), "eta must be 1-D, got shape ()"),
        ("zeta", np.zeros(3), "zeta must be 2-D, got shape (3,)"),
        ("v", np.zeros((1, 1, 3)), "v must be 2-D, got shape (1, 1, 3)"),
    ])
    def test_fit_result_rejects_an_array_of_another_dimension(self, name, value, message):
        # a 1-D beta of m = 3 locations used to be read as one location of p = 3
        arrays = {"beta": np.zeros((3, 1)), "eta": np.zeros(0), "zeta": np.zeros((1, 3)),
                  "v": np.zeros((1, 3)), name: value}
        with pytest.raises(w.ValidationError) as err:
            w.FitResult(**arrays, iterations=1, final_residual=0.0, converged=True)
        assert str(err.value) == message

    def test_fit_result_rejects_slacks_that_do_not_match_beta(self):
        # m = 3 locations have 3 pairs, not 2
        with pytest.raises(w.ValidationError) as err:
            w.FitResult(beta=np.zeros((3, 1)), eta=np.zeros(0), zeta=np.zeros((1, 2)), v=np.zeros((1, 2)),
                        iterations=1, final_residual=0.0, converged=True)
        assert str(err.value) == "slack/multiplier shape (1, 2) inconsistent with beta (3, 1)"

    def test_fit_result_keeps_frozen_owned_arrays_and_copies_the_rest(self):
        zeta, v = np.array([[0.0, 1.0, 2.0]]), np.ones((1, 3))
        zeta.flags.writeable = False
        wide = np.zeros((1, 6))
        view = wide[:, ::2]
        view.flags.writeable = False
        fit = w.FitResult(beta=np.zeros((3, 1)), eta=np.zeros(0), zeta=zeta, v=v,
                          iterations=1, final_residual=0.0, converged=True)
        assert fit.zeta is zeta and np.shares_memory(fit.zeta, zeta)
        assert not np.shares_memory(fit.v, v) and not fit.v.flags.writeable
        v[0, 0] = 5.0
        assert fit.v[0, 0] == 1.0
        # a read-only array that does not own its data, or is not float64, is copied
        for other in (view, np.zeros((1, 3), dtype=np.float32)):
            other.flags.writeable = False
            fit = w.FitResult(beta=np.zeros((3, 1)), eta=np.zeros(0), zeta=other, v=v,
                              iterations=1, final_residual=0.0, converged=True)
            assert not np.shares_memory(fit.zeta, other)
            assert fit.zeta.dtype == np.float64 and fit.zeta.flags.c_contiguous and fit.zeta.flags.owndata


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
        fit = w.fit(stack([b]), w.ScadSpec(lam=0.5))
        import json
        back = wio.fit_result_from_dict(json.loads(wio.dumps(wio.fit_result_to_dict(fit))))
        assert back.zeta.shape == back.v.shape == (2, 0)
        assert wio.fit_result_to_dict(fit)["zeta"] == ""
        for name in ("beta", "eta", "zeta", "v"):
            assert np.array_equal(getattr(back, name), getattr(fit, name)), name
        assert (back.iterations, back.final_residual, back.converged, back.final_dual_residual) == (
            fit.iterations, fit.final_residual, fit.converged, fit.final_dual_residual)

    def test_pickle_keeps_the_fields_alone_and_rebuilds_through_the_constructor(self, rng):
        # the solver bundle and the location views stay behind, and the copy
        # is read-only like any constructed dataset
        ds, _ = random_dataset(rng, m=6, p=2, q=1, sigma2=True)
        size = len(pickle.dumps(ds))
        ds.locations
        admm.prepared(ds)
        assert len(pickle.dumps(ds)) == size
        back = pickle.loads(pickle.dumps(ds))
        assert "_prepared" in vars(ds) and "locations" in vars(ds)
        assert "_prepared" not in vars(back) and "locations" not in vars(back)
        for f in fields(w.Dataset):
            want, got = getattr(ds, f.name), getattr(back, f.name)
            if isinstance(want, np.ndarray):
                assert not got.flags.writeable and got.dtype == want.dtype, f.name
                assert np.array_equal(got, want), f.name
            else:
                assert got == want, f.name
        spec = w.ScadSpec(lam=0.3)
        fit, fit_back = w.fit(ds, spec), w.fit(back, spec)
        for name in ("beta", "eta", "zeta", "v"):
            assert np.array_equal(getattr(fit_back, name), getattr(fit, name)), name
        assert (fit_back.iterations, fit_back.final_residual) == (fit.iterations, fit.final_residual)

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
        part = w.Partition(assignment=np.array([0, 1, 0, 2]), alpha=np.array([[1.0], [2.0], [3.0]]))
        import json
        d = json.loads(wio.dumps(wio.partition_to_dict(part, ("a", "b", "c", "d"))))
        assert d["location_ids"] == ["a", "b", "c", "d"]
        back = wio.partition_from_dict(d)
        assert np.array_equal(back.assignment, part.assignment)
        assert back.K_hat == part.K_hat
        assert np.array_equal(back.alpha, part.alpha)

    @pytest.mark.parametrize("field, value, message", [
        ("alpha", [[0.0], [1.0], [2.0]], "fields 'assignment' and 'alpha' disagree: labels \\[1, 2\\] for 3"),
        ("K_hat", 3, "field 'K_hat' is 3, but the assignment gives 2"),
        ("assignment", [1.7, 2.2, 1], "field 'assignment' must be a list of integer labels"),
        ("assignment", [[1, 1, 2]], "field 'assignment' must be a list of integer labels"),
        ("alpha", [0.0, 1.0], "field 'alpha' must be 2-D, got shape \\(2,\\)"),
    ], ids=["alpha_rows", "k_hat", "float_labels", "nested_labels", "flat_alpha"])
    def test_partition_report_that_disagrees_with_its_assignment_is_rejected(self, field, value, message):
        # a report's K_hat and alpha rows must match its labels, which must be
        # integers: 1.7 and 2.2 are not read as 1 and 2
        d = {"K_hat": 2, "assignment": [1, 1, 2], "alpha": [[0.0], [1.0]], "group_sizes": [2, 1]}
        assert wio.partition_from_dict(d).K_hat == 2
        d[field] = value
        with pytest.raises(w.ValidationError, match=f"^partition {message}"):
            wio.partition_from_dict(d)


def test_public_names_are_unique_and_resolve():
    assert len(w.__all__) == len(set(w.__all__))
    for name in w.__all__:
        assert getattr(w, name) is not None, name
    assert w.fit is admm.fit
