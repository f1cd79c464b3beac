import csv
import json
import logging
from dataclasses import replace

import numpy as np
import pytest

import wccreg as w
from wccreg import io as wio
from wccreg import simulation

from oracles import keyed_rng, population_location


class TestInformativeProbabilities:
    def test_invalid_scores_take_the_smallest_positive_score(self):
        # the six invalid scores become 0.5, so the scores sum to 8 and pi is
        # 4 s / 8, exact in binary: the 1.5 of the score 3 is clamped to 1
        scores = np.array([2.0, np.nan, 0.5, -1.0, np.inf, 0.0, -np.inf, 3.0])
        pi = w.informative_probabilities(scores, expected_n=4.0)
        assert np.array_equal(pi, [1.0, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 1.0])

    def test_all_invalid_location_takes_the_fallback(self):
        scores = np.array([np.nan, -2.0, 0.0, -np.inf])
        pi = w.informative_probabilities(scores, expected_n=2.0)
        fallback = np.full(4, simulation.SCORE_FALLBACK)
        assert np.array_equal(pi, 2.0 * fallback / fallback.sum())
        assert pi == pytest.approx(np.full(4, 0.5), rel=1e-14)

    def test_clamped_into_floor_and_one(self):
        # one dominant score pushes its probability past 1 (150/53), one tiny
        # score pushes its probability below the floor (3e-9/53); the rest are
        # 3 s / sum(s), unclamped, and the result sums to less than 3
        scores = np.array([1e-9, 1.0, 1.0, 1.0, 50.0])
        pi = w.informative_probabilities(scores, expected_n=3.0)
        total = 1e-9 + 1.0 + 1.0 + 1.0 + 50.0
        assert np.array_equal(pi, [simulation.PI_FLOOR, 3.0 / total, 3.0 / total, 3.0 / total, 1.0])
        assert pi.sum() < 3.0

    def test_input_is_not_modified(self):
        scores = np.array([np.nan, 1.0])
        w.informative_probabilities(scores, expected_n=1.0)
        assert np.isnan(scores[0])


def test_monte_carlo_records_do_not_depend_on_jobs():
    spec = w.ScenarioSpec(kind="mean_model", expected_n=6, seed=3, reps=2, m=10)
    serial = w.run_monte_carlo(spec, jobs=1)
    pooled = w.run_monte_carlo(spec, jobs=2)
    assert len(serial.records) == 4
    assert not any(r.failed for r in serial.records)
    assert serial.records == pooled.records
    assert serial.to_dict() == pooled.to_dict()


@pytest.mark.parametrize("jobs, reps, cpus, workers", [
    (64, 3, 8, 3), (64, 5, 4, 4), (2, 5, 8, 2), (4, 3, None, None), (3, 1, 8, None),
])
def test_worker_count_is_capped_by_reps_and_cpus(monkeypatch, jobs, reps, cpus, workers):
    # a serial stand-in for the process pool records the size asked for;
    # None means the replicates run in this process without a pool
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: cpus)
    spec = w.ScenarioSpec(kind="mean_model", expected_n=6, seed=3, reps=reps, m=10)
    pooled = w.run_monte_carlo(spec, methods=("wcc",), jobs=jobs)
    assert asked == ([] if workers is None else [workers])
    assert pooled.records == w.run_monte_carlo(spec, methods=("wcc",), jobs=1).records


@pytest.mark.parametrize("methods, message", [(("wcc", "wcc"), "each method may be given once"),
                                              (("cc", "ols"), "unknown method 'ols'")])
def test_methods_are_checked_before_any_replicate(monkeypatch, methods, message):
    # a repeated method would fit and report every replicate twice
    drawn = []
    monkeypatch.setattr(simulation, "generate_population", lambda *a: drawn.append(a))
    spec = w.ScenarioSpec(kind="mean_model", expected_n=6, seed=3, reps=2, m=10)
    with pytest.raises(w.ValidationError, match=message):
        w.run_monte_carlo(spec, methods=methods)
    assert drawn == []


class TestAggregates:
    """``McSummary`` and ``write_rep_csv`` on hand-built records, against
    values worked out by hand.  Four replicates: rep 2 failed for both
    methods (its sampling failed), and CC failed its fit in reps 1 and 3, so
    CC has a single good replicate.  Every value below is exact in binary."""

    SPEC = w.ScenarioSpec(kind="mean_model", expected_n=10, seed=7, reps=4)

    @classmethod
    def summary(cls):
        R, nan = simulation.RepRecord, float("nan")
        failed = dict(ari=nan, rmse=nan, lambda_star=nan, converged=False, failed=True)
        records = (
            R(0, "wcc", K_hat=3, K_true=3, ari=1.0, rmse=0.5, lambda_star=0.25, converged=True),
            R(0, "cc", K_hat=3, K_true=3, ari=0.25, rmse=2.0, lambda_star=0.5, converged=True),
            R(1, "wcc", K_hat=2, K_true=3, ari=0.5, rmse=1.5, lambda_star=0.5, converged=False),
            R(1, "cc", K_hat=0, K_true=3, **failed),
            R(2, "wcc", K_hat=0, K_true=0, **failed),
            R(2, "cc", K_hat=0, K_true=0, **failed),
            R(3, "wcc", K_hat=4, K_true=3, ari=0.75, rmse=1.0, lambda_star=0.125, converged=True),
            R(3, "cc", K_hat=0, K_true=3, **failed),
        )
        return simulation.McSummary(scenario=cls.SPEC, methods=("wcc", "cc"), records=records)

    # WCC: K_hat 3, 2, 4 (one correct), ARI 1, 0.5, 0.75, RMSE 0.5, 1.5, 1.0 sorted
    # 0.5, 1.0, 1.5 (quartiles by linear interpolation); sds with ddof = 1
    WCC = {"n_reps": 3, "k_mean": 3.0, "k_sd": 1.0, "prop_k_correct": 1 / 3,
           "ari_mean": 0.75, "ari_sd": 0.25, "rmse_mean": 1.0, "rmse_sd": 0.5,
           "rmse_median": 1.0, "rmse_q25": 0.75, "rmse_q75": 1.25, "failures": 1}
    CC = {"n_reps": 1, "k_mean": 3.0, "k_sd": None, "prop_k_correct": 1.0,
          "ari_mean": 0.25, "ari_sd": None, "rmse_mean": 2.0, "rmse_sd": None,
          "rmse_median": 2.0, "rmse_q25": 2.0, "rmse_q75": 2.0, "failures": 3}

    def test_summary_per_method(self):
        summary = self.summary()
        for meth, want in (("wcc", self.WCC), ("cc", self.CC)):
            got = summary.summary(meth)
            assert got == want, meth
            assert all(type(got[k]) is type(v) for k, v in want.items()), meth

    def test_to_dict(self):
        assert self.summary().to_dict() == {
            "scenario": {"kind": "mean_model", "expected_n": 10, "m": 49, "H": 120,
                         "reps": 4, "seed": 7},
            "methods": {"wcc": self.WCC, "cc": self.CC},
        }

    def test_rep_csv_rows(self, tmp_path):
        path = tmp_path / "reps.csv"
        simulation.write_rep_csv(self.summary(), path)
        with open(path, newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == [
                ["rep", "method", "K_hat", "ARI", "RMSE", "lambda_star", "converged"],
                ["0", "WCC", "3", "1.0", "0.5", "0.25", "1"],
                ["0", "CC", "3", "0.25", "2.0", "0.5", "1"],
                ["1", "WCC", "2", "0.5", "1.5", "0.5", "0"],
                ["1", "CC", "0", "nan", "nan", "nan", "0"],
                ["2", "WCC", "0", "nan", "nan", "nan", "0"],
                ["2", "CC", "0", "nan", "nan", "nan", "0"],
                ["3", "WCC", "4", "0.75", "1.0", "0.125", "1"],
                ["3", "CC", "0", "nan", "nan", "nan", "0"],
            ]


def test_table_generator_smoke(tmp_path):
    spec = w.ScenarioSpec(kind="mean_model", expected_n=6, seed=3, reps=2, m=10)
    summary = w.run_monte_carlo(spec)
    path = tmp_path / "reps.csv"
    simulation.write_rep_csv(summary, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rep", "method", "K_hat", "ARI", "RMSE", "lambda_star", "converged"]
    assert [(r[0], r[1]) for r in rows[1:]] == [("0", "WCC"), ("0", "CC"), ("1", "WCC"), ("1", "CC")]
    report = summary.to_dict()
    assert json.loads(wio.dumps(report)) == report
    assert report["methods"]["wcc"]["n_reps"] == 2 and report["methods"]["wcc"]["k_sd"] is not None
    lines = simulation.format_summary_table(summary).splitlines()
    assert len(lines) == 2 + len(summary.methods)
    assert [ln.split()[0] for ln in lines[2:]] == ["WCC", "CC"]
    assert "n/a" not in "\n".join(lines)

    single = w.run_monte_carlo(replace(spec, reps=1))
    for meth in single.methods:
        s = single.summary(meth)
        assert s["n_reps"] == 1
        assert s["k_sd"] is None and s["ari_sd"] is None and s["rmse_sd"] is None
    lines = simulation.format_summary_table(single).splitlines()
    assert len(lines) == 2 + len(single.methods)
    assert all(ln.count("(n/a)") == 2 for ln in lines[2:])


class TestPopulationGenerators:
    @pytest.mark.parametrize("kind", ["mean_model", "regression"])
    def test_each_location_matches_its_redrawn_substream(self, kind):
        spec = w.ScenarioSpec(kind=kind, expected_n=10, seed=11, m=15)
        pop = simulation.generate_population(spec, rep=2)
        p = 1 if kind == "mean_model" else 2
        assert pop.m == 15 and pop.H == 120 and pop.X.shape == (15, 120, p)
        assert np.all(np.isfinite(pop.X)) and np.all(pop.X[:, :, 0] == 1.0)
        for i in range(spec.m):
            ref = population_location(kind, spec.seed, 2, i, spec.expected_n)
            assert pop.labels[i] == ref["label"]
            assert np.array_equal(pop.truth[i], ref["truth"])
            assert np.array_equal(pop.X[i], ref["X"])
            assert pop.y[i] == pytest.approx(ref["y"], rel=1e-14, abs=1e-14)
            assert pop.pi[i] == pytest.approx(ref["pi"], rel=1e-12)
            if kind == "regression":
                assert pop.sigma[i] == pytest.approx(ref["sigma"], rel=1e-14)
                assert pop.sigma[i] == pytest.approx(0.1 * np.exp(0.8 * pop.X[i] @ pop.truth[i]),
                                                     rel=1e-14)
            else:
                assert pop.sigma is None
        # every group of the design appears in a population of this size
        assert set(pop.labels.tolist()) == {0, 1, 2}

    def test_the_mean_generator_takes_a_mean_model_spec_only(self):
        with pytest.raises(w.ValidationError, match="^spec.kind must be 'mean_model'$"):
            simulation.generate_mean_population(w.ScenarioSpec(kind="regression", expected_n=10))
        spec = w.ScenarioSpec(kind="mean_model", expected_n=10, seed=3, m=4)
        mean = simulation.generate_mean_population(spec, 1)
        pop = simulation.generate_population(spec, 1)
        for name in ("labels", "truth", "y", "X", "pi"):
            assert np.array_equal(getattr(mean, name), getattr(pop, name)), name

    def test_design_constants_are_fixed(self):
        spec = w.ScenarioSpec(kind="regression", expected_n=10)
        assert (spec.H, spec.p, spec.mean_noise_sd) == (120, 2, 0.25)
        with pytest.raises(TypeError):
            w.ScenarioSpec(kind="regression", expected_n=10, H=30)

    @pytest.mark.parametrize("kw, message", [({"seed": -1}, "seed must be nonnegative, got -1"),
                                             ({"m": 0}, "m must be at least 1, got 0"),
                                             ({"kind": "bogus"}, "unknown scenario kind 'bogus'"),
                                             ({"reps": 0}, "reps must be at least 1")])
    def test_bad_seed_location_count_kind_or_reps_rejected(self, kw, message):
        with pytest.raises(w.ValidationError) as err:
            w.ScenarioSpec(**{"kind": "mean_model", "expected_n": 6, **kw})
        assert str(err.value) == message


class TestPoissonSample:
    def _population(self):
        spec = w.ScenarioSpec(kind="mean_model", expected_n=4, seed=5, m=8)
        pop = simulation.generate_population(spec, rep=1)
        # location 3 is nearly empty, so its first draws come up empty and
        # it goes through the resampling substreams
        pi = pop.pi.copy()
        pi[3] = 0.0005
        return replace(pop, pi=pi)

    def test_rows_are_included_exactly_where_u_is_below_pi(self):
        pop = self._population()
        data = w.poisson_sample(pop, seed=9, rep=1)
        attempts = []
        for i, block in enumerate(data.locations):
            for attempt in range(simulation.MAX_RESAMPLE_ATTEMPTS):
                mask = keyed_rng(9, 1, 1, i, attempt).random(pop.H) < pop.pi[i]
                if mask.any():
                    break
            attempts.append(attempt)
            assert block.location_id == f"loc{i + 1:03d}" and block.N == pop.H
            assert np.array_equal(block.y, pop.y[i, mask])
            assert np.array_equal(block.X, pop.X[i, mask])
            assert np.array_equal(block.pi, pop.pi[i, mask])
            assert block.Z.shape == (mask.sum(), 0)
        assert attempts[3] > 0 and max(attempts[:3] + attempts[4:]) == 0

    def test_a_location_does_not_depend_on_the_others(self):
        pop = self._population()
        base = w.poisson_sample(pop, seed=9, rep=1)
        others = np.arange(pop.m) != 3
        pi, y = pop.pi.copy(), pop.y.copy()
        pi[others] = np.flip(pi[others], axis=1)
        y[others] += 1.0
        moved = w.poisson_sample(replace(pop, pi=pi, y=y), seed=9, rep=1)
        a, b = base.locations[3], moved.locations[3]
        assert np.array_equal(a.y, b.y) and np.array_equal(a.pi, b.pi)
        assert not np.array_equal(base.locations[0].y, moved.locations[0].y)

    def test_a_location_that_never_samples_raises(self):
        pop = self._population()
        pi = pop.pi.copy()
        pi[5] = 0.0
        with pytest.raises(simulation.SimulationError, match="location 5"):
            w.poisson_sample(replace(pop, pi=pi), seed=9, rep=1)


def _fail_sampling_in(reps, monkeypatch):
    """Make the populations of ``reps`` unsampleable: location 0 has pi = 0."""
    real = simulation.generate_population

    def broken(spec, rep=0):
        pop = real(spec, rep)
        if rep not in reps:
            return pop
        pi = pop.pi.copy()
        pi[0] = 0.0
        return replace(pop, pi=pi)

    monkeypatch.setattr(simulation, "generate_population", broken)


class TestFailedReplicates:
    def test_all_failed_method_shows_a_dash_row(self, monkeypatch):
        _fail_sampling_in({0}, monkeypatch)
        spec = w.ScenarioSpec(kind="mean_model", expected_n=6, seed=3, reps=1, m=10)
        summary = w.run_monte_carlo(spec)
        assert [(r.rep, r.method, r.failed) for r in summary.records] == \
            [(0, "wcc", True), (0, "cc", True)]
        for meth in summary.methods:
            assert summary.summary(meth) == {"n_reps": 0, "failures": 1}
        rows = simulation.format_summary_table(summary).splitlines()[2:]
        assert [r.split() for r in rows] == [["WCC", "-", "-", "-", "-", "1"],
                                             ["CC", "-", "-", "-", "-", "1"]]

    def test_failures_are_counted_beside_the_good_replicates(self, monkeypatch):
        _fail_sampling_in({1}, monkeypatch)
        spec = w.ScenarioSpec(kind="mean_model", expected_n=6, seed=3, reps=2, m=10)
        summary = w.run_monte_carlo(spec)
        assert [r.failed for r in summary.records] == [False, False, True, True]
        for meth in summary.methods:
            s = summary.summary(meth)
            assert (s["n_reps"], s["failures"]) == (1, 1)
        rows = simulation.format_summary_table(summary).splitlines()[2:]
        assert [r.split()[-1] for r in rows] == ["1", "1"]
        assert json.loads(wio.dumps(summary.to_dict()))["methods"]["cc"]["failures"] == 1

    def test_a_fatal_fit_fails_that_method_alone(self, monkeypatch, caplog):
        # a singular system in the CC selection fails the CC record, which
        # keeps K_true; the WCC record of the same replicate stands
        spec = w.ScenarioSpec(kind="mean_model", expected_n=6, seed=3, reps=1, m=10)
        wcc_only = w.run_monte_carlo(spec, methods=("wcc",))
        cc_data = []
        real_copy, real_select = simulation.unweighted_copy, simulation.selection.select_lambda

        def select(data, *a, **k):
            if any(data is d for d in cc_data):
                raise w.SingularSystemError("forced")
            return real_select(data, *a, **k)

        monkeypatch.setattr(simulation, "unweighted_copy", lambda *a: cc_data.append(real_copy(*a)) or cc_data[-1])
        monkeypatch.setattr(simulation.selection, "select_lambda", select)
        with caplog.at_level(logging.WARNING, logger="wccreg.simulation"):
            summary = w.run_monte_carlo(spec)
        wcc, cc = summary.records
        assert wcc == wcc_only.records[0] and not wcc.failed
        K_true = int(np.unique(simulation.generate_population(spec, 0).labels).size)
        assert (cc.method, cc.failed, cc.K_hat, cc.K_true, cc.converged) == ("cc", True, 0, K_true, False)
        assert np.isnan([cc.ari, cc.rmse, cc.lambda_star]).all()
        assert summary.summary("cc") == {"n_reps": 0, "failures": 1}
        assert summary.summary("wcc")["failures"] == 0
        assert "rep 0 method cc: fatal fit error (forced)" in caplog.text
