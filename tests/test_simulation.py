import csv
import json
from dataclasses import replace

import numpy as np
import pytest

import wccreg as w
from wccreg import io as wio
from wccreg import simulation


class TestInformativeProbabilities:
    def test_invalid_scores_take_the_smallest_positive_score(self):
        scores = np.array([2.0, np.nan, 0.5, -1.0, np.inf, 0.0, -np.inf, 3.0])
        pre, _ = w.informative_probabilities(scores, expected_n=4.0)
        fixed = np.array([2.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 3.0])
        assert np.array_equal(pre, 4.0 * fixed / fixed.sum())
        assert pre.sum() == pytest.approx(4.0, rel=1e-14)

    def test_all_invalid_location_takes_the_fallback(self):
        scores = np.array([np.nan, -2.0, 0.0, -np.inf])
        pre, pi = w.informative_probabilities(scores, expected_n=2.0)
        fallback = np.full(4, simulation.SCORE_FALLBACK)
        assert np.array_equal(pre, 2.0 * fallback / fallback.sum())
        assert pre == pytest.approx(np.full(4, 0.5), rel=1e-14)
        assert np.array_equal(pi, pre)

    def test_clamped_into_floor_and_one(self):
        # one dominant score pushes its probability past 1, one tiny score
        # pushes its probability below the floor
        scores = np.array([1e-9, 1.0, 1.0, 1.0, 50.0])
        pre, pi = w.informative_probabilities(scores, expected_n=3.0)
        assert pre.sum() == pytest.approx(3.0, rel=1e-14)
        assert pre.max() > 1.0 and pre.min() < simulation.PI_FLOOR
        assert pi.max() == 1.0 and pi.min() == simulation.PI_FLOOR
        assert np.all((pi >= simulation.PI_FLOOR) & (pi <= 1.0))
        inside = (pre >= simulation.PI_FLOOR) & (pre <= 1.0)
        assert np.array_equal(pi[inside], pre[inside])

    def test_input_is_not_modified(self):
        scores = np.array([np.nan, 1.0])
        w.informative_probabilities(scores, expected_n=1.0)
        assert np.isnan(scores[0])


def test_monte_carlo_records_do_not_depend_on_jobs():
    spec = w.ScenarioSpec(kind="mean_model", expected_n=6, seed=3, reps=2, m=10, H=30)
    kw = dict(grid_kw={"num": 4})
    serial = w.run_monte_carlo(spec, jobs=1, **kw)
    pooled = w.run_monte_carlo(spec, jobs=2, **kw)
    assert len(serial.records) == 4
    assert not any(r.failed for r in serial.records)
    assert serial.records == pooled.records
    assert serial.to_dict() == pooled.to_dict()


def test_table_generator_smoke(tmp_path):
    spec = w.ScenarioSpec(kind="mean_model", expected_n=6, seed=3, reps=2, m=10, H=30)
    summary = w.run_monte_carlo(spec, grid_kw={"num": 4})
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

    single = w.run_monte_carlo(replace(spec, reps=1), grid_kw={"num": 4})
    for meth in single.methods:
        s = single.summary(meth)
        assert s["n_reps"] == 1
        assert s["k_sd"] is None and s["ari_sd"] is None and s["rmse_sd"] is None
    lines = simulation.format_summary_table(single).splitlines()
    assert len(lines) == 2 + len(single.methods)
    assert all(ln.count("(n/a)") == 2 for ln in lines[2:])
