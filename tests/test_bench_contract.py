"""The benchmark wraps program functions by name, binds their arguments by
parameter name and counts their calls; these tests fail when a rename would
break it or a count would change its meaning."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import wccreg as w
from wccreg import admm, selection, simulation
from wccreg import io as wio

import oracles
from conftest import random_dataset, write_dataset_csv

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_probe():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PERFBENCH / "probe.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_probed_layer_resolves_to_a_callable():
    layers = _load_probe().LAYERS
    assert layers
    for name, targets in layers.items():
        for mod_name, attr in targets:
            fn = getattr(importlib.import_module(mod_name), attr, None)
            assert callable(fn), f"{name}: {mod_name}.{attr} is not callable"


def test_bound_parameter_names_exist():
    # perfbench/workloads.py reads these arguments of the captured calls by name
    assert "cfg" in inspect.signature(admm.fit).parameters
    params = inspect.signature(selection.select_lambda).parameters
    for name in ("data", "variant", "zero_tol"):
        assert name in params, name
    # and calls load_dataset_csv(csv_path, p=1, q=1) and
    # run_monte_carlo(spec, AdmmConfig(), methods=..., jobs=1)
    assert list(inspect.signature(wio.load_dataset_csv).parameters) == ["path", "p", "q"]
    assert list(inspect.signature(simulation.run_monte_carlo).parameters)[1:] == \
        ["solver_cfg", "methods", "jobs"]


def test_initialize_layer_is_called_once_per_fit_and_grid(rng, monkeypatch):
    # admm.initialize_s times calls to admm.initialize: fit and
    # default_lambda_grid each make exactly one, and it returns the (m, p) start
    ds, _ = random_dataset(rng, m=5, p=2, q=1)
    shapes = []
    real = admm.initialize
    monkeypatch.setattr(admm, "initialize",
                        lambda *a, **k: shapes.append(np.shape(real(*a, **k))) or real(*a, **k))
    selection.default_lambda_grid(ds, num=3)
    assert shapes == [(5, 2)]
    w.fit(ds, w.ScadSpec(lam=0.1))
    assert shapes == [(5, 2)] * 2


@pytest.mark.parametrize("m", [6, 100])
def test_prox_layer_is_called_once_per_iteration_on_a_pair_block(rng, monkeypatch, m):
    # penalty.prox_calls counts the calls to admm.prox_columns, so one fit
    # must make exactly one per iteration: on the whole (p, n_pairs) block on
    # a plain iteration, and above the support gate (m = 100, 4,950 pairs),
    # where most iterations work on the slack support, on the (p, k) block of
    # that iteration's k live columns, fewer than a quarter of all, which
    # are the columns of its adjoint
    ds, _ = random_dataset(rng, m=m, p=2, noise=1.0, n_range=(8, 25) if m < 10 else (4, 9))
    start = admm.prepared(ds).differences(admm.initialize(ds, w.AdmmConfig()))
    spec = w.ScadSpec(lam=float(np.linalg.norm(start, axis=0).min() if m < 10 else 2.0))
    shapes, adjoints = [], []
    real = admm.prox_columns
    monkeypatch.setattr(admm, "prox_columns",
                        lambda kappa, *a, **k: shapes.append(np.shape(kappa)) or real(kappa, *a, **k))
    real_adjoint = admm._Bundle.difference_adjoint
    monkeypatch.setattr(admm._Bundle, "difference_adjoint",
                        lambda self, S, cols=None: adjoints.append(cols) or real_adjoint(self, S, cols))
    res = w.fit(ds, spec)
    n_pairs = m * (m - 1) // 2
    assert res.iterations > 2
    assert len(shapes) == res.iterations
    narrow = [cols for cols in adjoints if cols is not None]
    assert (len(narrow) > 0) == (n_pairs >= admm._SUPPORT_MIN_PAIRS)
    compact = [shape for shape in shapes if shape != (ds.p, n_pairs)]
    assert all(shape[0] == ds.p and 4 * shape[1] < n_pairs for shape in compact)
    assert [shape[1] for shape in compact] == [cols.size for cols in narrow]


@pytest.mark.parametrize("source", ["csv", "sample"])
def test_dataset_fields_the_bench_reads(rng, tmp_path, source):
    # perfbench/checks.py recomputes the BIC and the refit score from m, p, q
    # and each location's N, y, X, Z, pi and sigma2; CliLarge.prepare writes
    # location_id, N (with str, so it must be an int) and n rows of a sampled
    # dataset to its CSV.  Pinned here on both kinds of dataset it reads.
    if source == "csv":
        path = tmp_path / "d.csv"
        write_dataset_csv(path, random_dataset(rng, m=5, p=2, q=1, sigma2=True)[0], rng)
        ds = wio.load_dataset_csv(path, p=2, q=1)
        want = oracles.csv_locations(path, p=2, q=1)
    else:
        spec = simulation.ScenarioSpec(kind=simulation.MEAN_MODEL, expected_n=10, m=6, seed=3)
        pop = simulation.generate_mean_population(spec, 0)
        ds = simulation.poisson_sample(pop, 3, 0)
        want = [{"location_id": f"loc{i + 1:03d}", "N": pop.H} for i in range(pop.m)]
    assert (ds.m, ds.p, ds.q) == (len(want), 2 if source == "csv" else 1, 1 if source == "csv" else 0)
    assert all(type(v) is int for v in (ds.m, ds.p, ds.q))
    assert ds.ids == tuple(loc["location_id"] for loc in want)
    assert len(ds.locations) == ds.m
    for b, loc in zip(ds.locations, want):
        assert b.location_id == loc["location_id"]
        assert type(b.N) is int and b.N == loc["N"] and str(b.N) == str(loc["N"])
        assert type(b.n) is int and b.n >= 1
        assert b.y.shape == (b.n,) and b.pi.shape == (b.n,)
        assert b.X.shape == (b.n, ds.p) and b.Z.shape == (b.n, ds.q)
        assert (b.sigma2 is None) == (source == "sample")
        for name in ("y", "X", "Z", "pi", "sigma2"):
            if name in loc:
                assert np.array_equal(getattr(b, name), loc[name]), name
