"""The benchmark wraps program functions by name, binds their arguments by
parameter name and counts their calls; these tests fail when a rename would
break it or a count would change its meaning."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import wccreg as w
from wccreg import admm, selection, simulation
from wccreg import io as wio

from conftest import random_dataset

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


def test_prox_layer_is_called_once_per_iteration_on_a_pair_block(rng, monkeypatch):
    # penalty.prox_calls counts the calls to admm.prox_columns, so one fit
    # must make exactly one per iteration, each on the whole (p, n_pairs) block
    ds, _ = random_dataset(rng, m=6, p=2, noise=1.0)
    start = admm.prepared(ds).differences(admm.initialize(ds, w.AdmmConfig()))
    spec = w.ScadSpec(lam=float(np.linalg.norm(start, axis=0).min()))
    shapes = []
    real = admm.prox_columns
    monkeypatch.setattr(admm, "prox_columns",
                        lambda kappa, *a, **k: shapes.append(np.shape(kappa)) or real(kappa, *a, **k))
    res = w.fit(ds, spec)
    assert res.iterations > 2
    assert shapes == [(ds.p, ds.m * (ds.m - 1) // 2)] * res.iterations
