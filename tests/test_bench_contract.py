"""The benchmark wraps program functions by name and binds their arguments by
parameter name; these tests fail when a rename would break it."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from wccreg import admm, selection

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
