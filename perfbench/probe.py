"""Spans and result capture around the program's layer boundaries.

The program is timed from outside: a probe replaces a function attribute of a
loaded module with a wrapper and puts the original back afterwards.  Several
modules import functions by name, so one layer may need wrapping in more than
one namespace (see ``LAYERS``).  Spans are kept in memory as
``(name, start, end, parent)`` rows and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from pathlib import Path

import numpy as np

# layer name -> the (module, attribute) pairs its callers look up at call time
LAYERS = {
    "simulation.population": [("wccreg.simulation", "generate_population")],
    "simulation.sample": [("wccreg.simulation", "poisson_sample")],
    "selection.grid": [("wccreg.selection", "default_lambda_grid")],
    "selection.select_lambda": [("wccreg.selection", "select_lambda")],
    "selection.bic": [("wccreg.selection", "modified_bic")],
    "grouping.extract_partition": [("wccreg.selection", "extract_partition"),
                                   ("wccreg.cli", "extract_partition")],
    "grouping.refit_oracle": [("wccreg.cli", "refit_oracle")],
    "admm.fit": [("wccreg.admm", "fit")],
    "admm.initialize": [("wccreg.admm", "initialize")],
    "admm.factor": [("wccreg.admm", "cho_factor")],
    "admm.solve": [("wccreg.admm", "cho_solve")],
    "penalty.prox": [("wccreg.admm", "prox_columns")],
    "io.load_csv": [("wccreg.io", "load_dataset_csv")],
    "io.dumps": [("wccreg.io", "dumps")],
}

TASK = "task"


class Probe:
    """Installs wrappers on ``LAYERS`` and records what passes through them.

    ``hooks`` maps a layer name to a callback ``(args, kwargs, result)``; a
    hooked layer is wrapped in every mode so the benchmark can check its
    outputs.  With ``spans=True`` every layer also records a span.
    """

    def __init__(self, hooks: dict):
        self.hooks = hooks
        self.names: list[str] = [TASK] + list(LAYERS)
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrapper(self, fn, name_idx: int, hook, spans: bool):
        if hook is not None:
            inner = fn

            def fn(*args, **kwargs):
                # the hook sees the result, or the exception the call raised
                try:
                    out = inner(*args, **kwargs)
                except Exception as exc:
                    hook(args, kwargs, exc)
                    raise
                hook(args, kwargs, out)
                return out
            if not spans:
                return fn

        perf = time.perf_counter
        rows, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(rows)
            rows.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                rows[idx] = (name_idx, start, perf(), parent)
                stack.pop()
        return wrapper

    @contextlib.contextmanager
    def installed(self, spans: bool):
        """Wrap the hooked layers (all layers when ``spans``) for the block."""
        for idx, name in enumerate(self.names[1:], start=1):
            hook = self.hooks.get(name)
            if hook is None and not spans:
                continue
            for mod_name, attr in LAYERS[name]:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrapper(fn, idx, hook, spans))
        try:
            yield self
        finally:
            while self._saved:
                mod, attr, fn = self._saved.pop()
                setattr(mod, attr, fn)

    @contextlib.contextmanager
    def task_span(self):
        """Root span of one task; layers called inside become its children."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = (0, start, time.perf_counter(), -1)
            self._stack.pop()

    def arrays(self) -> dict:
        rows = np.array(self.spans, dtype=float).reshape(-1, 4)
        return {"name": rows[:, 0].astype(np.int32), "start": rows[:, 1],
                "end": rows[:, 2], "parent": rows[:, 3].astype(np.int64)}

    def self_times(self) -> dict:
        """Per layer name: calls, inclusive seconds and self seconds.

        A span's self time is its duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        out = {}
        for idx, name in enumerate(self.names):
            sel = a["name"] == idx
            out[name] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                         "self_s": float(own[sel].sum())}
        return out

    def write(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
