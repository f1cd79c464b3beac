"""Selected outputs of the reference commit, per workload, seed, task and method.

``python3 perfbench/reference.py --workload mc_mean --seeds 0-19 --tasks 24``
runs the tasks untimed and stores lambda*, K_hat, the assignment and the
selected beta/eta in ``perfbench/ref/<workload>.json.gz``.  The benchmark
compares every task it runs against the stored record of the same key and
reports the largest coefficient difference as ``beta_dev``.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

import numpy as np

REF_DIR = Path(__file__).resolve().parent / "ref"


def key(seed: int, k: int, method: str) -> str:
    return f"{seed}/{k}/{method}"


def load(workload: str) -> dict:
    path = REF_DIR / f"{workload}.json.gz"
    if not path.exists():
        return {}
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)["tasks"]


def compare(ref: dict, got: dict) -> tuple[float, list[str]]:
    """Largest |beta - beta_ref| and |eta - eta_ref|, and the fields that differ."""
    dev = max(float(np.max(np.abs(np.subtract(got[f], ref[f]), dtype=float), initial=0.0))
              for f in ("beta", "eta"))
    names = [f for f in ("lambda_star", "K_hat", "assignment") if got[f] != ref[f]]
    return dev, names


def _record(workload: str, seeds: range, tasks: int) -> None:
    import shutil
    import tempfile

    import run
    run.bootstrap()
    from probe import Probe
    from workloads import WORKLOADS, Capture

    wl_cls = WORKLOADS[workload]
    path = REF_DIR / f"{workload}.json.gz"
    stored = {"tasks": {}}
    if path.exists():
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            stored = json.load(fh)
    stored["environment"] = run.environment(run.ROOT)
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.OUT_DIR))
    try:
        wl = wl_cls(workdir)
        cap = Capture()
        probe = Probe(cap.hooks)
        for seed in seeds:
            for k in range(tasks):
                inputs = wl.prepare(seed, k)
                cap.reset()
                with probe.installed(spans=False):
                    result = wl.run(inputs)
                outcome = wl.check(inputs, result, cap)
                if outcome.problems:
                    raise SystemExit(f"seed {seed} task {k}: {outcome.problems}")
                for method, rec in outcome.selected.items():
                    stored["tasks"][key(seed, k, method)] = rec
            print(f"{workload} seed {seed}: {tasks} tasks recorded", flush=True)
            REF_DIR.mkdir(exist_ok=True)
            with gzip.open(path, "wt", encoding="utf-8") as fh:
                json.dump(stored, fh, sort_keys=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--tasks", type=int, required=True, help="tasks per seed")
    a = ap.parse_args()
    lo, hi = (int(x) for x in a.seeds.split("-"))
    _record(a.workload, range(lo, hi + 1), a.tasks)
