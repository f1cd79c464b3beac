"""One sha256 over the fits, selections, reports and populations of a fixed
set, to show that a change leaves every fitted number, BIC, partition,
report byte and population as it was.

    python tools/fit_digest.py [--src DIR]
    python tools/fit_digest.py --src A --src B

Runs the program in ``DIR`` (default: this checkout's ``src``) on:

* ``cli_large`` tasks 0-2 at seeds 7 and 13 and ``mc_mean`` tasks 0-2 at
  seed 7, on the benchmark's own task inputs (this checkout's
  ``perfbench/workloads.py``, imported read-only, so the tree in ``DIR``
  needs no benchmark of its own);
* a 6-lambda path from 0.05a to a (a the default grid's anchor) for m = 100
  locations (4,950 pairs, above the solver's support gate) at p = 2 and
  p = 3, q = 1, with known variances, on data where 7 of 8 locations share
  one coefficient, so that most iterations run on a narrow or empty slack
  support;
* the populations of both study designs (``generate_population``, m = 49)
  at seeds 7 and 13, expected sample sizes 10 and 30 and replicates 0-3.

Every candidate fit adds its beta, eta, zeta, v (shape and float64 bytes),
iterations, both residuals and ``converged`` to the digest; every
``select_lambda`` call its selected lambda and each candidate's lambda, BIC,
assignment and alpha; every ``cli_large`` task its JSON report bytes; and
every population its labels, truth, y, X, pi and sigma (dtype, shape and
bytes).  Prints one digest per part, the fit, selection, report and
population counts, and one digest over all.  With two ``--src`` trees it
runs each in its own process, prints both digests of every part side by
side, and exits 1 if any line differs.  The path data is built with the
stacked constructor ``Dataset(ids, offsets, N, y, X, Z, pi, sigma2)``; a tree
without it (before ``Dataset.from_arrays`` was folded into the constructor)
is digested by its own copy of this tool.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
PATH_M, PATH_GRID = 100, 6
POP_SEEDS, POP_NS, POP_REPS = (7, 13), (10, 30), 4


def _load_program(src: Path):
    """Import ``wccreg`` from ``src`` (BLAS on one thread) and the bench's workloads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.dont_write_bytecode = True          # leave no cache files in either tree
    sys.path[:0] = [str(src), str(BENCH)]
    import wccreg
    if Path(wccreg.__file__).resolve().parent != src / "wccreg":
        raise SystemExit(f"error: imported wccreg from {wccreg.__file__}, not {src}")
    return importlib.import_module("workloads")


class Digest:
    def __init__(self):
        self.total = hashlib.sha256()
        self.part = hashlib.sha256()
        self.fits = self.selections = self.reports = self.populations = 0

    def add(self, data: bytes) -> None:
        self.total.update(data)
        self.part.update(data)

    def add_fit(self, fit) -> None:
        import numpy as np
        for name in ("beta", "eta", "zeta", "v"):
            a = np.ascontiguousarray(getattr(fit, name), dtype="<f8")
            self.add(repr(a.shape).encode() + a.tobytes())
        self.add(struct.pack("<qdd?", fit.iterations, fit.final_residual,
                             fit.final_dual_residual, bool(fit.converged)))
        self.fits += 1

    def add_selection(self, lam_star, path) -> None:
        import numpy as np
        self.add(struct.pack("<d", lam_star))
        for rec in path.records:
            self.add(struct.pack("<dd", rec.lam, rec.bic))
            for a in (rec.partition.assignment.astype("<i8"), rec.partition.alpha.astype("<f8")):
                self.add(repr(a.shape).encode() + np.ascontiguousarray(a).tobytes())
        self.selections += 1

    def add_population(self, pop) -> None:
        for name in ("labels", "truth", "y", "X", "pi", "sigma"):
            a = getattr(pop, name)
            self.add(b"None" if a is None else
                     (a.dtype.str + repr(a.shape)).encode() + a.tobytes())
        self.populations += 1

    def end_part(self, name: str) -> None:
        print(f"{name}: {self.part.hexdigest()}", flush=True)
        self.part = hashlib.sha256()


def _path_dataset(p: int):
    """m = 100 locations, every eighth one apart from the rest, n = 4-9 rows
    each, an intercept among the p columns, one shared covariate and known
    variances."""
    import numpy as np
    from wccreg.types import Dataset
    rng = np.random.default_rng([PATH_M, p])
    n = rng.integers(4, 10, PATH_M)
    rows = int(n.sum())
    centres = np.array([np.zeros(p), np.full(p, 2.0)])
    group = (np.arange(PATH_M) % 8 == 7).astype(int)
    beta = centres[group][np.repeat(np.arange(PATH_M), n)]
    X = np.column_stack([np.ones(rows), rng.standard_normal((rows, p - 1))])
    Z = rng.standard_normal((rows, 1))
    sigma2 = rng.uniform(0.5, 2.0, rows)
    y = np.sum(X * beta, axis=1) + 0.5 * Z[:, 0] + np.sqrt(sigma2) * rng.standard_normal(rows)
    N = n + rng.integers(5, 50, PATH_M)
    return Dataset([f"loc{i}" for i in range(PATH_M)], np.r_[0, np.cumsum(n)], N, y, X, Z,
                   rng.uniform(0.15, 1.0, rows), sigma2)


def _compare(trees: list) -> int:
    """Digest each tree in its own process; print every part's digests side by
    side and return 1 if any output line differs."""
    outputs = []
    for src in trees:
        run = subprocess.run([sys.executable, __file__, "--src", str(src)],
                             stdout=subprocess.PIPE, text=True)
        if run.returncode != 0:
            raise SystemExit(f"error: the digest of {src} exited {run.returncode}")
        outputs.append(run.stdout.splitlines())
    print("trees: " + " | ".join(str(src) for src in trees))
    differs = False
    for lines in zip(*outputs, strict=True):
        same = len(set(lines)) == 1
        differs |= not same
        print(("same     " if same else "DIFFERS  ") + " | ".join(lines))
    return 1 if differs else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, action="append",
                    help="the program tree to run (default: this checkout's src); "
                         "give it twice to compare two trees")
    args = ap.parse_args(argv)
    trees = args.src or [ROOT / "src"]
    if len(trees) > 2:
        ap.error("--src takes one tree, or two to compare")
    if len(trees) == 2:
        return _compare([src.resolve() for src in trees])
    workloads = _load_program(trees[0].resolve())
    import numpy as np
    from wccreg import admm, selection, simulation

    digest = Digest()
    real_fit, real_select = admm.fit, selection.select_lambda

    def fit(*a, **k):
        res = real_fit(*a, **k)
        digest.add_fit(res)
        return res

    def select_lambda(*a, **k):
        res = real_select(*a, **k)
        digest.add_selection(res[0], res[3])
        return res

    admm.fit, selection.select_lambda = fit, select_lambda
    try:
        with tempfile.TemporaryDirectory() as tmp:
            cli_large = workloads.CliLarge(Path(tmp))
            for seed in (7, 13):
                for k in range(3):
                    inputs = cli_large.prepare(seed, k)
                    code, _ = cli_large.run(inputs)
                    if code != 0:
                        raise SystemExit(f"error: cli_large seed {seed} task {k} exited {code}")
                    digest.add(inputs["out"].read_bytes())
                    digest.reports += 1
            digest.end_part("cli_large")
            mc_mean = workloads.McMean(Path(tmp))
            for k in range(3):
                mc_mean.run(mc_mean.prepare(7, k))
            digest.end_part("mc_mean")
        for p in (2, 3):
            data = _path_dataset(p)
            anchor = float(selection.default_lambda_grid(data, num=1)[0])
            selection.select_lambda(data, np.geomspace(0.05 * anchor, anchor, PATH_GRID))
            digest.end_part(f"path m={PATH_M} p={p}")
    finally:
        admm.fit, selection.select_lambda = real_fit, real_select
    for kind in (simulation.MEAN_MODEL, simulation.REGRESSION):
        for seed in POP_SEEDS:
            for n in POP_NS:
                spec = simulation.ScenarioSpec(kind=kind, expected_n=n, seed=seed)
                for rep in range(POP_REPS):
                    digest.add_population(simulation.generate_population(spec, rep))
    digest.end_part("populations")
    print(f"{digest.fits} fits, {digest.selections} selections, {digest.reports} reports, "
          f"{digest.populations} populations")
    print(f"digest {digest.total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
