"""The benchmark's workloads: how one task's inputs are made, run and checked.

Every task runs in this process with ``jobs=1``: on a two-core machine a
process pool would measure the scheduler rather than the solver.  Task ``k``
of a run with seed ``s`` draws its data from ``task_seed(s, k)``, so a run
spreads over several replicates and the same seed always gives the same
inputs.

``mc_mean``: one Monte Carlo replicate of the paper's mean-model cell
(m=49, p=1, q=0, expected n=10, WCC and CC, default 30-point lambda grid),
about 60 cold fits of cheap iterations, where the proximal map and per-call
overhead dominate.  It is the cell where the BIC selects K_hat > 1 (K_hat=2
in 90% of the reference replicates, 1 or 3 otherwise), so the ARI against the
planted groups means something.

``cli_large``: ``wccreg fit`` on a CSV from the m=400 mean-model generator
plus one shared covariate with a common slope and a known-variance column,
8 lambdas from 0.2a to a (a = the default grid's anchor), with the oracle
refit and a JSON report.  At m=400 the dense pair-difference matrix dominates
each iteration and the peak memory; it is also the only workload that runs
the q > 0 profile path, CSV reading, JSON writing, the refit and the
partition union-find over ~80k fused pairs.  The grid keeps to the fusing
end, whose fits take ~10 iterations each.  The low end needs ~2000, and at
0.15a some replicates stop fusing and take 120-470 iterations, which made the
median task time of a run depend on the seed.  The BIC selects K_hat = 1 on
every reference task, so its ARI is 0.  It fits only the weighted data, so it
reports ``ari_cc`` as 0.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from wccreg import admm, cli, selection, simulation
from wccreg import io as wio
from wccreg.types import AdmmConfig

CLI_M = 400
CLI_SLOPE = 0.5
CLI_GRID = (0.2, 1.0, 8)
REFIT_TOL = 1e-8


def task_seed(seed: int, k: int) -> int:
    return (seed % 2**32) * 1000 + k


class Capture:
    """Hook callbacks that keep what the layers returned during one task."""

    def __init__(self):
        self.reset()
        self.hooks = {
            "admm.fit": lambda a, kw, out: self.fits.append((a, kw, out)),
            "selection.select_lambda": lambda a, kw, out: self.selections.append((a, kw, out)),
            "simulation.population": lambda a, kw, out: self.populations.append(out),
            "io.load_csv": lambda a, kw, out: self.datasets.append(out),
        }

    def reset(self):
        self.fits, self.selections, self.populations, self.datasets = [], [], [], []


@dataclass
class Outcome:
    """What the checks found for one task."""

    problems: list = field(default_factory=list)
    fits: int = 0                   # candidate fits attempted
    fits_failed: int = 0            # capped, raised or failing a check
    iterations: int = 0
    ari: dict = field(default_factory=dict)         # method -> ARI vs planted labels
    selected: dict = field(default_factory=dict)    # method -> reference record
    report_bytes: int = 0


def _bound(fn, args, kwargs) -> dict:
    b = inspect.signature(fn).bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


def check_fits(cap: Capture, out: Outcome) -> None:
    for args, kwargs, res in cap.fits:
        out.fits += 1
        if isinstance(res, Exception):
            out.fits_failed += 1
            out.problems.append(f"candidate fit raised {res!r}")
            continue
        cfg = _bound(_FIT, args, kwargs)["cfg"]
        problems = checks.check_fit(res, cfg.tol, cfg.max_iter)
        out.iterations += res.iterations
        out.problems += problems
        if problems or not res.converged:
            out.fits_failed += 1


def _check_selection(sel, labels, method: str, out: Outcome):
    """Checks one select_lambda call; returns its (lam, fit, part) or None."""
    args, kwargs, res = sel
    if isinstance(res, Exception):
        out.problems.append(f"{method}: select_lambda raised {res!r}")
        return None
    a = _bound(_SELECT, args, kwargs)
    lam, fit, part, path = res
    count_q = a["variant"].kind == selection.REGRESSION
    out.problems += [f"{method}: {p}" for p in
                     checks.check_selection(a["data"], lam, fit, part, path, count_q)]
    out.problems += [f"{method}: {p}" for p in checks.check_partition(fit, part, a["zero_tol"])]
    out.ari[method] = checks.adjusted_rand(part.assignment, labels)
    out.selected[method] = {
        "lambda_star": float(lam), "K_hat": int(part.K_hat),
        "assignment": part.assignment.tolist(),
        "beta": fit.beta.tolist(), "eta": fit.eta.tolist(),
    }
    return lam, fit, part


# the unwrapped functions, whose signatures bind the captured arguments
_FIT = admm.fit
_SELECT = selection.select_lambda


class McMean:
    name = "mc_mean"
    methods = ("wcc", "cc")

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def prepare(self, seed: int, k: int):
        return simulation.ScenarioSpec(kind=simulation.MEAN_MODEL, expected_n=10,
                                       seed=task_seed(seed, k), reps=1)

    def run(self, spec):
        return simulation.run_monte_carlo(spec, AdmmConfig(), methods=self.methods, jobs=1)

    def check(self, spec, summary, cap: Capture) -> Outcome:
        out = Outcome()
        check_fits(cap, out)
        if len(cap.populations) != 1 or len(cap.selections) != len(self.methods):
            out.problems.append(f"expected 1 population and {len(self.methods)} selections, "
                                f"got {len(cap.populations)} and {len(cap.selections)}")
            return out
        labels = cap.populations[0].labels
        for method, sel, rec in zip(self.methods, cap.selections, summary.records):
            chosen = _check_selection(sel, labels, method, out)
            if chosen is None:
                continue
            lam, _, part = chosen
            if rec.failed or rec.method != method:
                out.problems.append(f"{method}: replicate record failed or out of order")
            elif (rec.K_hat, rec.lambda_star) != (part.K_hat, lam) or \
                    not abs(rec.ari - out.ari[method]) <= 1e-12:
                out.problems.append(f"{method}: replicate record disagrees with the selected fit")
        return out


class CliLarge:
    name = "cli_large"
    methods = ("wcc",)

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def prepare(self, seed: int, k: int):
        ts = task_seed(seed, k)
        spec = simulation.ScenarioSpec(kind=simulation.MEAN_MODEL, expected_n=10, m=CLI_M,
                                       seed=ts, reps=1)
        pop = simulation.generate_mean_population(spec, 0)
        data = simulation.poisson_sample(pop, ts, 0)
        rng = np.random.default_rng([ts, 1])
        lines = ["location_id,N,y,pi,sigma2,x1,z1"]
        for b in data.locations:
            z = rng.standard_normal(b.n)
            sigma2 = float(spec.mean_noise_sd ** 2 * rng.uniform(0.5, 2.0))
            y = b.y + CLI_SLOPE * z
            lines += [f"{b.location_id},{b.N},{float(y[h])!r},{float(b.pi[h])!r},{sigma2!r},1.0,"
                      f"{float(z[h])!r}" for h in range(b.n)]
        csv_path = self.workdir / "cli_large.csv"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        anchor = float(selection.default_lambda_grid(
            wio.load_dataset_csv(csv_path, p=1, q=1), AdmmConfig(), num=1)[0])
        lo, hi, n = CLI_GRID
        out_path = self.workdir / "cli_large.json"
        argv = ["fit", str(csv_path), "--p", "1", "--q", "1",
                "--lambda-grid", f"{lo * anchor!r}:{hi * anchor!r}:{n}",
                "--refit-oracle", "--out", str(out_path)]
        return {"argv": argv, "out": out_path, "labels": pop.labels}

    def run(self, inputs):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(inputs["argv"])
        return code, printed.getvalue()

    def check(self, inputs, result, cap: Capture) -> Outcome:
        out = Outcome()
        check_fits(cap, out)
        code, printed = result
        if code != cli.EXIT_OK:
            out.problems.append(f"wccreg fit exited with {code}")
            return out
        if len(cap.datasets) != 1 or len(cap.selections) != 1:
            out.problems.append("expected one CSV load and one selection")
            return out
        chosen = _check_selection(cap.selections[0], inputs["labels"], "wcc", out)
        if chosen is None:
            return out
        lam, fit, part = chosen
        data = cap.datasets[0]
        text = inputs["out"].read_text(encoding="utf-8")
        out.report_bytes = len(text.encode("utf-8"))
        report = json.loads(text)
        out.problems += _check_report(report, data, lam, fit, part)
        if not printed.startswith(f"K_hat = {part.K_hat}\n"):
            out.problems.append("printed summary does not start with the selected K_hat")
        return out


def _check_report(report: dict, data, lam, fit, part) -> list[str]:
    """The JSON report round-trips to the selected fit, and the refit is a solution."""
    problems = []
    rt_fit = wio.fit_result_from_dict(report["fit"])
    rt_part = wio.partition_from_dict(report["partition"])
    if not all(np.array_equal(getattr(rt_fit, f), getattr(fit, f))
               for f in ("beta", "eta", "zeta", "v")):
        problems.append("report fit does not round-trip to the selected fit")
    if rt_part.K_hat != part.K_hat or not np.array_equal(rt_part.assignment, part.assignment) \
            or not np.array_equal(rt_part.alpha, part.alpha):
        problems.append("report partition does not round-trip to the selected partition")
    if report["selection"]["lambda_star"] != lam:
        problems.append("report lambda_star differs from the selected lambda")
    bic = checks.modified_bic(data, fit.beta, fit.eta, part.K_hat, count_q=True)
    if not checks.close(bic, report["selection"]["bic"]):
        problems.append(f"report BIC {report['selection']['bic']!r}, recomputed {bic!r}")
    eta = np.asarray(report["refit_oracle"]["eta"], dtype=float)
    alpha = np.asarray(report["refit_oracle"]["alpha"], dtype=float)
    grad = float(np.abs(checks.score(data, rt_part.assignment, eta, alpha)).max())
    scale = checks.score_scale(data, rt_part.assignment, rt_part.K_hat)
    if grad > REFIT_TOL * scale:
        problems.append(f"refit score {grad:.3e} is not ~0 (scale {scale:.3e})")
    return problems


WORKLOADS = {w.name: w for w in (McMean, CliLarge)}
