"""The finite-population generator, Poisson sampling and the Monte Carlo driver.

Every random draw flows from a single 64-bit seed through keyed substreams:
``(seed, rep, purpose, location, ...)`` determines each generator, so any
replicate can be reproduced in isolation and results do not depend on
scheduling or worker count.
"""

from __future__ import annotations

import csv
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import ClassVar, Optional, Sequence

import numpy as np

import wccreg.selection as selection
from .metrics import adjusted_rand_index, rmse_beta
from .selection import MEAN_MODEL, REGRESSION
from .types import AdmmConfig, Dataset, SingularSystemError, ValidationError

logger = logging.getLogger(__name__)

PI_FLOOR = 1e-6
SCORE_FALLBACK = 1e-12
CLAMP_RULE = ("design scores: nonfinite/nonpositive scores are replaced by the smallest "
              "positive finite score in the location (1e-12 if none), normalized to sum "
              "to the expected sample size, then clamped into [1e-6, 1]")
MAX_RESAMPLE_ATTEMPTS = 100

# substream purposes
_POPULATION = 0
_SAMPLING = 1


class SimulationError(RuntimeError):
    """A replicate could not produce a usable sample."""


@dataclass(frozen=True)
class ScenarioSpec:
    """One Monte Carlo study of the fixed informative Poisson design.

    Settable are the scenario ``kind``, the per-location expected sample size
    ``expected_n``, the seed, the replicate count and the number of locations
    ``m``.  The design is the class constants: ``H`` units per location, three
    groups of probability 1/3 with truths ``mean_values`` (noise sd
    ``mean_noise_sd``) or ``beta_values`` (noise sd ``sigma_scale *
    exp(sigma_rate * x'beta)``); :func:`generate_population` gives the scores.
    """

    kind: str
    expected_n: int
    seed: int = 0
    reps: int = 100
    m: int = 49
    H: ClassVar[int] = 120
    group_probs: ClassVar[tuple] = (1 / 3, 1 / 3, 1 / 3)
    mean_values: ClassVar[tuple] = (1.2, 1.5, 1.8)
    mean_noise_sd: ClassVar[float] = 0.25
    beta_values: ClassVar[tuple] = ((1.0, 1.0), (1.5, 1.5), (2.0, 2.0))
    sigma_scale: ClassVar[float] = 0.1
    sigma_rate: ClassVar[float] = 0.8

    def __post_init__(self):
        if self.kind not in (MEAN_MODEL, REGRESSION):
            raise ValidationError(f"unknown scenario kind {self.kind!r}")
        if self.expected_n < 1:
            raise ValidationError(f"expected sample size n={self.expected_n} must be at least 1")
        if self.H < self.expected_n:
            raise ValidationError(f"expected sample size n={self.expected_n} exceeds the "
                                  f"population size H={self.H}")
        if self.reps < 1:
            raise ValidationError("reps must be at least 1")
        if self.m < 1:
            raise ValidationError(f"m must be at least 1, got {self.m}")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")

    @property
    def p(self) -> int:
        return 1 if self.kind == MEAN_MODEL else len(self.beta_values[0])


@dataclass(frozen=True)
class Population:
    """One realized finite population: truths plus per-unit design quantities."""

    labels: np.ndarray        # (m,) true group of each location
    truth: np.ndarray         # (m, p) true per-location coefficients
    y: np.ndarray             # (m, H)
    X: np.ndarray             # (m, H, p)
    pi: np.ndarray            # (m, H) clamped inclusion probabilities
    sigma: Optional[np.ndarray] = None   # (m, H) noise scale (regression)

    @property
    def m(self) -> int:
        return self.labels.size

    @property
    def H(self) -> int:
        return self.y.shape[1]


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key)))


def informative_probabilities(scores: np.ndarray, expected_n: float) -> np.ndarray:
    """Turn raw (possibly invalid) design scores into inclusion probabilities.

    Nonfinite or nonpositive scores are replaced by the smallest positive
    finite score in the location (1e-12 if there is none), the result is
    normalized to sum to ``expected_n``, and finally each probability is
    clamped into [1e-6, 1], so the result need not sum to ``expected_n``.
    """
    s = np.array(scores, dtype=float, copy=True)
    bad = ~np.isfinite(s) | (s <= 0)
    if bad.all():
        s[:] = SCORE_FALLBACK
    elif bad.any():
        s[bad] = s[~bad].min()
    return np.clip(expected_n * s / s.sum(), PI_FLOOR, 1.0)


def generate_population(spec: ScenarioSpec, rep: int = 0) -> Population:
    """The population of replicate ``rep``: each location draws its group, rows
    and noise from its own substream.  Group scores, then :data:`CLAMP_RULE`:
    mean model exp(y) / constant / log(y); regression eps^3 / constant /
    exp(-eps^{-1/2}) (negative cubes, roots of nonpositive noise are invalid).
    """
    m, H, p = spec.m, spec.H, spec.p
    regression = spec.kind == REGRESSION
    labels = np.empty(m, dtype=int)
    truth = np.empty((m, p))
    y = np.empty((m, H))
    X = np.ones((m, H, p))
    sigma = np.empty((m, H)) if regression else None
    pis = np.empty((m, H))
    for i in range(m):
        rng = _rng(spec.seed, rep, _POPULATION, i)
        labels[i] = k = int(rng.choice(len(spec.group_probs), p=spec.group_probs))
        truth[i] = spec.beta_values[k] if regression else spec.mean_values[k]
        if regression:
            X[i, :, 1] = rng.standard_normal(H)
            lin = X[i] @ truth[i]
            sigma[i] = spec.sigma_scale * np.exp(spec.sigma_rate * lin)
            eps = sigma[i] * rng.standard_normal(H)
            y[i] = lin + eps
        else:
            y[i] = truth[i, 0] + spec.mean_noise_sd * rng.standard_normal(H)
        if k == 1:
            scores = np.ones(H)
        elif k == 0:
            scores = eps ** 3 if regression else np.exp(y[i])
        elif regression:
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                scores = np.exp(-eps ** (-0.5))
        else:
            with np.errstate(invalid="ignore", divide="ignore"):
                scores = np.log(y[i])
        pis[i] = informative_probabilities(scores, spec.expected_n)
    return Population(labels=labels, truth=truth, y=y, X=X, pi=pis, sigma=sigma)


def generate_mean_population(spec: ScenarioSpec, rep: int = 0) -> Population:
    """:func:`generate_population` for a mean-model spec only; the benchmark's
    workloads call it by this name."""
    if spec.kind != MEAN_MODEL:
        raise ValidationError("spec.kind must be 'mean_model'")
    return generate_population(spec, rep)


def poisson_sample(pop: Population, seed: int, rep: int = 0) -> Dataset:
    """Independent Bernoulli(pi) inclusion per unit.

    A location that draws no units is redrawn on a fresh substream, up to
    100 attempts; the estimators are undefined for empty locations.  The
    sampled units are stacked location after location, in unit order.
    """
    keep = np.zeros((pop.m, pop.H), dtype=bool)
    for i in range(pop.m):
        for attempt in range(MAX_RESAMPLE_ATTEMPTS):
            rng = _rng(seed, rep, _SAMPLING, i, attempt)
            keep[i] = rng.random(pop.H) < pop.pi[i]
            if keep[i].any():
                break
        else:
            raise SimulationError(f"location {i} produced no sampled units after "
                                  f"{MAX_RESAMPLE_ATTEMPTS} attempts")
    n = int(keep.sum())
    return Dataset([f"loc{i + 1:03d}" for i in range(pop.m)],
                   np.concatenate(([0], np.cumsum(keep.sum(axis=1)))),
                   N=np.full(pop.m, pop.H), y=pop.y[keep], X=pop.X[keep], Z=np.zeros((n, 0)),
                   pi=pop.pi[keep])


def unweighted_copy(data: Dataset, constant_pi: float) -> Dataset:
    """Same rows with every inclusion probability replaced by one constant."""
    return replace(data, pi=np.full(data.n_total, constant_pi))


@dataclass(frozen=True)
class RepRecord:
    rep: int
    method: str
    K_hat: int
    K_true: int
    ari: float
    rmse: float
    lambda_star: float
    converged: bool
    failed: bool = False


@dataclass(frozen=True)
class McSummary:
    """Per-method aggregates of a Monte Carlo study."""

    scenario: ScenarioSpec
    methods: tuple
    records: tuple                  # RepRecord, ordered by (rep, method)

    def summary(self, method: str) -> dict:
        mine = [r for r in self.records if r.method == method]
        recs = [r for r in mine if not r.failed]
        failures = len(mine) - len(recs)
        if not recs:
            return {"n_reps": 0, "failures": failures}
        k = np.array([r.K_hat for r in recs], dtype=float)
        ari = np.array([r.ari for r in recs])
        rmse = np.array([r.rmse for r in recs])
        correct = np.array([r.K_hat == r.K_true for r in recs])
        one = len(recs) == 1
        return {
            "n_reps": len(recs),
            "k_mean": float(k.mean()),
            "k_sd": None if one else float(k.std(ddof=1)),
            "prop_k_correct": float(correct.mean()),
            "ari_mean": float(ari.mean()),
            "ari_sd": None if one else float(ari.std(ddof=1)),
            "rmse_mean": float(rmse.mean()),
            "rmse_sd": None if one else float(rmse.std(ddof=1)),
            "rmse_median": float(np.median(rmse)),
            "rmse_q25": float(np.quantile(rmse, 0.25)),
            "rmse_q75": float(np.quantile(rmse, 0.75)),
            "failures": failures,
        }

    def to_dict(self) -> dict:
        return {
            "scenario": {name: getattr(self.scenario, name)
                         for name in ("kind", "expected_n", "m", "H", "reps", "seed")},
            "methods": {meth: self.summary(meth) for meth in self.methods},
        }


def _run_rep(args) -> list:
    """Run one replicate for every requested method (worker-safe)."""
    spec, solver_cfg, methods, rep = args
    variant = selection.BicVariant(kind=spec.kind)
    nan = float("nan")

    def failure(meth, K_true):
        return RepRecord(rep=rep, method=meth, K_hat=0, K_true=K_true, ari=nan, rmse=nan,
                         lambda_star=nan, converged=False, failed=True)

    try:
        pop = generate_population(spec, rep)
        data_wcc = poisson_sample(pop, spec.seed, rep)
    except SimulationError as exc:
        logger.warning("rep %d: sampling failed (%s)", rep, exc)
        return [failure(meth, 0) for meth in methods]

    K_true = int(np.unique(pop.labels).size)
    out = []
    for meth in methods:
        data = data_wcc if meth == "wcc" else unweighted_copy(data_wcc, spec.expected_n / spec.H)
        try:
            lam_grid = selection.default_lambda_grid(data, solver_cfg)
            lam, fit, part, _ = selection.select_lambda(
                data, lam_grid, cfg=solver_cfg, variant=variant)
            out.append(RepRecord(
                rep=rep, method=meth, K_hat=part.K_hat, K_true=K_true,
                ari=adjusted_rand_index(part.assignment, pop.labels),
                rmse=rmse_beta(part.alpha[part.assignment], pop.truth),
                lambda_star=lam, converged=fit.converged))
        except SingularSystemError as exc:
            logger.warning("rep %d method %s: fatal fit error (%s)", rep, meth, exc)
            out.append(failure(meth, K_true))
    return out


def run_monte_carlo(spec: ScenarioSpec, solver_cfg: AdmmConfig = AdmmConfig(),
                    methods: Sequence[str] = ("wcc", "cc"), jobs: int = 1) -> McSummary:
    """Full study: generate, sample, select per method, aggregate.

    ``methods`` are distinct names from ``wcc`` and ``cc``, checked before any
    replicate runs.  Each replicate and method selects over the data-driven
    default grid (:func:`selection.default_lambda_grid`) with the default
    penalty shape.
    ``jobs > 1`` distributes replicates over at most ``jobs`` processes, and
    never more than there are replicates or CPUs; results are identical to the
    sequential run because all streams are keyed by replicate.
    """
    if jobs < 1:
        raise ValidationError(f"--jobs must be at least 1, got {jobs}")
    methods = tuple(methods)
    for meth in methods:
        if meth not in ("wcc", "cc"):
            raise ValidationError(f"unknown method {meth!r} (use wcc,cc)")
    if len(set(methods)) < len(methods):
        raise ValidationError(f"each method may be given once, got {','.join(methods)}")
    tasks = [(spec, solver_cfg, methods, rep) for rep in range(spec.reps)]
    workers = min(jobs, spec.reps, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_rep = list(pool.map(_run_rep, tasks, chunksize=1))
    else:
        per_rep = [_run_rep(t) for t in tasks]

    records = tuple(rec for group in per_rep for rec in group)
    return McSummary(scenario=spec, methods=methods, records=records)


def write_rep_csv(summary: McSummary, path) -> None:
    """Per-replicate rows in a stable column order (plot-ready)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rep", "method", "K_hat", "ARI", "RMSE", "lambda_star", "converged"])
        for r in summary.records:
            writer.writerow([
                r.rep, r.method.upper(), r.K_hat,
                repr(float(r.ari)), repr(float(r.rmse)), repr(float(r.lambda_star)),
                int(r.converged),
            ])


def format_summary_table(summary: McSummary) -> str:
    """Human-readable per-method block mirroring the study tables."""
    lines = [f"scenario={summary.scenario.kind} expected_n={summary.scenario.expected_n} "
             f"reps={summary.scenario.reps} seed={summary.scenario.seed}"]
    header = f"{'method':>8} {'K mean(sd)':>16} {'per':>6} {'ARI mean(sd)':>16} {'RMSE median':>12} {'fail':>5}"
    lines.append(header)
    for meth in summary.methods:
        s = summary.summary(meth)
        if s["n_reps"] == 0:
            lines.append(f"{meth.upper():>8} {'-':>16} {'-':>6} {'-':>16} {'-':>12} {s['failures']:>5}")
            continue
        ksd = "n/a" if s["k_sd"] is None else f"{s['k_sd']:.3f}"
        asd = "n/a" if s["ari_sd"] is None else f"{s['ari_sd']:.3f}"
        lines.append(
            f"{meth.upper():>8} {s['k_mean']:.2f}({ksd}){'':>2} {s['prop_k_correct']:>6.2f} "
            f"{s['ari_mean']:.2f}({asd}){'':>2} {s['rmse_median']:>12.4f} {s['failures']:>5}"
        )
    return "\n".join(lines)
