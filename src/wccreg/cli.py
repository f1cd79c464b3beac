"""Batch entry points: fit a CSV dataset, run the simulation studies.

Exit codes: 0 success, 2 validation/usage error, 3 fatal solver error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import io as wio
from . import selection, simulation
from .admm import fit as admm_fit
from .grouping import ZERO_TOL, extract_partition, refit_oracle
from .penalty import ScadSpec
from .types import AdmmConfig, Dataset, SingularSystemError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3

CLAMP_RULE = ("design scores: nonfinite/nonpositive scores are replaced by the smallest "
              "positive finite score in the location (1e-12 if none), normalized to sum "
              "to the expected sample size, then clamped into [1e-6, 1]")


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise ValidationError(f"--lambda-grid expects lo:hi:count, got {text!r}") from None
    if not 0 < lo < hi < np.inf or n < 2:  # also rejects a nan bound
        raise ValidationError(f"--lambda-grid needs finite 0 < lo < hi and count >= 2, "
                              f"got {text!r}")
    return np.geomspace(lo, hi, n)


def _unweighted_copy(data: Dataset) -> Dataset:
    """Replace every inclusion probability by the overall sampling fraction."""
    return simulation.unweighted_copy(data, min(1.0, data.n_total / int(data.N.sum())))


def _standardize(data: Dataset):
    """Center/scale y and the non-constant X columns, pooled over all rows.

    The one constant, nonzero X column is kept and carries the intercept.
    Returns the transformed dataset plus the scales needed to report
    coefficients on the original scale.
    """
    ys, Xs = data.y, data.X
    y_mean, y_sd = float(ys.mean()), float(ys.std())
    if y_sd == 0:
        y_sd = 1.0
    constant = np.ptp(Xs, axis=0) == 0
    if constant.sum() != 1 or not Xs[0, constant].all():
        raise ValidationError(f"--standardize needs exactly one constant, nonzero X column "
                              f"(the intercept); found {int(constant.sum())} constant columns")
    x_mean = np.where(constant, 0.0, Xs.mean(axis=0))
    x_sd = np.where(constant, 1.0, Xs.std(axis=0))
    info = {"y_mean": y_mean, "y_sd": y_sd, "x_mean": x_mean.tolist(),
            "x_sd": x_sd.tolist(), "constant_columns": constant.tolist(),
            "constant_value": float(Xs[0, constant][0])}
    return Dataset.from_arrays(data.ids, data.offsets, data.N, (ys - y_mean) / y_sd,
                               (Xs - x_mean) / x_sd, data.Z, data.pi, data.sigma2), info


def _alpha_original_scale(alpha: np.ndarray, info: dict) -> list:
    """Back-transform group coefficients after --standardize, keeping predictions."""
    y_sd, y_mean = info["y_sd"], info["y_mean"]
    x_mean = np.asarray(info["x_mean"])
    x_sd = np.asarray(info["x_sd"])
    j0 = info["constant_columns"].index(True)
    out = []
    for row in np.atleast_2d(alpha):
        raw = y_sd * row / x_sd
        shift = y_mean - float(np.sum(raw * x_mean))
        raw[j0] += shift / info["constant_value"]
        out.append(raw.tolist())
    return out


def _check_out_file(path: Path) -> None:
    """Fail before any work when the report could not be written to ``path``."""
    if path.is_dir():
        raise ValidationError(f"--out {path} is a directory")
    if not path.parent.is_dir():
        raise ValidationError(f"--out {path}: no directory {path.parent}")


def cmd_fit(args) -> int:
    if args.out:
        _check_out_file(Path(args.out))
    data = wio.load_dataset_csv(args.csv, p=args.p, q=args.q)
    if args.unweighted:
        data = _unweighted_copy(data)
    std_info = None
    if args.standardize:
        data, std_info = _standardize(data)

    cfg = AdmmConfig(vartheta=args.vartheta, tol=args.tol, max_iter=args.max_iter,
                     init_ridge=args.init_ridge)
    variant = selection.BicVariant(kind=args.bic_variant)
    report: dict = {
        "schema_version": wio.SCHEMA_VERSION,
        "command": "fit",
        "config": {
            "p": args.p, "q": args.q, "gamma": args.gamma, "vartheta": args.vartheta,
            "tol": args.tol, "max_iter": args.max_iter, "zero_tol": args.zero_tol,
            "init_ridge": args.init_ridge, "bic_variant": args.bic_variant,
            "unweighted": bool(args.unweighted), "standardize": bool(args.standardize),
        },
        "location_ids": data.location_ids(),
    }

    if args.lam is not None:
        spec = ScadSpec(lam=args.lam, gamma=args.gamma)
        fit = admm_fit(data, spec, cfg)
        part = extract_partition(fit, args.zero_tol)
        bic = selection.modified_bic(data, fit, part, variant)
        lam_star = args.lam
        path = None
    else:
        if args.lambda_grid is not None:
            grid = _parse_grid(args.lambda_grid)
        else:
            grid = selection.default_lambda_grid(data, cfg)
        lam_star, fit, part, path = selection.select_lambda(
            data, grid, args.gamma, cfg, variant, args.zero_tol)
        bic = next(r.bic for r in path.records if r.fit is fit)

    report["selection"] = {"lambda_star": float(lam_star), "bic": float(bic)}
    report["fit"] = wio.fit_result_to_dict(fit)
    report["partition"] = wio.partition_to_dict(part, data.location_ids())
    if std_info is not None:
        report["standardization"] = std_info
        report["partition"]["alpha_original_scale"] = _alpha_original_scale(part.alpha, std_info)
    if path is not None:
        report["lambda_path"] = [
            {"lambda": r.lam, "bic": r.bic, "K_hat": int(r.partition.K_hat),
             "converged": bool(r.converged), "iterations": int(r.fit.iterations),
             "final_residual": float(r.fit.final_residual),
             "final_dual_residual": float(r.fit.final_dual_residual)}
            for r in path.records
        ]
    if args.refit_oracle:
        eta_or, alpha_or = refit_oracle(data, part)
        report["refit_oracle"] = {"eta": eta_or.tolist(), "alpha": alpha_or.tolist()}

    if args.out:
        Path(args.out).write_text(wio.dumps(report), encoding="utf-8")

    print(f"K_hat = {part.K_hat}")
    for k in range(part.K_hat):
        coef = ", ".join(repr(float(c)) for c in part.alpha[k])
        print(f"group {k + 1} (size {int(part.group_sizes[k])}): alpha = [{coef}]")
    print(f"lambda_star = {lam_star!r}")
    print(f"bic = {bic!r}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    kind = {"mean": simulation.MEAN_MODEL, "regression": simulation.REGRESSION}.get(args.scenario)
    if kind is None:
        raise ValidationError(f"unknown scenario {args.scenario!r} (use mean|regression)")
    methods = tuple(s.strip().lower() for s in args.methods.split(","))

    spec = simulation.ScenarioSpec(kind=kind, expected_n=args.n, seed=args.seed, reps=args.reps)
    out_dir = Path(args.out_dir)
    # the nearest existing part of the path must be a directory, before any replicate runs
    existing = next(d for d in (out_dir, *out_dir.parents) if d.exists())
    if not existing.is_dir():
        raise ValidationError(f"--out-dir {out_dir}: {existing} is not a directory")
    summary = simulation.run_monte_carlo(spec, AdmmConfig(), methods=methods, jobs=args.jobs)

    out_dir.mkdir(parents=True, exist_ok=True)
    simulation.write_rep_csv(summary, out_dir / "reps.csv")
    (out_dir / "summary.json").write_text(wio.dumps(summary.to_dict()), encoding="utf-8")

    print(simulation.format_summary_table(summary))
    if args.reps == 1:
        print("note: single replicate, standard deviations reported as n/a")
    print(f"wrote {out_dir / 'reps.csv'} and {out_dir / 'summary.json'}")
    return EXIT_OK


def cmd_version(_args) -> int:
    print(f"wccreg {__version__}")
    print(f"defaults: gamma={ScadSpec.gamma:g}, vartheta={AdmmConfig.vartheta:g}, "
          f"tol={AdmmConfig.tol:g}, max_iter={AdmmConfig.max_iter}, zero_tol={ZERO_TOL:g}, "
          f"init_ridge={AdmmConfig.init_ridge:g}")
    print("BIC: C_m = log(m*p+q), complexity C_m*(log m/m)*(K_hat*p + q); "
          "mean_model variant drops q")
    print(f"lambda grid: {selection.GRID_RULE}")
    print(f"clamping rule: {CLAMP_RULE}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wccreg",
                                 description="Survey-weighted clustered-coefficients regression")
    sub = ap.add_subparsers(dest="command", required=True)

    fp = sub.add_parser("fit", help="fit a CSV dataset, optionally selecting lambda by BIC")
    fp.add_argument("csv", help="input CSV (location_id,N,y,pi,[sigma2,]x1..xp,[z1..zq])")
    fp.add_argument("--p", type=int, required=True, help="number of location-specific covariates")
    fp.add_argument("--q", type=int, default=0, help="number of shared covariates")
    lam = fp.add_mutually_exclusive_group()
    lam.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="single fusion strength (skips selection)")
    lam.add_argument("--lambda-grid", default=None, metavar="LO:HI:COUNT",
                     help="log-spaced selection grid; write --lambda-grid=LO:HI:COUNT "
                          "when LO starts with '-'")
    fp.add_argument("--gamma", type=float, default=ScadSpec.gamma)
    fp.add_argument("--vartheta", type=float, default=AdmmConfig.vartheta)
    fp.add_argument("--tol", type=float, default=AdmmConfig.tol)
    fp.add_argument("--max-iter", type=int, default=AdmmConfig.max_iter)
    fp.add_argument("--zero-tol", type=float, default=ZERO_TOL)
    fp.add_argument("--init-ridge", type=float, default=AdmmConfig.init_ridge)
    fp.add_argument("--bic-variant", choices=[selection.MEAN_MODEL, selection.REGRESSION],
                    default=selection.REGRESSION)
    fp.add_argument("--unweighted", action="store_true",
                    help="replace inclusion probabilities by the overall sampling fraction")
    fp.add_argument("--refit-oracle", action="store_true",
                    help="also refit with coefficients tied inside the extracted groups")
    fp.add_argument("--standardize", action="store_true",
                    help="center/scale y and x; report coefficients on both scales")
    fp.add_argument("--out", default=None, help="write the JSON report here")
    fp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("simulate", help="run a Monte Carlo study")
    sp.add_argument("--scenario", required=True, help="mean | regression")
    sp.add_argument("--n", type=int, required=True, help="expected per-location sample size, 1 <= n <= H (H = 120)")
    sp.add_argument("--reps", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--methods", default="wcc,cc")
    sp.add_argument("--out-dir", default="mc_out")
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(func=cmd_simulate)

    vp = sub.add_parser("version", help="print version and the defaults in force")
    vp.set_defaults(func=cmd_version)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        # a file that cannot be read or written names itself; other OS errors propagate
        if exc.filename is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SingularSystemError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
