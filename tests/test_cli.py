import inspect
import json
from dataclasses import replace

import numpy as np
import pytest

from wccreg import cli, selection, simulation
from wccreg import io as wio
from wccreg.grouping import extract_partition
from wccreg.penalty import ScadSpec
from wccreg.types import AdmmConfig

from conftest import random_dataset, write_dataset_csv

HEADER = "location_id,N,y,pi,x1,z1"


def write_csv(path, rng, zero_z=False):
    ds, _ = random_dataset(rng, m=3, p=1, q=1, n_range=(6, 9))
    lines = [HEADER]
    for b in ds.locations:
        z = np.zeros(b.n) if zero_z else b.Z[:, 0]
        lines += [",".join([b.location_id, str(b.N)] +
                           [repr(float(v)) for v in (b.y[h], b.pi[h], b.X[h, 0], z[h])])
                  for h in range(b.n)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return lines


def run_fit(path, *extra):
    return cli.main(["fit", str(path), "--p", "1", "--q", "1", "--lambda", "0.1", *extra])


class TestFit:
    def test_single_lambda_fit_exits_ok(self, rng, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        write_csv(csv_path, rng)
        out = tmp_path / "r.json"
        assert run_fit(csv_path, "--refit-oracle", "--out", str(out)) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("K_hat = ")
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["selection"]["lambda_star"] == 0.1
        assert report["location_ids"] == ["loc0", "loc1", "loc2"]
        assert len(report["refit_oracle"]["eta"]) == 1

    @pytest.mark.parametrize("header, column", [
        ("location_id,N,y,x1,z1", "missing column 'pi'"),
        ("location_id,N,y,pi,x1,z1,w", "unexpected column 'w'"),
        ("location_id,N,y,pi,x1,z1,x1", "duplicate column 'x1'"),
    ])
    def test_bad_header_names_the_column(self, rng, tmp_path, capsys, header, column):
        csv_path = tmp_path / "d.csv"
        lines = write_csv(csv_path, rng)
        n_fields = len(header.split(","))
        body = [",".join((line.split(",") + ["1.0"])[:n_fields]) for line in lines[1:]]
        csv_path.write_text("\n".join([header] + body) + "\n", encoding="utf-8")
        assert run_fit(csv_path) == cli.EXIT_VALIDATION
        assert column in capsys.readouterr().err

    def test_unparseable_value_names_the_line(self, rng, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        lines = write_csv(csv_path, rng)
        fields = lines[3].split(",")
        fields[2] = "abc"
        lines[3] = ",".join(fields)
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_fit(csv_path) == cli.EXIT_VALIDATION
        assert "line 4" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_population_size_rejected(self, rng, tmp_path, capsys, value):
        csv_path = tmp_path / "d.csv"
        lines = write_csv(csv_path, rng)
        lines = [",".join([f[0], value] + f[2:]) if f[0] == "loc1" else line
                 for line, f in ((line, line.split(",")) for line in lines)]
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_fit(csv_path) == cli.EXIT_VALIDATION
        assert f"location 'loc1': N must be a finite integer, got {value}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0.1:inf:3", "nan:1:3", "0.1:nan:3", "-1:1:3", "-inf:1:3"])
    def test_nonfinite_lambda_grid_bound_rejected(self, rng, tmp_path, capsys, grid):
        # a value starting with '-' reaches the parser only in the --opt=value form
        csv_path = tmp_path / "d.csv"
        write_csv(csv_path, rng)
        code = cli.main(["fit", str(csv_path), "--p", "1", "--q", "1", f"--lambda-grid={grid}"])
        assert code == cli.EXIT_VALIDATION
        assert f"--lambda-grid needs finite 0 < lo < hi and count >= 2, got {grid!r}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("option, field", [("--zero-tol=-1", "zero_tol"), ("--zero-tol=nan", "zero_tol"),
                                               ("--init-ridge=nan", "init_ridge"), ("--vartheta=inf", "vartheta"),
                                               ("--tol=inf", "tol")])
    def test_bad_solver_option_exits_validation(self, rng, tmp_path, capsys, option, field):
        csv_path = tmp_path / "d.csv"
        write_csv(csv_path, rng)
        assert run_fit(csv_path, option) == cli.EXIT_VALIDATION
        assert f"error: {field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("select", [["--lambda", "0.1"], ["--lambda-grid", "0.1:1:3"]])
    @pytest.mark.parametrize("zero_tol", ["-1", "nan"])
    def test_bad_zero_tol_exits_before_the_csv_is_read(self, rng, tmp_path, capsys, monkeypatch,
                                                       select, zero_tol):
        csv_path = tmp_path / "d.csv"
        write_csv(csv_path, rng)
        calls = []

        def spy(name, owner, attr):
            real = getattr(owner, attr)
            monkeypatch.setattr(owner, attr, lambda *a, **k: calls.append(name) or real(*a, **k))

        spy("load", cli.wio, "load_dataset_csv")
        spy("fit", cli, "admm_fit")
        spy("select", cli.selection, "select_lambda")
        code = cli.main(["fit", str(csv_path), "--p", "1", "--q", "1", *select, f"--zero-tol={zero_tol}"])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: zero_tol must be nonnegative, got {float(zero_tol)}\n"
        assert calls == []

    def test_unparseable_lambda_grid_rejected(self, rng, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        write_csv(csv_path, rng)
        code = cli.main(["fit", str(csv_path), "--p", "1", "--q", "1", "--lambda-grid", "abc"])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == "error: --lambda-grid expects lo:hi:count, got 'abc'\n"

    @pytest.mark.parametrize("option, field", [("--lambda=inf", "lam"), ("--gamma=inf", "gamma")])
    def test_nonfinite_penalty_exits_validation_without_a_report(self, rng, tmp_path, capsys, option, field):
        # an infinite lambda would be written as Infinity, and an infinite
        # gamma would fuse every pair at every candidate of a sweep
        csv_path = tmp_path / "d.csv"
        write_csv(csv_path, rng)
        out = tmp_path / "r.json"
        code = cli.main(["fit", str(csv_path), "--p", "1", "--q", "1", option, "--out", str(out)])
        assert code == cli.EXIT_VALIDATION
        assert f"error: {field} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_lambda_and_lambda_grid_are_exclusive(self, rng, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        write_csv(csv_path, rng)
        with pytest.raises(SystemExit) as exc:
            run_fit(csv_path, "--lambda-grid", "0.1:1:3")
        assert exc.value.code == cli.EXIT_VALIDATION
        assert "not allowed with argument" in capsys.readouterr().err

    def test_selected_bic_is_scored_once_per_candidate(self, rng, tmp_path, monkeypatch):
        # the reported BIC is the selected candidate's path record, the same
        # number modified_bic gives for that fit, with no second scoring
        csv_path = tmp_path / "d.csv"
        write_csv(csv_path, rng)
        out = tmp_path / "r.json"
        scores = []
        real = selection.modified_bic
        monkeypatch.setattr(selection, "modified_bic",
                            lambda *a: scores.append(real(*a)) or scores[-1])
        assert cli.main(["fit", str(csv_path), "--p", "1", "--q", "1", "--lambda-grid", "0.01:1:4",
                         "--out", str(out)]) == cli.EXIT_OK
        report = json.loads(out.read_text(encoding="utf-8"))
        assert len(scores) == 4
        data = wio.load_dataset_csv(csv_path, p=1, q=1)
        lam, fit, part, _ = selection.select_lambda(data, np.geomspace(0.01, 1.0, 4))
        assert report["selection"] == {"lambda_star": lam, "bic": real(data, fit, part)}

    def test_singular_shared_design_exits_solver_error(self, rng, tmp_path, capsys):
        # an all-zero z1 column makes Z'WZ singular
        csv_path = tmp_path / "d.csv"
        write_csv(csv_path, rng, zero_z=True)
        assert run_fit(csv_path) == cli.EXIT_SOLVER
        assert "Z'WZ" in capsys.readouterr().err


class TestFileErrors:
    """A file that cannot be read or written exits 2 with its path, before any work."""

    @pytest.fixture
    def no_fit(self, monkeypatch):
        def fail(*a, **k):
            raise AssertionError("fitted before the file error")
        monkeypatch.setattr(cli, "admm_fit", fail)
        monkeypatch.setattr(cli.selection, "select_lambda", fail)

    def test_csv_that_is_not_utf8(self, rng, tmp_path, capsys, no_fit):
        csv_path = tmp_path / "d.csv"
        write_csv(csv_path, rng)
        csv_path.write_bytes(csv_path.read_bytes().replace(b"loc1", b"loc\xe91"))
        assert run_fit(csv_path) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(csv_path) in err and "not UTF-8 text (byte 0xe9" in err

    def test_directory_as_the_csv(self, tmp_path, capsys, no_fit):
        assert run_fit(tmp_path) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(tmp_path) in err and "Is a directory" in err

    @pytest.mark.parametrize("where", ["directory", "missing_parent"])
    def test_unwritable_out_before_the_fit(self, rng, tmp_path, capsys, no_fit, where):
        csv_path = tmp_path / "d.csv"
        write_csv(csv_path, rng)
        out = tmp_path if where == "directory" else tmp_path / "no" / "r.json"
        assert run_fit(csv_path, "--out", str(out)) == cli.EXIT_VALIDATION
        assert str(out) in capsys.readouterr().err
        assert not (tmp_path / "no").exists()

    def test_simulate_out_dir_that_is_a_file(self, tmp_path, capsys, monkeypatch):
        drawn = []
        real = simulation.generate_population
        monkeypatch.setattr(simulation, "generate_population",
                            lambda *a: drawn.append(1) or real(*a))
        target = tmp_path / "mc"
        target.write_text("not a directory", encoding="utf-8")
        for out_dir in (target, target / "sub"):
            code = cli.main(["simulate", "--scenario", "mean", "--n", "6", "--reps", "1",
                             "--out-dir", str(out_dir)])
            assert code == cli.EXIT_VALIDATION
            assert f"--out-dir {out_dir}: {target} is not a directory" in capsys.readouterr().err
        assert drawn == [] and target.read_text(encoding="utf-8") == "not a directory"


class TestReport:
    """The JSON report of a lambda sweep against a direct select_lambda on the same CSV."""

    @pytest.fixture
    def sweep(self, rng, tmp_path):
        csv_path = tmp_path / "d.csv"
        write_csv(csv_path, rng)
        texts = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert cli.main(["fit", str(csv_path), "--p", "1", "--q", "1",
                             "--lambda-grid", "0.01:1:4", "--out", str(out)]) == cli.EXIT_OK
            texts.append(out.read_bytes())
        data = wio.load_dataset_csv(csv_path, p=1, q=1)
        return texts, selection.select_lambda(data, np.geomspace(0.01, 1.0, 4))

    def test_report_is_byte_identical_and_round_trips_the_selected_fit(self, sweep):
        (first, second), (_, fit, _, _) = sweep
        assert first == second
        report = json.loads(first)
        assert report["schema_version"] == wio.SCHEMA_VERSION == 2
        back = wio.fit_result_from_dict(report["fit"])
        for name in ("beta", "eta", "zeta", "v"):
            assert np.array_equal(getattr(back, name), getattr(fit, name)), name

    def test_lambda_path_reports_each_dual_residual(self, sweep):
        (text, _), (_, _, _, path) = sweep
        entries = json.loads(text)["lambda_path"]
        assert [e["final_dual_residual"] for e in entries] == \
            [r.fit.final_dual_residual for r in path.records]


class TestUnweighted:
    """``wccreg fit --unweighted`` selects on the CSV's rows with every
    inclusion probability replaced by the overall sampling fraction
    min(1, n_total / sum N).  The Monte Carlo's CC fit uses expected_n / H
    instead: that is the open FOUND on CC's constant in CHANGES.md, a policy
    choice left to ROADMAP item 1, and this test pins the CLI's side of it."""

    @staticmethod
    def report(path, tmp_path, *extra):
        out = tmp_path / "r.json"
        assert cli.main(["fit", str(path), "--p", "1", "--out", str(out), *extra]) == cli.EXIT_OK
        return json.loads(out.read_text(encoding="utf-8"))

    def test_report_is_the_selection_on_the_sampling_fraction(self, tmp_path):
        # an informative mean-model sample (pi grows with y, so weighting
        # matters) whose unweighted selection keeps two groups
        spec = simulation.ScenarioSpec(kind=simulation.MEAN_MODEL, expected_n=10, m=6, seed=2)
        csv_path = tmp_path / "d.csv"
        write_dataset_csv(csv_path, simulation.poisson_sample(simulation.generate_population(spec, 0), 2, 0))
        data = wio.load_dataset_csv(csv_path, p=1)
        constant = min(1.0, data.n_total / float(data.N.sum()))
        assert 0 < constant < 1
        unweighted = replace(data, pi=np.full(data.n_total, constant))
        lam, fit, part, path = selection.select_lambda(
            unweighted, selection.default_lambda_grid(unweighted))
        report = self.report(csv_path, tmp_path, "--unweighted")
        assert report["config"]["unweighted"] is True
        assert report["selection"] == {"lambda_star": lam,
                                       "bic": next(r.bic for r in path.records if r.fit is fit)}
        assert report["partition"] == json.loads(wio.dumps(wio.partition_to_dict(part, data.ids)))
        assert report["partition"]["K_hat"] == 2
        assert report["fit"] == json.loads(wio.dumps(wio.fit_result_to_dict(fit)))
        weighted = self.report(csv_path, tmp_path)
        assert weighted["selection"]["bic"] != report["selection"]["bic"]
        assert not np.allclose(weighted["fit"]["beta"], report["fit"]["beta"])


def write_intercept_csv(path, rng, columns):
    """A p = len(columns) CSV: a float column is that constant, None is N(0, 1)."""
    lines = ["location_id,N,y,pi," + ",".join(f"x{j + 1}" for j in range(len(columns)))]
    for i, mu in enumerate((4.0, 4.0, 9.0, 9.0)):
        for _ in range(8):
            x = [rng.standard_normal() if c is None else c for c in columns]
            y = mu + 0.7 * x[-1] + 0.2 * rng.standard_normal()
            lines.append(",".join([f"loc{i}", "40", repr(float(y)), repr(float(rng.uniform(0.2, 1)))]
                                  + [repr(float(v)) for v in x]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestStandardize:
    @pytest.mark.parametrize("const", [1.0, 2.0])
    def test_original_scale_coefficients_keep_the_predictions(self, rng, tmp_path, const):
        # the standardized fit predicts y_sd * (x_std @ a) + y_mean; the
        # back-transformed coefficients must give the same value as x @ alpha
        csv_path = tmp_path / "d.csv"
        write_intercept_csv(csv_path, rng, [const, None])
        out = tmp_path / "r.json"
        assert cli.main(["fit", str(csv_path), "--p", "2", "--lambda", "0.05", "--standardize",
                         "--out", str(out)]) == cli.EXIT_OK
        report = json.loads(out.read_text(encoding="utf-8"))
        info = report["standardization"]
        assert info["constant_columns"] == [True, False] and info["constant_value"] == const
        alpha_std = np.array(report["partition"]["alpha"])
        alpha_orig = np.array(report["partition"]["alpha_original_scale"])
        x = np.column_stack([np.full(50, const), 3.0 * rng.standard_normal(50)])
        x_std = (x - np.array(info["x_mean"])) / np.array(info["x_sd"])
        for a_std, a_orig in zip(alpha_std, alpha_orig):
            assert x @ a_orig == pytest.approx(info["y_sd"] * (x_std @ a_std) + info["y_mean"],
                                               rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("columns, found", [([None, None], 0), ([1.0, 2.0, None], 2),
                                                ([0.0, None], 1)])
    def test_needs_exactly_one_nonzero_constant_column(self, rng, tmp_path, capsys, columns, found):
        csv_path = tmp_path / "d.csv"
        write_intercept_csv(csv_path, rng, columns)
        code = cli.main(["fit", str(csv_path), "--p", str(len(columns)), "--lambda", "0.05",
                         "--standardize", "--out", str(tmp_path / "r.json")])
        assert code == cli.EXIT_VALIDATION
        assert f"found {found} constant columns" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


class TestDefaults:
    def test_parser_defaults_are_the_library_defaults(self):
        args = cli.build_parser().parse_args(["fit", "d.csv", "--p", "1"])
        cfg = AdmmConfig()
        assert args.gamma == ScadSpec(lam=1.0).gamma
        assert (args.vartheta, args.tol, args.max_iter, args.init_ridge) == \
            (cfg.vartheta, cfg.tol, cfg.max_iter, cfg.init_ridge)
        for fn in (extract_partition, selection.select_lambda):
            assert args.zero_tol == inspect.signature(fn).parameters["zero_tol"].default

    def test_version_prints_the_defaults(self, capsys):
        assert cli.main(["version"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == ("defaults: gamma=3, vartheta=1, tol=1e-06, max_iter=2000, "
                            "zero_tol=1e-06, init_ridge=0")

    def test_version_output_is_pinned(self, capsys):
        # the rule texts live beside their code (selection, simulation); the
        # printed lines stay as they were
        assert cli.main(["version"]) == cli.EXIT_OK
        assert capsys.readouterr().out == (
            "wccreg 0.1.0\n"
            "defaults: gamma=3, vartheta=1, tol=1e-06, max_iter=2000, zero_tol=1e-06, "
            "init_ridge=0\n"
            "BIC: C_m = log(m*p+q), complexity C_m*(log m/m)*(K_hat*p + q); "
            "mean_model variant drops q\n"
            "lambda grid: 30 log-spaced values in [0.01*anchor, anchor], anchor = largest "
            "pairwise distance between unpenalized per-location coefficient estimates\n"
            "clamping rule: design scores: nonfinite/nonpositive scores are replaced by the "
            "smallest positive finite score in the location (1e-12 if none), normalized to "
            "sum to the expected sample size, then clamped into [1e-6, 1]\n")


class TestSimulate:
    @pytest.mark.parametrize("n", [0, 121])
    def test_sample_size_outside_one_to_H_rejected(self, tmp_path, capsys, n):
        code = cli.main(["simulate", "--scenario", "mean", "--n", str(n), "--reps", "1",
                         "--out-dir", str(tmp_path / "mc")])
        assert code == cli.EXIT_VALIDATION
        assert f"n={n}" in capsys.readouterr().err
        assert not (tmp_path / "mc").exists()

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_fewer_than_one_job_rejected(self, tmp_path, capsys, jobs):
        code = cli.main(["simulate", "--scenario", "mean", "--n", "6", "--reps", "1",
                         "--jobs", str(jobs), "--out-dir", str(tmp_path / "mc")])
        assert code == cli.EXIT_VALIDATION
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "mc").exists()

    def test_repeated_method_rejected(self, tmp_path, capsys):
        # methods are lowercased, so wcc,WCC names WCC twice
        code = cli.main(["simulate", "--scenario", "mean", "--n", "6", "--reps", "2",
                         "--methods", "wcc,WCC", "--out-dir", str(tmp_path / "mc")])
        assert code == cli.EXIT_VALIDATION
        assert "each method may be given once, got wcc,wcc" in capsys.readouterr().err
        assert not (tmp_path / "mc").exists()

    def test_unknown_scenario_rejected(self, tmp_path, capsys):
        code = cli.main(["simulate", "--scenario", "bogus", "--n", "6", "--reps", "1",
                         "--out-dir", str(tmp_path / "mc")])
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == "error: unknown scenario 'bogus' (use mean|regression)\n"
        assert not (tmp_path / "mc").exists()

    @pytest.mark.parametrize("reps", [2, 1])
    def test_study_writes_its_records_and_summary(self, tmp_path, capsys, reps):
        # the files hold what the library writes for the same study, and
        # stdout is its table, the single-replicate note and the paths
        out_dir = tmp_path / "mc" / "sub"
        code = cli.main(["simulate", "--scenario", "mean", "--n", "6", "--reps", str(reps),
                         "--seed", "3", "--out-dir", str(out_dir)])
        assert code == cli.EXIT_OK
        summary = simulation.run_monte_carlo(simulation.ScenarioSpec(
            kind=simulation.MEAN_MODEL, expected_n=6, seed=3, reps=reps))
        simulation.write_rep_csv(summary, tmp_path / "reps.csv")
        assert (out_dir / "reps.csv").read_bytes() == (tmp_path / "reps.csv").read_bytes()
        assert (out_dir / "summary.json").read_text(encoding="utf-8") == wio.dumps(summary.to_dict())
        note = ["note: single replicate, standard deviations reported as n/a"] if reps == 1 else []
        assert capsys.readouterr().out.splitlines() == \
            simulation.format_summary_table(summary).splitlines() + note + \
            [f"wrote {out_dir / 'reps.csv'} and {out_dir / 'summary.json'}"]

    def test_negative_seed_rejected(self, tmp_path, capsys):
        code = cli.main(["simulate", "--scenario", "mean", "--n", "6", "--reps", "1",
                         "--seed", "-1", "--out-dir", str(tmp_path / "mc")])
        assert code == cli.EXIT_VALIDATION
        assert "seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "mc").exists()
