import json

import numpy as np
import pytest

from wccreg import cli, selection
from wccreg import io as wio
from wccreg.penalty import ScadSpec
from wccreg.types import AdmmConfig

from conftest import random_dataset

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
        lam, fit, part, _ = selection.select_lambda(data, np.geomspace(0.01, 1.0, 4),
                                                    ScadSpec(lam=1.0), AdmmConfig())
        assert report["selection"] == {"lambda_star": lam, "bic": real(data, fit, part)}

    def test_singular_shared_design_exits_solver_error(self, rng, tmp_path, capsys):
        # an all-zero z1 column makes Z'WZ singular
        csv_path = tmp_path / "d.csv"
        write_csv(csv_path, rng, zero_z=True)
        assert run_fit(csv_path) == cli.EXIT_SOLVER
        assert "Z'WZ" in capsys.readouterr().err


class TestSimulate:
    @pytest.mark.parametrize("n", [0, 121])
    def test_sample_size_outside_one_to_H_rejected(self, tmp_path, capsys, n):
        code = cli.main(["simulate", "--scenario", "mean", "--n", str(n), "--reps", "1",
                         "--out-dir", str(tmp_path / "mc")])
        assert code == cli.EXIT_VALIDATION
        assert f"n={n}" in capsys.readouterr().err
        assert not (tmp_path / "mc").exists()
