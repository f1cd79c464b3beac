import numpy as np
import pytest

import wccreg as w
from wccreg import io as wio

from conftest import random_dataset, write_dataset_csv


class TestLoadDatasetCsv:
    @pytest.mark.parametrize("q", [0, 2])
    @pytest.mark.parametrize("sigma2", [False, True])
    def test_interleaved_rows_round_trip(self, rng, tmp_path, q, sigma2):
        ds, _ = random_dataset(rng, m=4, p=2, q=q, sigma2=sigma2)
        path = tmp_path / "d.csv"
        write_dataset_csv(path, ds, rng)
        assert "\n\n" in path.read_text(encoding="utf-8")
        back = wio.load_dataset_csv(path, p=2, q=q)
        assert back.location_ids() == ds.location_ids()
        for got, want in zip(back.locations, ds.locations):
            assert got.N == want.N
            assert got.Z.shape == (want.n, q)
            for name in ("y", "X", "Z", "pi"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape and np.array_equal(a, b), name
            if sigma2:
                assert got.sigma2.shape == want.sigma2.shape
                assert np.array_equal(got.sigma2, want.sigma2)
            else:
                assert got.sigma2 is None

    def test_inconsistent_population_size_names_the_location(self, rng, tmp_path):
        ds, _ = random_dataset(rng, m=3, p=1)
        path = tmp_path / "d.csv"
        write_dataset_csv(path, ds)
        lines = path.read_text(encoding="utf-8").splitlines()
        rows_of_loc1 = [k for k, line in enumerate(lines) if line.startswith("loc1,")]
        N = ds.locations[1].N
        fields = lines[rows_of_loc1[-1]].split(",")
        lines[rows_of_loc1[-1]] = ",".join([fields[0], str(N + 1)] + fields[2:])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(w.ValidationError) as err:
            wio.load_dataset_csv(path, p=1)
        assert str(err.value) == f"location 'loc1': inconsistent N values [{N}.0, {N + 1}.0]"
