import json

import numpy as np
import pytest

import wccreg as w
from wccreg import cli
from wccreg import io as wio

import oracles
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

    @pytest.mark.parametrize("variant", ["plain", "quoted"])
    def test_a_byte_order_mark_is_read_past(self, rng, tmp_path, monkeypatch, variant):
        # a UTF-8 byte-order mark (Excel's "CSV UTF-8") reads like no mark, in
        # the array pass (plain) and in the row parser (a quoted field)
        ds, _ = random_dataset(rng, m=4, p=2, q=1, sigma2=True)
        path = tmp_path / "d.csv"
        write_dataset_csv(path, ds, rng)
        if variant == "quoted":
            lines = path.read_text(encoding="utf-8").split("\n")
            path.write_text("\n".join(_edit_fields(lines, _quote)), encoding="utf-8")
        plain = wio.load_dataset_csv(path, p=2, q=1)
        rows = []
        real = wio._parse_rows
        monkeypatch.setattr(wio, "_parse_rows", lambda *a: rows.append(1) or real(*a))
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        got = wio.load_dataset_csv(path, p=2, q=1)
        assert len(rows) == (variant == "quoted")
        assert got.ids == plain.ids
        for name in ("offsets", "N", "y", "X", "Z", "pi", "sigma2"):
            assert np.array_equal(getattr(got, name), getattr(plain, name)), name

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


def _edit_fields(lines, edit):
    """Apply ``edit(k, fields)`` to the comma-split fields of data line k (1-based)."""
    out = [lines[0]]
    for k, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if line:
            edit(k, fields)
        out.append(",".join(fields))
    return out


def _quote(k, f):
    f[0], f[2] = f'"{f[0]}"', f'"{f[2]}"'


def _underscore(k, f):
    if f[0] == "loc0":
        f[1] = f[1][0] + "_" + f[1][1:]


def _pad(k, f):
    f[:] = [f" {v}\t" for v in f]


def _hash_ids(k, f):
    f[0] = "#" + f[0]


def _arabic_digits(k, f):
    if k == 1:
        f[2] = "١٢"   # 12 in Arabic-Indic digits, which float reads


def _move_id(lines):
    def move(fields):
        return fields[1:3] + fields[:1] + fields[3:] if fields[0] else fields
    return [",".join(move(line.split(","))) for line in lines]


class TestCsvParsersAgree:
    """The reader against a csv-plus-float oracle on inputs that an array parse
    refuses or reads differently; each must give the same dataset."""

    @pytest.mark.parametrize("variant", [
        "quoted", "underscore", "padded", "crlf", "comma_rows", "hash_ids", "arabic_digits",
        "id_not_first"])
    def test_variant_reads_like_the_oracle(self, rng, tmp_path, variant):
        ds, _ = random_dataset(rng, m=4, p=2, q=1, sigma2=True)
        path = tmp_path / "d.csv"
        write_dataset_csv(path, ds, rng)
        lines = path.read_text(encoding="utf-8").split("\n")
        ending = "\n"
        if variant == "crlf":
            ending = "\r\n"
        elif variant == "comma_rows":
            lines[3:3] = [",,,,,,,", " , ,\t,,,,,"]
        elif variant == "id_not_first":
            lines = _move_id(lines)
        else:
            edit = {"quoted": _quote, "underscore": _underscore, "padded": _pad,
                    "hash_ids": _hash_ids, "arabic_digits": _arabic_digits}[variant]
            lines = _edit_fields(lines, edit)
        path.write_bytes(ending.join(lines).encode("utf-8"))
        got = wio.load_dataset_csv(path, p=2, q=1)
        want = oracles.csv_locations(path, p=2, q=1)
        assert got.location_ids() == [loc["location_id"] for loc in want]
        for block, loc in zip(got.locations, want):
            assert type(block.N) is int and block.N == loc["N"]
            for name in ("y", "X", "Z", "pi", "sigma2"):
                a, b = getattr(block, name), loc[name]
                assert a.shape == b.shape and np.array_equal(a, b), name

    @pytest.mark.parametrize("bad", ["\x1c0.5", "0.5\x1f", "0x1p-1", ""])
    def test_a_value_float_refuses_fails_with_its_line(self, rng, tmp_path, bad):
        # np.loadtxt strips U+001C..U+001F as whitespace; float does not
        ds, _ = random_dataset(rng, m=3, p=1)
        path = tmp_path / "d.csv"
        write_dataset_csv(path, ds)
        lines = path.read_text(encoding="utf-8").split("\n")
        fields = lines[4].split(",")
        fields[2] = bad
        lines[4] = ",".join(fields)
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(w.ValidationError) as err:
            wio.load_dataset_csv(path, p=1)
        assert str(err.value) == \
            f"line 5 (location {fields[0]!r}): could not convert string to float: {bad!r}"

    def test_extra_field_fails_with_its_line(self, rng, tmp_path):
        ds, _ = random_dataset(rng, m=3, p=1)
        path = tmp_path / "d.csv"
        write_dataset_csv(path, ds)
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[3] += ",1.0"
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(w.ValidationError, match="^line 4: expected 5 fields, got 6$"):
            wio.load_dataset_csv(path, p=1)


HEADER = "location_id,N,y,pi,sigma2,x1"


class TestCsvCheckPrecedence:
    def _load(self, tmp_path, rows):
        path = tmp_path / "d.csv"
        path.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8")
        with pytest.raises(w.ValidationError) as err:
            wio.load_dataset_csv(path, p=1)
        return str(err.value)

    def test_first_location_in_file_order_is_named(self, tmp_path):
        # b's bad row comes first in the file, but a appears first
        rows = ["a,10,1.0,0.5,1.0,1.0", "b,10,nan,0.5,1.0,1.0", "a,10,1.0,1.5,1.0,1.0"]
        assert self._load(tmp_path, rows) == \
            "location 'a': inclusion probabilities must lie in (0, 1]"

    @pytest.mark.parametrize("rows, message", [
        (["a,10,1.0,1.5,1.0,1.0", "a,10.5,1.0,0.5,1.0,1.0"],
         "N must be a finite integer, got 10.5"),
        (["a,10,nan,0.5,1.0,1.0", "a,11,1.0,0.5,1.0,1.0"], "inconsistent N values [10.0, 11.0]"),
        (["a,10,1.0,0.0,1.0,1.0", "a,10,1.0,0.5,0.0,1.0"], "sigma2 must be strictly positive"),
        (["a,10,1.0,0.0,1.0,1.0", "a,10,1.0,0.5,1.0,inf"], "non-finite values in y/X/Z"),
        (["a,1,1.0,2.0,1.0,1.0", "a,1,1.0,0.5,1.0,1.0"],
         "inclusion probabilities must lie in (0, 1]"),
        (["b,10,1.0,0.5,1.0,1.0", "a,1,1.0,0.5,1.0,1.0", "a,1,1.0,0.5,1.0,1.0"],
         "population size N=1 smaller than sample size n=2"),
    ])
    def test_first_check_in_order_wins_within_a_location(self, tmp_path, rows, message):
        assert self._load(tmp_path, rows) == f"location 'a': {message}"

    @pytest.mark.parametrize("value", ["inf", "nan", "10.5"])
    def test_population_size_must_be_a_finite_integer(self, tmp_path, value):
        rows = ["a,10,1.0,0.5,1.0,1.0", f"b,{value},1.0,0.5,1.0,1.0"]
        assert self._load(tmp_path, rows) == f"location 'b': N must be a finite integer, got {value}"


class TestDumps:
    """``dumps`` splices the pair blobs in unescaped, and its text is
    ``json.dumps``'s byte for byte, on the splice and on the fallback."""

    @pytest.fixture
    def report(self, rng, tmp_path, monkeypatch):
        # the report object of a real ``wccreg fit``, as the command passes it
        ds, _ = random_dataset(rng, m=6, p=2, q=1, noise=0.5)
        csv_path, out = tmp_path / "d.csv", tmp_path / "r.json"
        write_dataset_csv(csv_path, ds)
        seen = []
        monkeypatch.setattr(wio, "dumps", lambda obj, real=wio.dumps: seen.append(obj) or real(obj))
        assert cli.main(["fit", str(csv_path), "--p", "2", "--q", "1", "--lambda-grid", "0.01:1:3",
                         "--refit-oracle", "--out", str(out)]) == cli.EXIT_OK
        monkeypatch.undo()
        assert out.read_text(encoding="utf-8") == wio.dumps(seen[0])
        return seen[0]

    def _same_as_json(self, obj):
        text = wio.dumps(obj)
        assert text == json.dumps(obj, allow_nan=True) + "\n"
        back = wio.fit_result_from_dict(json.loads(text)["fit"])
        want = wio.fit_result_from_dict(obj["fit"])
        for name in ("beta", "eta", "zeta", "v"):
            assert np.array_equal(getattr(back, name), getattr(want, name)), name
        return text

    def test_fit_report(self, report, monkeypatch):
        # the blobs are spliced: json encodes only the placeholders
        encoded = []
        real = json.dumps
        monkeypatch.setattr(json, "dumps", lambda obj, **kw: encoded.append(obj) or real(obj, **kw))
        text = self._same_as_json(report)
        assert type(report["fit"]["zeta"]) is type(report["fit"]["v"]) is wio._PairBlob
        assert encoded[0]["fit"]["zeta"] == wio._BLOB_MARK.format("zeta")
        assert encoded[0]["fit"]["v"] == wio._BLOB_MARK.format("v")
        assert list(encoded[0]) == list(report) and list(encoded[0]["fit"]) == list(report["fit"])
        assert report["fit"]["zeta"] in text and "+" in report["fit"]["zeta"] + report["fit"]["v"]

    def test_placeholder_as_a_location_id_falls_back(self, report):
        report["location_ids"][0] = wio._BLOB_MARK.format("zeta")
        report["partition"]["location_ids"][0] = wio._BLOB_MARK.format("v")
        text = self._same_as_json(report)
        assert text.count(f'"{wio._BLOB_MARK.format("zeta")}"') == 1

    def test_plain_string_blob_falls_back(self, report):
        report["fit"] = dict(report["fit"], zeta=str(report["fit"]["zeta"]))
        assert type(report["fit"]["zeta"]) is str
        self._same_as_json(report)
