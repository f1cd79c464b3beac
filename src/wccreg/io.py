"""CSV ingestion and deterministic JSON serialization.

The CSV schema is one row per sampled observation:
``location_id, N, y, pi, [sigma2,] x1..xp, [z1..zq]`` with a mandatory header.
The reader parses the numeric fields of all rows in one array pass
(``np.loadtxt``), groups the rows by location (in order of first appearance,
and in file order within a location) with a stable sort, and hands them to
the ``Dataset`` constructor, whose one vectorized check validates the values.
The array pass takes plain text only.  A file with a quote, a NUL or one of
the separators U+001C..U+001F (which ``np.loadtxt`` strips as whitespace and
``float`` does not), or whose rows the pass refuses (``1_000``, non-ASCII
digits, an empty field, a row of only commas or spaces, a wrong field count),
is read again by the row-by-row parser (``csv`` and ``float``).  So both
parsers accept the same files, with the same values, and fail with the same
messages.
JSON reports keep a fixed field order, so identical inputs produce
byte-identical files.  Arrays whose length grows with m^2, the fit's pair-space
slacks ``zeta`` and multipliers ``v``, are written as base64 strings of their
little-endian float64 bytes in (p, n_pairs) C order, and :func:`dumps` splices
them into the text without passing them through JSON's escaper.  Everything
of size O(m) (coefficients, partition, lambda path, refit) is written as
decimal numbers in shortest round-trip form.  Both forms read back bit for
bit.  The CSV is read as UTF-8, with or without a byte-order mark.
"""

from __future__ import annotations

import base64
import csv
import json
from io import StringIO
from typing import Sequence

import numpy as np

from .types import Dataset, FitResult, Partition, ValidationError, _readonly

SCHEMA_VERSION = 2
_PAIR_DTYPE = "<f8"
# the pair blob fields of a fit report, and the placeholder :func:`dumps`
# writes in the place of each
_BLOB_FIELDS = ("zeta", "v")
_BLOB_MARK = "@pairs:{}@"
# characters that send a file to the row-by-row parser (see the module docstring)
_ROW_PARSER_ONLY = '"\0\x1c\x1d\x1e\x1f'


def expected_columns(p: int, q: int, has_sigma2: bool) -> list[str]:
    cols = ["location_id", "N", "y", "pi"]
    if has_sigma2:
        cols.append("sigma2")
    cols += [f"x{j + 1}" for j in range(p)]
    cols += [f"z{j + 1}" for j in range(q)]
    return cols


def load_dataset_csv(path, p: int, q: int = 0) -> Dataset:
    """Read a dataset; locations ordered by first appearance in the file.

    The file is UTF-8 text, with or without a byte-order mark (as spreadsheet
    programs write it); other bytes fail with the path.

    The optional ``sigma2`` column is detected from the header.  Any missing
    or misnamed column fails with the offending name.  The numeric fields of
    every row are parsed into one table with the columns of
    ``expected_columns`` after ``location_id`` (see the module docstring for
    the two parsers); its rows, sorted by location, are the dataset's stacked
    rows, with N given per row.
    """
    if p < 1:
        raise ValidationError("p must be at least 1")
    if q < 0:
        raise ValidationError("q must be nonnegative")
    try:
        with open(path, "r", newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: "
                              f"{exc.reason})") from None
    reader = csv.reader(StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("empty CSV: header row required") from None
    header = [h.strip() for h in header]
    for i, col in enumerate(header):
        if col in header[:i]:
            raise ValidationError(f"duplicate column {col!r} in CSV header")
    has_sigma2 = "sigma2" in header
    expected = expected_columns(p, q, has_sigma2)
    for col in expected:
        if col not in header:
            raise ValidationError(f"missing column {col!r} in CSV header")
    extra = [h for h in header if h not in expected]
    if extra:
        raise ValidationError(f"unexpected column {extra[0]!r} in CSV header")
    lid_at = header.index("location_id")
    value_at = [header.index(col) for col in expected[1:]]

    parsed = _parse_array(text, lid_at, value_at, len(header))
    ids, values = parsed if parsed is not None else _parse_rows(reader, lid_at, value_at, len(header))
    first_seen: dict = {}
    location = np.array([first_seen.setdefault(lid, len(first_seen)) for lid in ids])
    values = values[np.argsort(location, kind="stable")]
    offsets = np.concatenate(([0], np.cumsum(np.bincount(location))))
    x_at = 4 if has_sigma2 else 3  # columns: N, y, pi, [sigma2,] x..., z...
    return Dataset(tuple(first_seen), offsets, N=values[:, 0], y=values[:, 1],
                   X=values[:, x_at:x_at + p], Z=values[:, x_at + p:], pi=values[:, 2],
                   sigma2=values[:, 3] if has_sigma2 else None)


def _parse_array(text: str, lid_at: int, value_at: list, width: int):
    """Ids and value table of the data rows in one array pass, or None when
    the row parser must read the file."""
    if any(c in text for c in _ROW_PARSER_ONLY):
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    rows = [line for line in lines[1:] if line]
    if not rows:
        return None
    try:
        ids = [line.split(",", lid_at + 1)[lid_at].strip() for line in rows]
        values = np.loadtxt(rows, delimiter=",", comments=None, usecols=value_at, ndmin=2)
    except (ValueError, IndexError):
        return None
    # every row gave an id and a row of values, so it has at least ``width``
    # fields; np.loadtxt ignores fields after the last one it reads, and the
    # comma count tells whether any row has more
    if values.shape[0] != len(rows) or \
            text.count(",") - lines[0].count(",") != (width - 1) * len(rows):
        return None
    return ids, values


def _parse_rows(reader, lid_at: int, value_at: list, width: int):
    """Ids and value table of the data rows, one ``csv`` row and ``float`` at
    a time; blank rows are skipped, and the first bad row fails with its line."""
    ids, table = [], []
    for lineno, row in enumerate(reader, start=2):
        if not "".join(row).strip():  # blank, or only whitespace fields
            continue
        if len(row) != width:
            raise ValidationError(f"line {lineno}: expected {width} fields, got {len(row)}")
        lid = row[lid_at].strip()
        try:
            table.append([float(row[k]) for k in value_at])
        except ValueError as exc:
            raise ValidationError(f"line {lineno} (location {lid!r}): {exc}") from None
        ids.append(lid)
    if not table:
        raise ValidationError("CSV contains no data rows")
    return ids, np.array(table)


class _PairBlob(str):
    """Base64 text of a pair block, as :func:`_encode_pairs` makes it.  Its
    characters (``A-Z a-z 0-9 + / =``) are written by JSON as they are, so
    :func:`dumps` splices it in without the escaper."""


def _encode_pairs(a: np.ndarray) -> str:
    return _PairBlob(base64.b64encode(np.asarray(a, dtype=_PAIR_DTYPE).tobytes()).decode("ascii"))


def _decode_pairs(d: dict, name: str, p: int, npairs: int) -> np.ndarray:
    text = d[name]
    if not isinstance(text, str):
        raise ValidationError(f"fit field {name!r} must be a base64 string of {_PAIR_DTYPE} "
                              f"bytes (schema {SCHEMA_VERSION}), got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:
        raise ValidationError(f"fit field {name!r} is not valid base64") from None
    if len(raw) != 8 * p * npairs:
        raise ValidationError(f"fit field {name!r} holds {len(raw)} bytes, expected "
                              f"8*p*m(m-1)/2 = {8 * p * npairs} for p={p}, {npairs} pairs")
    return np.frombuffer(raw, dtype=_PAIR_DTYPE).reshape(p, npairs)


def fit_result_to_dict(fit: FitResult) -> dict:
    """The fit as JSON-ready values; ``fit_result_from_dict`` inverts it exactly.

    ``beta`` (m, p) and ``eta`` (q,) are nested lists of floats.  ``zeta`` and
    ``v`` grow with m^2, so each is one base64 string of its
    (p, n_pairs) array as little-endian float64 bytes in C order: about 11
    bytes per value instead of ~22 decimal digits, and no float formatting.
    """
    return {
        "beta": fit.beta.tolist(),
        "eta": fit.eta.tolist(),
        "zeta": _encode_pairs(fit.zeta),
        "v": _encode_pairs(fit.v),
        "iterations": int(fit.iterations),
        "final_residual": float(fit.final_residual),
        "converged": bool(fit.converged),
        "final_dual_residual": float(fit.final_dual_residual),
    }


def fit_result_from_dict(d: dict) -> FitResult:
    m = len(d["beta"])
    p = len(d["beta"][0]) if m else 0
    npairs = m * (m - 1) // 2
    return FitResult(
        beta=np.asarray(d["beta"], dtype=float),
        eta=np.asarray(d["eta"], dtype=float),
        zeta=_decode_pairs(d, "zeta", p, npairs),
        v=_decode_pairs(d, "v", p, npairs),
        iterations=int(d["iterations"]),
        final_residual=float(d["final_residual"]),
        converged=bool(d["converged"]),
        final_dual_residual=float(d["final_dual_residual"]),
    )


def partition_to_dict(partition: Partition, location_ids: Sequence[str]) -> dict:
    # groups are reported 1-based in the interchange format, beside each location's id
    return {
        "K_hat": int(partition.K_hat),
        "assignment": [int(g) + 1 for g in partition.assignment],
        "alpha": partition.alpha.tolist(),
        "group_sizes": [int(s) for s in partition.group_sizes],
        "location_ids": list(location_ids),
    }


def partition_from_dict(d: dict) -> Partition:
    """Integer labels 1..K_hat, one ``alpha`` row each, and ``K_hat`` and
    ``group_sizes`` as they give them; each failure names the field."""
    labels = np.asarray(d["assignment"])
    if labels.ndim != 1 or labels.dtype.kind not in "iu":
        raise ValidationError(f"partition field 'assignment' must be a list of integer labels, "
                              f"got {d['assignment']!r}")
    alpha = _readonly(d["alpha"], 2, "partition field 'alpha'")
    try:
        part = Partition(assignment=labels - 1, alpha=alpha)
    except ValidationError:
        raise ValidationError(f"partition fields 'assignment' and 'alpha' disagree: labels "
                              f"{np.unique(labels).tolist()} for {alpha.shape[0]} alpha rows") from None
    for name, value in (("K_hat", part.K_hat), ("group_sizes", part.group_sizes.tolist())):
        if not np.array_equal(d[name], value):
            raise ValidationError(f"partition field {name!r} is {d[name]!r}, but the assignment "
                                  f"gives {value}")
    return part


def dumps(obj: dict) -> str:
    """Deterministic JSON text: fixed key order, round-trip float formatting.

    Written without indentation: an indent makes ``json`` fall back from its C
    encoder to the pure-Python one, which doubles the time for large reports.
    The two pair blobs of a fit report (``obj["fit"]["zeta"]`` and ``["v"]``
    as :func:`fit_result_to_dict` made them) are nearly all of its bytes and
    need no escaping, which ``json`` would still check one character at a
    time.  So the report is encoded with a short placeholder in the place of
    each, and the blobs are spliced in where each placeholder occurs exactly
    once.  The text is ``json.dumps(obj)``'s byte for byte; in every other
    case (other values there, or a placeholder that occurs elsewhere, as in a
    location id) it is ``json.dumps(obj)`` itself.
    """
    fit = obj.get("fit")
    if isinstance(fit, dict) and all(type(fit.get(k)) is _PairBlob for k in _BLOB_FIELDS):
        marks = {k: _BLOB_MARK.format(k) for k in _BLOB_FIELDS}
        text = json.dumps({**obj, "fit": {**fit, **marks}}, allow_nan=True) + "\n"
        if all(text.count(f'"{mark}"') == 1 for mark in marks.values()):
            for k, mark in marks.items():
                text = text.replace(f'"{mark}"', f'"{fit[k]}"')
            return text
    return json.dumps(obj, allow_nan=True) + "\n"
