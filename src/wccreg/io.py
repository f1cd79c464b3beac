"""CSV ingestion and deterministic JSON serialization.

The CSV schema is one row per sampled observation:
``location_id, N, y, pi, [sigma2,] x1..xp, [z1..zq]`` with a mandatory header.
The numeric fields of all rows are parsed once into one float table, and each
location's arrays are slices of its rows; the blocks' constructors are the one
check of the values.
JSON reports keep a fixed field order, so identical inputs produce
byte-identical files.  Arrays whose length grows with m^2, the fit's pair-space
slacks ``zeta`` and multipliers ``v``, are written as base64 strings of their
little-endian float64 bytes in (p, n_pairs) C order.  Everything of size O(m)
(coefficients, partition, lambda path, refit) is written as decimal numbers in
shortest round-trip form.  Both forms read back bit for bit.
"""

from __future__ import annotations

import base64
import csv
import json
from typing import Optional

import numpy as np

from .types import Dataset, FitResult, LocationBlock, Partition, ValidationError

SCHEMA_VERSION = 2
_PAIR_DTYPE = "<f8"


def expected_columns(p: int, q: int, has_sigma2: bool) -> list[str]:
    cols = ["location_id", "N", "y", "pi"]
    if has_sigma2:
        cols.append("sigma2")
    cols += [f"x{j + 1}" for j in range(p)]
    cols += [f"z{j + 1}" for j in range(q)]
    return cols


def load_dataset_csv(path, p: int, q: int = 0) -> Dataset:
    """Read a dataset; locations ordered by first appearance in the file.

    The optional ``sigma2`` column is detected from the header.  Any missing
    or misnamed column fails with the offending name.  Every row's numeric
    fields go, parsed with ``float``, into one table with the columns of
    ``expected_columns`` after ``location_id``; each location keeps the indices
    of its rows, and its y, X, Z, pi and sigma2 are column slices of them.
    """
    if p < 1:
        raise ValidationError("p must be at least 1")
    if q < 0:
        raise ValidationError("q must be nonnegative")
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
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

        table: list[list[float]] = []
        rows: dict[str, list[int]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not "".join(row).strip():  # blank, or only whitespace fields
                continue
            if len(row) != len(header):
                raise ValidationError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            lid = row[lid_at].strip()
            try:
                table.append([float(row[k]) for k in value_at])
            except ValueError as exc:
                raise ValidationError(f"line {lineno} (location {lid!r}): {exc}") from None
            rows.setdefault(lid, []).append(len(table) - 1)

    if not table:
        raise ValidationError("CSV contains no data rows")

    values = np.array(table)
    x_at = 4 if has_sigma2 else 3  # columns: N, y, pi, [sigma2,] x..., z...
    blocks = []
    for lid, idx in rows.items():
        part = values[idx]
        Ns = part[:, 0].tolist()
        for N in Ns:
            if not N.is_integer():  # also False for inf and nan
                raise ValidationError(f"location {lid!r}: N must be a finite integer, got {N}")
        distinct = sorted(set(Ns))
        if len(distinct) != 1:
            raise ValidationError(f"location {lid!r}: inconsistent N values {distinct}")
        blocks.append(LocationBlock(
            location_id=lid,
            N=int(Ns[0]),
            y=part[:, 1],
            X=part[:, x_at:x_at + p],
            Z=part[:, x_at + p:],
            pi=part[:, 2],
            sigma2=part[:, 3] if has_sigma2 else None,
        ))
    return Dataset(blocks)


def _encode_pairs(a: np.ndarray) -> str:
    return base64.b64encode(np.asarray(a, dtype=_PAIR_DTYPE).tobytes()).decode("ascii")


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


def partition_to_dict(partition: Partition, location_ids: Optional[list[str]] = None) -> dict:
    # groups are reported 1-based in the interchange format
    out = {
        "K_hat": int(partition.K_hat),
        "assignment": [int(g) + 1 for g in partition.assignment],
        "alpha": partition.alpha.tolist(),
        "group_sizes": [int(s) for s in partition.group_sizes],
    }
    if location_ids is not None:
        out["location_ids"] = list(location_ids)
    return out


def partition_from_dict(d: dict) -> Partition:
    labels = np.asarray(d["assignment"], dtype=int) - 1
    return Partition(
        assignment=labels,
        K_hat=int(d["K_hat"]),
        alpha=np.asarray(d["alpha"], dtype=float),
        group_sizes=np.asarray(d["group_sizes"], dtype=int),
    )


def dumps(obj: dict) -> str:
    """Deterministic JSON text: fixed key order, round-trip float formatting.

    Written without indentation: an indent makes ``json`` fall back from its C
    encoder to the pure-Python one, which doubles the time for large reports.
    """
    return json.dumps(obj, allow_nan=True) + "\n"
