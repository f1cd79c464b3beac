"""The Monte Carlo driver's output, pinned: two small study cells run end to end
and compared exactly with ``tests/data/mc_pinned.json``.

Every ``RepRecord`` field must match, floats by their ``repr``, and so must
each cell's ``summary.to_dict()``.  A change that only makes the program
faster leaves the file alone; a change to the estimator regenerates it, from
the repository root, with

    PYTHONPATH=src python tests/test_mc_pinned.py > tests/data/mc_pinned.json

and states the old and new values in CHANGES.md.
"""

import json
from dataclasses import fields
from pathlib import Path

import pytest

import wccreg as w
from wccreg import simulation

PINNED = Path(__file__).resolve().parent / "data" / "mc_pinned.json"

# the paper's mean cell, and a small regression cell
CELLS = {
    "mean": dict(kind="mean_model", expected_n=10, m=49, seed=7, reps=3),
    "regression": dict(kind="regression", expected_n=30, m=12, seed=7, reps=1),
}


def _fields(record: simulation.RepRecord) -> dict:
    """Every field of a record, floats as their ``repr``."""
    return {f.name: repr(float(getattr(record, f.name))) if f.type in (float, "float")
            else getattr(record, f.name) for f in fields(record)}


def run_cell(name: str) -> dict:
    """One cell's records and summary."""
    summary = w.run_monte_carlo(w.ScenarioSpec(**CELLS[name]))
    return {"records": [_fields(r) for r in summary.records], "summary": summary.to_dict()}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_monte_carlo_output_is_pinned(name):
    want = json.loads(PINNED.read_text(encoding="utf-8"))[name]
    got = run_cell(name)
    assert len(got["records"]) == len(want["records"])
    for rec, pinned in zip(got["records"], want["records"]):
        assert rec == pinned
        assert all(type(rec[k]) is type(pinned[k]) for k in rec), rec
    assert got["summary"] == want["summary"]


if __name__ == "__main__":
    print(json.dumps({name: run_cell(name) for name in sorted(CELLS)}, indent=1))
