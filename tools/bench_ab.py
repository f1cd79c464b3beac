"""Run the benchmark on two program trees in alternation and keep every run.

    python tools/bench_ab.py --src A --src B --label L [--workload W ...]
        [--seed S] [--pairs N] [--seconds T] [--trace 0|1]

Each run is a fresh process of a tree's own ``perfbench/run.py``, unchanged,
with the tree as its working directory.  Pair k runs A then B when k is odd
and B then A when it is even; the workloads (default: every workload of
``BENCHMARK.json``) run one after the other.  After each run its detail file,
``.bench_out/<workload>-seed<S>-trace<T>.json`` in the tree it ran in, is
copied to ``.bench_out/ab-<L>/`` in the working directory before the next
run overwrites it.

Writes ``BENCH_<L>.json`` to the working directory: the settings, the run
order, both trees' environments, every run's summary line and metrics, and
per workload and metric each tree's median and quartiles and the number of
pairs in which B read lower.  Exits 1 when any run is not ``correct``
(a run that prints no summary counts as not correct), after writing the file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("A", "B")


def _run(root: Path, workload: str, args, keep: Path, tag: str) -> dict:
    """One benchmark run in ``root``: its summary, metrics and environment."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        summary = {}
    detail = root / ".bench_out" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    environment, copy = None, None
    if detail.is_file():
        copy = keep / f"{tag}.json"
        shutil.copyfile(detail, copy)
        environment = json.loads(copy.read_text(encoding="utf-8")).get("environment")
    return {"returncode": done.returncode, "correct": summary.get("correct") is True,
            "summary": lines[-1] if lines else None,
            "metrics": {k: v["value"] for k, v in summary.get("metrics", {}).items()},
            "units": {k: v["unit"] for k, v in summary.get("metrics", {}).items()},
            "environment": environment, "detail": None if copy is None else copy.name,
            "stderr_tail": done.stderr.strip().splitlines()[-5:] if done.returncode else []}


def _spread(values: list) -> dict:
    """Median and quartiles (linear interpolation between order statistics)."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _stats(runs: list, workloads: list) -> dict:
    """Per workload and metric: each tree's spread and how often B read lower."""
    out = {}
    for wl in workloads:
        values, units = {}, {}      # values[metric][tree][pair]
        for r in runs:
            if r["workload"] == wl:
                for name, v in r["metrics"].items():
                    values.setdefault(name, {}).setdefault(r["tree"], {})[r["pair"]] = v
                units.update(r["units"])
        out[wl] = {}
        for name, by_tree in sorted(values.items()):
            a, b = by_tree.get("A", {}), by_tree.get("B", {})
            both = sorted(a.keys() & b.keys())
            out[wl][name] = {"unit": units[name],
                             **{t: _spread(list(v.values())) for t, v in sorted(by_tree.items())},
                             "b_lower": sum(b[k] < a[k] for k in both), "pairs": len(both)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, action="append", required=True,
                    help="a checkout root; give it twice, A then B")
    ap.add_argument("--workload", action="append", help="default: every benchmark workload")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    if len(args.src) != 2:
        ap.error("--src takes exactly two checkout roots")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    trees = dict(zip(TREES, (src.resolve() for src in args.src)))
    keep = Path.cwd() / ".bench_out" / f"ab-{args.label}"
    keep.mkdir(parents=True, exist_ok=True)

    runs = []
    for wl in workloads:
        for pair in range(1, args.pairs + 1):
            for tree in (TREES if pair % 2 else TREES[::-1]):
                tag = f"{len(runs) + 1:03d}-{wl}-pair{pair}-{tree}"
                run = {"run": len(runs) + 1, "workload": wl, "pair": pair, "tree": tree,
                       **_run(trees[tree], wl, args, keep, tag)}
                runs.append(run)
                shown = ", ".join(f"{k} {run['metrics'][k]:.4g}" for k in end_to_end
                                  if k in run["metrics"])
                print(f"{tag}: {shown or 'no metrics'}"
                      f"{'' if run['correct'] else ', NOT correct'}", flush=True)

    environments = {t: next((r["environment"] for r in runs if r["tree"] == t), None)
                    for t in TREES}
    result = {
        "label": args.label,
        "settings": {"workloads": workloads, "seed": args.seed, "pairs": args.pairs,
                     "seconds": args.seconds, "trace": args.trace,
                     "order": "pair k runs A then B when k is odd, B then A when even"},
        "environments": environments,
        "order": [f"{r['workload']}:{r['pair']}:{r['tree']}" for r in runs],
        "runs": [{k: v for k, v in r.items() if k not in ("units", "environment")} for r in runs],
        "stats": _stats(runs, workloads),
        "all_correct": all(r["correct"] for r in runs),
    }
    out = Path.cwd() / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if result["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
