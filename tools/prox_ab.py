"""A/B timing of the proximal map of two program trees, on the inputs the
benchmark's own tasks give it.

    python tools/prox_ab.py --src A --src B [--rounds 10] [--seed 7]

Runs ``mc_mean`` task 0 and ``cli_large`` tasks 0-2 at the seed with the
program in ``A`` (task inputs from this checkout's ``perfbench/workloads.py``,
imported read-only, as ``tools/fit_digest.py`` does) and keeps a copy of
every ``penalty.prox_columns`` input: kappa, lambda, gamma and vartheta;
``mc_mean`` keeps an evenly strided 6,000 of them.  It then loads the map of
both trees into this one process and asserts that they return the same
shape and float64 bytes on every input.  Each round times every input once
per tree, one tree right after the other, A first in odd rounds and B first
in even ones; the input is read just before each timed call, as the
solver's loop hands the map a block it has just written.  The inputs fall
in three groups: ``mc_mean``, and the ``cli_large`` blocks narrower than all
pairs (the live columns of the support path, or none) and as wide as all
pairs.  Per group it prints the call count and, for the median and for the
mean per-call time of a round, the median over rounds for each tree, B's
change against A, and the rounds in which B was the lower.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

import fit_digest

MC_KEEP = 6000


def _capture(workloads, seed: int) -> dict:
    """The map's inputs on the bench tasks, by group, run by the loaded tree."""
    from wccreg import admm
    calls = []
    real = admm.prox_columns

    def prox_columns(kappa, spec, vartheta):
        calls.append((kappa.copy(), spec.lam, spec.gamma, vartheta))
        return real(kappa, spec, vartheta)

    groups = {}
    admm.prox_columns = prox_columns
    try:
        with tempfile.TemporaryDirectory() as tmp:
            mc_mean = workloads.McMean(Path(tmp))
            mc_mean.run(mc_mean.prepare(seed, 0))
            stride = max(1, len(calls) // MC_KEEP)
            groups["mc_mean"] = calls[::stride][:MC_KEEP]
            calls.clear()
            cli_large = workloads.CliLarge(Path(tmp))
            for k in range(3):
                code, _ = cli_large.run(cli_large.prepare(seed, k))
                if code != 0:
                    raise SystemExit(f"error: cli_large seed {seed} task {k} exited {code}")
    finally:
        admm.prox_columns = real
    n_pairs = workloads.CLI_M * (workloads.CLI_M - 1) // 2
    groups["cli_large compact"] = [c for c in calls if c[0].shape[1] < n_pairs]
    groups["cli_large full"] = [c for c in calls if c[0].shape[1] == n_pairs]
    return groups


def _load_map(src: Path):
    """``prox_columns`` and ``ScadSpec`` of the tree in ``src``, imported afresh."""
    for name in [n for n in sys.modules if n == "wccreg" or n.startswith("wccreg.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        from wccreg import penalty
    finally:
        sys.path.remove(str(src))
    if Path(penalty.__file__).resolve().parent != src / "wccreg":
        raise SystemExit(f"error: imported wccreg from {penalty.__file__}, not {src}")
    return penalty.prox_columns, penalty.ScadSpec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, action="append", required=True,
                    help="a program tree to run; give it twice, A then B")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    if len(args.src) != 2:
        ap.error("give --src exactly twice")
    srcs = [s.resolve() for s in args.src]
    groups = _capture(fit_digest._load_program(srcs[0]), args.seed)
    maps = [_load_map(src) for src in srcs]

    for name, calls in groups.items():
        if not calls:
            print(f"{name:>18}: no calls", flush=True)
            continue
        inputs = [(kappa, [spec(lam, gam) for _, spec in maps], vt) for kappa, lam, gam, vt in calls]
        for kappa, specs, vt in inputs:
            a, b = (prox(kappa, spec, vt) for (prox, _), spec in zip(maps, specs))
            if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
                raise SystemExit(f"error: {name}: the trees' maps differ on a {kappa.shape} block")
        stats = {"median": ([], []), "mean": ([], [])}
        for r in range(args.rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            times = ([], [])
            for kappa, specs, vt in inputs:
                for k in order:
                    prox, spec = maps[k][0], specs[k]
                    kappa.sum()             # the loop hands the map a block it has just written
                    t0 = time.perf_counter()
                    prox(kappa, spec, vt)
                    times[k].append(time.perf_counter() - t0)
            for k in (0, 1):
                stats["median"][k].append(statistics.median(times[k]))
                stats["mean"][k].append(statistics.fmean(times[k]))
        line = f"{name:>18}: {len(inputs):>5} calls"
        for stat, (ta, tb) in stats.items():
            a, b = statistics.median(ta), statistics.median(tb)
            wins = sum(y < x for x, y in zip(ta, tb))
            line += (f"; {stat} per call A {a * 1e6:.1f} us, B {b * 1e6:.1f} us ({b / a - 1:+.1%}), "
                     f"B lower in {wins} of {args.rounds}")
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
