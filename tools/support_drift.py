"""How far the solver's support path drifts from its plain loop, on the two
m = 100 lambda paths of ``tools/fit_digest.py``.

    python tools/support_drift.py [--src DIR]

Runs the program in ``DIR`` (default: this checkout's ``src``).  For p = 2
and p = 3 it takes ``fit_digest``'s path data and 6-lambda grid and fits
every lambda twice with the default solver settings: once as the program
runs it (4,950 pairs, above the support gate, so the loop works on the
slack support), and once with ``admm._SUPPORT_MIN_PAIRS`` raised above the
pair count for that one fit and restored after it, which runs the plain
loop.  Prints one row per lambda: both iteration counts, whether each fit
converged, the largest absolute difference of beta, eta, zeta and v between
the two fits, and whether their partitions are equal.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import fit_digest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=fit_digest.ROOT / "src",
                    help="the program tree to run")
    args = ap.parse_args(argv)
    fit_digest._load_program(args.src.resolve())
    logging.disable(logging.WARNING)        # a capped fit shows in the table
    import numpy as np
    from wccreg import admm, grouping, selection
    from wccreg.penalty import ScadSpec

    names = ("beta", "eta", "zeta", "v")
    print(f"{'p':>2} {'lambda':>9} {'iterations':>11} {'converged':>11} "
          + " ".join(f"{'max|d ' + n + '|':>12}" for n in names) + "  partitions")
    for p in (2, 3):
        data = fit_digest._path_dataset(p)
        anchor = float(selection.default_lambda_grid(data, num=1)[0])
        for lam in np.geomspace(0.05 * anchor, anchor, fit_digest.PATH_GRID):
            spec = ScadSpec(lam=float(lam))
            support = admm.fit(data, spec)
            gate = admm._SUPPORT_MIN_PAIRS
            admm._SUPPORT_MIN_PAIRS = admm.build_pair_index(data.m).n_pairs + 1
            try:
                plain = admm.fit(data, spec)
            finally:
                admm._SUPPORT_MIN_PAIRS = gate
            drift = [float(np.abs(getattr(support, n) - getattr(plain, n)).max(initial=0.0)) for n in names]
            same = np.array_equal(grouping.extract_partition(support).assignment,
                                  grouping.extract_partition(plain).assignment)
            print(f"{p:>2} {lam:>9.4g} {support.iterations:>5}/{plain.iterations:<5} "
                  f"{f'{support.converged}/{plain.converged}':>11} "
                  + " ".join(f"{x:>12.3g}" for x in drift) + f"  {'equal' if same else 'DIFFER'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
