"""Benchmark runner for wccreg.

    python3 perfbench/run.py --workload mc_mean --seed 1 --seconds 50 --trace 0

Runs tasks of one workload (see ``workloads.py``) for about ``--seconds``
seconds in this process, checks every task's outputs, compares them with the
reference commit's outputs (``reference.py``) and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``task_s`` (median wall seconds
per task), ``setup_s`` (process start to the first task, median of this
process and two more that only set up) and ``peak_rss_mb``.  ``--trace 1``
runs every task twice, untraced and then with a span around each layer call
(``probe.LAYERS``), and reports the per-layer metrics: self seconds and call
counts per task, solver iterations, the quality figures (failed candidate
fits, ARI, deviation from the reference) and the tracing overhead.  Details
and the spans go to ``.bench_out/`` in the working tree.

BLAS runs on one thread unless the environment says otherwise.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> None:
    """Pin BLAS threads and put the working tree's ``src`` first on the path.

    Must run before numpy is imported.  Fails when the tree has no program,
    rather than picking up an installed copy.
    """
    src = ROOT / "src"
    if not (src / "wccreg" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {src / 'wccreg'}; run from a full checkout")
    for var in BLAS_ENV:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import wccreg
    if Path(wccreg.__file__).resolve().parent != src / "wccreg":
        raise SystemExit(f"error: imported wccreg from {wccreg.__file__}, not {src}")


def _git_sha(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, when it can be found."""
    import ctypes
    import glob

    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(root: Path) -> dict:
    import hashlib

    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for f in sorted((root / "src").rglob("*.py")):
        digest.update(f.relative_to(root).as_posix().encode() + b"\0" + f.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(root),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "machine": platform.machine(),
    }


def _setup_elsewhere(args) -> float:
    """Set-up time of a fresh process that stops before its first task."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True,
                          cwd=ROOT)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _per_layer(st: dict, outcomes, traced_s, untraced_s) -> dict:
    """Per-task means over the traced tasks; every ``_s`` figure is a self time."""
    per = lambda x: x / len(traced_s)  # noqa: E731
    m = {}
    for layer in ("simulation.population", "simulation.sample", "selection.grid",
                  "selection.select_lambda", "selection.bic", "grouping.extract_partition",
                  "grouping.refit_oracle", "admm.initialize", "admm.factor", "admm.solve",
                  "penalty.prox", "io.load_csv", "io.dumps"):
        m[f"{layer}_s"] = (per(st[layer]["self_s"]), "s")
    m["admm.fit_self_s"] = (per(st["admm.fit"]["self_s"]), "s")
    for layer, name in (("penalty.prox", "penalty.prox_calls"), ("admm.fit", "admm.fit_calls"),
                        ("admm.factor", "admm.factor_calls"), ("admm.solve", "admm.solve_calls")):
        m[name] = (per(st[layer]["calls"]), "count")
    iterations = sum(o.iterations for o in outcomes) / len(outcomes)
    m["admm.iterations"] = (iterations, "count")
    m["admm.iter_ms"] = (1e3 * per(st["admm.fit"]["total_s"]) / iterations if iterations else 0.0,
                         "ms")
    m["selection.candidates_failed"] = (sum(o.fits_failed for o in outcomes) / len(outcomes),
                                        "count")
    m["io.report_bytes"] = (sum(o.report_bytes for o in outcomes) / len(outcomes), "bytes")
    m["trace.task_s"] = (per(st["task"]["total_s"]), "s")
    m["trace.unaccounted_s"] = (per(st["task"]["self_s"]), "s")
    m["trace.overhead_frac"] = (sum(traced_s) / sum(untraced_s) - 1.0, "ratio")
    return m


def _quality(outcomes, refs, seed: int) -> tuple[dict, list[str]]:
    import reference

    fits = sum(o.fits for o in outcomes)
    m = {"failed_frac": (sum(o.fits_failed for o in outcomes) / fits if fits else 0.0, "ratio")}
    for method in ("wcc", "cc"):
        aris = [o.ari[method] for o in outcomes if method in o.ari]
        m[f"ari_{method}"] = (sum(aris) / len(aris) if aris else 0.0, "ratio")
    dev, matched, notes = 0.0, 0, []
    for k, o in enumerate(outcomes):
        for method, got in o.selected.items():
            ref = refs.get(reference.key(seed, k, method))
            if ref is None:
                continue
            matched += 1
            d, names = reference.compare(ref, got)
            dev = max(dev, d)
            for name in names:
                what = "differs" if name == "assignment" else f"{got[name]!r} != {ref[name]!r}"
                notes.append(f"reference mismatch: task {k} {method}: {name} {what}")
    m["beta_dev"] = (dev, "abs")
    m["ref_tasks"] = (float(matched), "count")
    m["ref_mismatches"] = (float(len(notes)), "count")
    return m, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="wccreg benchmark runner")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    bootstrap()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r} "
                         f"(choose from {', '.join(WORKLOADS)})")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return _measure(args, WORKLOADS[args.workload](workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_task(wl, inputs, probe, cap, spans: bool):
    """One timed call of the program, then the checks on what it returned."""
    from workloads import Outcome, check_fits

    cap.reset()
    error = None
    with probe.installed(spans=spans), (probe.task_span() if spans else nullcontext()):
        t0 = time.perf_counter()
        try:
            result = wl.run(inputs)
        except Exception:
            error = traceback.format_exc()
        elapsed = time.perf_counter() - t0
    if error is None:
        try:
            return elapsed, wl.check(inputs, result, cap)
        except Exception:
            error = "output check raised: " + traceback.format_exc()
    outcome = Outcome(problems=[error.strip()])
    check_fits(cap, outcome)
    return elapsed, outcome


def _measure(args, wl) -> int:
    import reference
    from probe import Probe
    from workloads import Capture

    cap = Capture()
    probe = Probe(cap.hooks)
    inputs = wl.prepare(args.seed, 0)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    task_s, traced_s, outcomes, lines, walls = [], [], [], [], []
    failed = 0
    begin = time.perf_counter()
    while True:
        k = len(task_s)
        wall = time.perf_counter()
        elapsed, outcome = _run_task(wl, inputs, probe, cap, spans=False)
        task_s.append(elapsed)
        problems = list(outcome.problems)
        line = f"task {k}: {elapsed:.4f} s"
        if args.trace:
            elapsed, again = _run_task(wl, inputs, probe, cap, spans=True)
            traced_s.append(elapsed)
            problems += [f"traced: {p}" for p in again.problems]
            if again.selected != outcome.selected:
                problems.append("the traced run selected different outputs")
            line += f", traced {elapsed:.4f} s"
        outcomes.append(outcome)
        line += (f", {outcome.fits} fits ({outcome.fits_failed} failed), "
                 f"{outcome.iterations} iterations")
        if problems:
            failed += 1
            line += " FAILED: " + "; ".join(problems)
        lines.append(line)
        print(line, file=sys.stderr if problems else sys.stdout, flush=True)
        walls.append(time.perf_counter() - wall)
        # start another task only if it should end within the measuring time
        if time.perf_counter() - begin + statistics.median(walls) > args.seconds:
            break
        inputs = wl.prepare(args.seed, k + 1)

    quality, notes = _quality(outcomes, reference.load(wl.name), args.seed)
    for note in notes:
        print(note, flush=True)
    if args.trace:
        layers = probe.self_times()
        metrics = _per_layer(layers, outcomes, traced_s, task_s)
        metrics.update(quality)
        probe.write(OUT_DIR / f"{wl.name}-seed{args.seed}.spans.npz")
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_s] + [_setup_elsewhere(args) for _ in range(SETUP_REPEATS - 1)]
        metrics = {"task_s": (statistics.median(task_s), "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (peak, "MB")}
        print("quality " + json.dumps({k: v for k, (v, _) in quality.items()}), flush=True)

    env = environment(ROOT)
    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "task_s": task_s, "traced_s": traced_s,
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "quality": {k: v for k, (v, _) in quality.items()},
              "notes": notes, "log": lines}
    if args.trace:
        detail["layers"] = layers
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print("environment " + json.dumps(env), flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": len(task_s), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
