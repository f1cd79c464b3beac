"""``tools/bench_ab.py``: one short pair of this checkout against itself, and
stub trees whose runs are not correct."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_ab.py"
END_TO_END = ("task_s", "setup_s", "peak_rss_mb")


def _bench_ab(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_one_short_pair_has_every_field(tmp_path):
    done = _bench_ab(tmp_path, "--src", ROOT, "--src", ROOT, "--workload", "mc_mean",
                     "--pairs", 1, "--seconds", 2, "--label", "t")
    assert done.returncode == 0, done.stderr
    out = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert out["label"] == "t" and out["all_correct"] is True
    assert out["settings"] == {"workloads": ["mc_mean"], "seed": 7, "pairs": 1, "seconds": 2.0,
                               "trace": 0, "order": out["settings"]["order"]}
    assert out["order"] == ["mc_mean:1:A", "mc_mean:1:B"]
    for tree in ("A", "B"):
        env = out["environments"][tree]
        assert {"git_sha", "src_sha256", "numpy", "blas_threads"} <= env.keys()
    for run, tree in zip(out["runs"], ("A", "B")):
        assert (run["workload"], run["pair"], run["tree"], run["returncode"]) == ("mc_mean", 1, tree, 0)
        summary = json.loads(run["summary"])
        assert run["correct"] is summary["correct"] is True
        assert run["metrics"] == {k: v["value"] for k, v in summary["metrics"].items()}
        assert set(run["metrics"]) == set(END_TO_END)
        detail = json.loads((tmp_path / ".bench_out" / "ab-t" / run["detail"]).read_text())
        assert detail["workload"] == "mc_mean" and detail["metrics"] == run["metrics"]
    stats = out["stats"]["mc_mean"]
    assert set(stats) == set(END_TO_END)
    for name, s in stats.items():
        a, b = (r["metrics"][name] for r in out["runs"])
        assert s["A"] == {"median": a, "q1": a, "q3": a, "n": 1}
        assert s["B"] == {"median": b, "q1": b, "q3": b, "n": 1}
        assert (s["b_lower"], s["pairs"]) == (int(b < a), 1)
    assert stats["task_s"]["unit"] == "s" and stats["peak_rss_mb"]["unit"] == "MB"


@pytest.mark.parametrize("body", [
    'print(\'{"correct": false, "attempted": 1, "failed": 1, '
    '"metrics": {"task_s": {"value": 1.0, "unit": "s"}}}\')',
    "raise SystemExit(3)",
], ids=["not_correct", "no_summary"])
def test_a_run_that_is_not_correct_exits_1(tmp_path, body):
    stub = tmp_path / "stub"
    (stub / "perfbench").mkdir(parents=True)
    (stub / "perfbench" / "run.py").write_text(body + "\n", encoding="utf-8")
    done = _bench_ab(tmp_path, "--src", stub, "--src", stub, "--workload", "mc_mean",
                     "--pairs", 2, "--seconds", 1, "--label", "stub")
    assert done.returncode == 1, done.stderr
    out = json.loads((tmp_path / "BENCH_stub.json").read_text(encoding="utf-8"))
    assert out["order"] == ["mc_mean:1:A", "mc_mean:1:B", "mc_mean:2:B", "mc_mean:2:A"]
    assert [r["correct"] for r in out["runs"]] == [False] * 4 and out["all_correct"] is False
