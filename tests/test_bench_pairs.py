"""scripts/bench_pairs.py against stub checkouts whose perfbench/run.py
prints a fixed result line."""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
SPEC = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(root: Path, name: str, wall_s, correct: bool = True, failed: int = 0) -> Path:
    """A directory whose perfbench/run.py prints one result line; `wall_s` is
    one value, or a list whose i-th value the i-th seed from 5 reads."""
    values = wall_s if isinstance(wall_s, list) else [wall_s]
    line = {"correct": correct, "attempted": 4, "failed": failed, "metrics": {"wall_s": {"value": None}}}
    (root / name / "perfbench").mkdir(parents=True)
    (root / name / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        f"line, values = {line!r}, {values!r}\n"
        "seed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
        "line['metrics']['wall_s']['value'] = values[(seed - 5) % len(values)]\n"
        "print(json.dumps(line))\n")
    (root / name / "BENCHMARK.json").write_text(json.dumps(SPEC))
    return root / name


def bench(tmp_path, parent: Path, change: Path, pairs: int = 2) -> tuple[int, dict]:
    out = tmp_path / "bench.json"
    code = load_bench_pairs().main(["--parent", str(parent), "--change", str(change), "--workloads",
                                    f"canonical={pairs}", "--first-seed", "5", "--seconds", "1",
                                    "--parent-sha", "p" * 40, "--change-sha", "c" * 40, "-o", str(out)])
    return code, json.loads(out.read_text())


def test_bench_pairs_records_operations_per_side(tmp_path):
    code, doc = bench(tmp_path, checkout(tmp_path, "parent", 2.0), checkout(tmp_path, "change", 1.0))
    summary = doc["workloads"]["canonical"]["summary"]
    assert code == 0
    assert summary["operations"] == {"parent": {"attempted": 8, "failed": 0},
                                     "change": {"attempted": 8, "failed": 0}}
    assert summary["wall_s"]["change_wins"] == "2/2" and summary["wall_s"]["median_change_pct"] == -50.0


@pytest.mark.parametrize("side,correct,failed", [("change", True, 1), ("parent", False, 0)])
def test_bench_pairs_stops_on_a_failed_run(tmp_path, capsys, side, correct, failed):
    bad = {"correct": correct, "failed": failed}
    parent = checkout(tmp_path, "parent", 2.0, **(bad if side == "parent" else {}))
    change = checkout(tmp_path, "change", 1.0, **(bad if side == "change" else {}))
    code, doc = bench(tmp_path, parent, change)
    assert code == 1
    assert capsys.readouterr().err == (f"error: canonical seed 5: the {side} run reports correct: "
                                       f"{str(correct).lower()}, {failed} of 4 operations failed\n")
    # the failing pair is kept, and no pair runs after it
    assert doc["workloads"]["canonical"]["seeds"] == [5]
    assert doc["workloads"]["canonical"]["summary"]["operations"][side]["failed"] == failed


@pytest.mark.parametrize("parent,change,want", [
    ([1.0] * 4, [1.3] * 4, "worse"),  # median +30%, past the 25% bound
    ([1.0, 2.0] * 2, [1.5] * 4, "unresolved"),  # parent IQR 1.0, 67% of its median
    ([1.0, 2.0] * 2, [0.4] * 4, "better"),  # as wide, but every change run beats every parent run
    ([2.0] * 4, [1.0] * 4, "better"),
    ([1.0] * 4, [1.1] * 4, "within bound"),
    ([1.0] * 10, [0.9] * 8 + [1.1] * 2, "within bound"),  # a gain, but 8/10 pairs
])
def test_bench_pairs_verdict_per_metric(tmp_path, parent, change, want):
    code, doc = bench(tmp_path, checkout(tmp_path, "parent", parent), checkout(tmp_path, "change", change),
                      pairs=len(parent))
    summary = doc["workloads"]["canonical"]["summary"]["wall_s"]
    assert code == 0 and summary["verdict"] == want
    assert [r["parent"]["wall_s"] for r in doc["workloads"]["canonical"]["runs"]] == parent


def test_bench_pairs_records_each_sides_source_digest(tmp_path):
    parent, change = checkout(tmp_path, "parent", 2.0), checkout(tmp_path, "change", 1.0)
    for root, body in ((parent, b"A = 1\n"), (change, b"A = 2\n")):
        (root / "src" / "avoidkit").mkdir(parents=True)
        (root / "src" / "avoidkit" / "a.py").write_bytes(body)
        (root / "src" / "avoidkit" / "notes.txt").write_bytes(b"not source")
    code, doc = bench(tmp_path, parent, change)
    assert code == 0
    assert doc["parent_source_sha256"] == hashlib.sha256(b"a.py\0A = 1\n").hexdigest()
    assert doc["change_source_sha256"] == hashlib.sha256(b"a.py\0A = 2\n").hexdigest()


def test_bench_pairs_refuses_a_changed_benchmark_before_any_run(tmp_path, capsys):
    parent, change = checkout(tmp_path, "parent", 2.0), checkout(tmp_path, "change", 1.0)
    looser = {"end_to_end": [{**SPEC["end_to_end"][0], "bound": 0.5}]}
    (change / "BENCHMARK.json").write_text(json.dumps(looser))
    (change / "perfbench" / "run.py").write_text("raise SystemExit('must not run')\n")
    out = tmp_path / "bench.json"
    code = load_bench_pairs().main(["--parent", str(parent), "--change", str(change), "--workloads",
                                    "canonical=2", "--first-seed", "5", "--seconds", "1", "-o", str(out)])
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err.startswith(f"error: {change / 'BENCHMARK.json'} differs from "
                                              f"{parent / 'BENCHMARK.json'}")
