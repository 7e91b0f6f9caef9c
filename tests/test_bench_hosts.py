"""scripts/bench_hosts.py run on this repository against itself."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_hosts_runs_the_repo_against_itself(capsys):
    spec = importlib.util.spec_from_file_location("bench_hosts", ROOT / "scripts" / "bench_hosts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    try:
        code = module.main(["--parent", str(ROOT), "--change", str(ROOT), "--rounds", "1",
                            "--hosts", "petersen", "--ticks", "500"])
    finally:
        for name in [k for k in sys.modules if k.startswith(("avoidkit_parent", "avoidkit_change"))]:
            del sys.modules[name]
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("| petersen |")]
    assert code == 0 and len(rows) == 1
    assert "| cubic | 10 | 500 |" in rows[0] and "DIFFER" not in rows[0]
