"""The benchmark harness still runs against the program in src/.

perfbench/smoke.py is a script, not a test module, so pytest does not collect
it; this runs it as its own process from the root of the checkout.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_script_passes():
    run = subprocess.run(
        [sys.executable, "perfbench/smoke.py"], cwd=ROOT, capture_output=True, text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "smoke: ok" in run.stdout
