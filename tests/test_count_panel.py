"""The committed oracle-count panel, COUNTS.md, is what scripts/count_panel.py prints.

The panel's logistic rows depend on the BLAS thread count, so the script runs
in a subprocess with it pinned to perfbench/expected.json's blas_threads, as
perfbench pins it. Its quad-sweep rows, and its algm row on the logistic
instance at 100 times the smoothness bound, must also equal the benchmark's
recorded quad-sweep and logreg-algm counts, so that the panel cannot drift from
the benchmark.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDED = json.loads((ROOT / "perfbench" / "expected.json").read_text())


def test_panel_reproduces_counts_md():
    threads = str(RECORDED["blas_threads"])
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "count_panel.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (ROOT / "COUNTS.md").read_text()

    # one row per reference call, acgm then algm, in expected.json's order
    rows = [line.split(" | ") for line in done.stdout.splitlines() if " | quad-sweep: " in line]
    recorded = RECORDED["workloads"]["quad-sweep"]
    assert [(int(row[5]), int(row[6])) for row in rows] == [(call["grad_evals"], call["value_evals"]) for call in recorded]

    # the logistic rows run algm at c = 1, 100 and 1e4 times the bound; c = 100 is the logreg-algm workload
    rows = [line.split(" | ") for line in done.stdout.splitlines() if line.startswith("| algm | logreg:300,3000,")]
    assert len(rows) == 3 and float(rows[1][2]) == 100.0 * float(rows[0][2])
    (call,) = RECORDED["workloads"]["logreg-algm"]
    assert (int(rows[1][5]), int(rows[1][6])) == (call["grad_evals"], call["value_evals"])
