"""Each script under scripts/ runs to exit 0 and writes every CSV it reports."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script, extra arguments, number of CSV paths it prints
SCRIPTS = [
    ("scaling_sweeps.py", ["--eps-rel", "1e-3"], 4),
    ("convergence_traces.py", [], 12),
    ("method_comparisons.py", [], 3),
]


@pytest.mark.parametrize("script,extra,n_csv", SCRIPTS, ids=[s[0] for s in SCRIPTS])
def test_script_writes_reported_csvs(script, extra, n_csv, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out", str(tmp_path), *extra],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    reported = [Path(p) for p in re.findall(r"(\S+\.csv)$", proc.stdout, re.MULTILINE)]
    assert len(reported) == n_csv
    for path in reported:
        assert path.is_relative_to(tmp_path)
        assert path.is_file() and path.stat().st_size > 0
