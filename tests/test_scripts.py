"""Each script under scripts/ that writes CSVs runs to exit 0 and writes every CSV it reports;
the scaling script's spread family shows the adaptive methods paying about sqrt(kappa), ugm
nearer kappa; the benchmark history reader reads every committed BENCH_*.json."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# script, extra arguments, number of CSV paths it prints
SCRIPTS = [
    ("scaling_sweeps.py", ["--eps-rel", "1e-3"], 6),
    ("convergence_traces.py", [], 12),
    ("method_comparisons.py", [], 3),
]


def run_script(script, extra, out):
    """The script's stdout, after it exits 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out", str(out), *extra],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script,extra,n_csv", SCRIPTS, ids=[s[0] for s in SCRIPTS])
def test_script_writes_reported_csvs(script, extra, n_csv, tmp_path):
    stdout = run_script(script, extra, tmp_path)
    reported = [Path(p) for p in re.findall(r"(\S+\.csv)$", stdout, re.MULTILINE)]
    assert len(reported) == n_csv
    for path in reported:
        assert path.is_relative_to(tmp_path)
        assert path.is_file() and path.stat().st_size > 0


def test_spread_family_shows_the_comparison(tmp_path):
    # the accelerated adaptive methods pay about sqrt(kappa), the plain gradient method nearer kappa
    script, extra, _ = SCRIPTS[0]
    stdout = run_script(script, extra, tmp_path)
    slopes = {m: float(s) for m, s in re.findall(r"^spread (\w+): .*, slope (\S+)", stdout, re.MULTILINE)}
    assert slopes.keys() == {"acgm", "algm", "ugm", "ogmg_repeated"}
    assert slopes["acgm"] <= 1.2 and slopes["algm"] <= 1.2
    assert slopes["ugm"] >= 1.5


def test_bench_history_reads_every_committed_file():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_history.py")], capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    printed, marked = set(), set()
    for line in done.stdout.splitlines():
        entry = tuple(line[2:].split()[:3])  # file, workload, metric after the claim mark
        printed.add(entry)
        if line.startswith("*"):
            marked.add(entry)
    summaries, claims = set(), set()
    for path in ROOT.glob("BENCH_*.json"):
        bench = json.loads(path.read_text())
        summaries |= {(path.name, w, m) for w, body in bench["workloads"].items() for m in body["summary"]}
        if "claimed" in bench:  # BENCH_3.json has no claimed key
            claims.add((path.name, bench["claimed"]["workload"], bench["claimed"]["metric"]))
    assert printed == summaries
    assert marked == claims
