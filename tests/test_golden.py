"""Golden outputs: fixed command lines must write byte-identical artifacts.

Each case runs ``fastgrad.cli.main`` into a fresh directory and compares the
sha256 of every artifact it writes. summary.json is hashed without its
``wall_time_s`` field, the only entry that is not a function of the inputs.
A digest that moves means the algorithm, its oracle counts or the output
format changed; update it only together with a note saying why.
"""

import csv
import hashlib
import json

import pytest

from fastgrad.cli import main

ILL = "quadratic:1000.0,0.1"
EPS = ["--eps-rel", repr(2.0**-20), "--x0", "gaussian", "--seed", "7"]

CASES = {
    "acgm": (
        ["run", "--problem", ILL, "--method", "acgm", "--l0", "1000", *EPS],
        0,
        {
            "trace.csv": "21d80e86781ad60a7d85256a479eecc598a0d7bd892b476ae9497dd71322e8c0",
            "summary.json": "cf3639deffd9ee469676a8e94230d819e48fae66618867561c3b07da56a7bccc",
        },
    ),
    "algm-l0-over": (
        ["run", "--problem", ILL, "--method", "algm", "--l0", "64000", *EPS],
        0,
        {
            "trace.csv": "8b1cae8ee76946024414dc451f8e534be5b0aaf6975a766b21212c7615debccf",
            "summary.json": "3f9c0d87c2f183940d0fd5bdcf0b9e6fdfa164f752f5e153d6f31fff9a50fe66",
        },
    ),
    "algm-l0-under": (
        ["run", "--problem", ILL, "--method", "algm", "--l0", "3", *EPS],
        0,
        {
            "trace.csv": "dfba0038dca2a5be613bc05864d5f1fa447a33d16e8dfca3df78b4ec93411e37",
            "summary.json": "070e75b0926ce816c84d5f951286a06aa58eac518b2ccfd81f9143b599505c28",
        },
    ),
    "ugm": (
        ["run", "--problem", "quadratic:50.0,1.0", "--method", "ugm", "--l0", "7", *EPS],
        0,
        {
            "trace.csv": "8c39a7d6dfd4ba5e9edfbfff1ac74e5c05d37ea0bc57e3e0ff46ebe9f0033cb4",
            "summary.json": "b2a15be8d1785a37515f549388ab2955281050898a6c1d8532b8cc5a221abf59",
        },
    ),
    "ogmg_repeated": (
        ["run", "--problem", ILL, "--method", "ogmg_repeated", "--l0", "1000", "--mu0", "0.1", *EPS],
        0,
        {
            "trace.csv": "99556b39a1f45bc8d59a0306e0b99bdfdb7059f2525ee000abe7043b6a543fc0",
            "summary.json": "1116ec94cc50b95fa686c795620ba7e4c7c88177b815660b6d1beed1b18ab299",
        },
    ),
    "ogmg": (
        ["run", "--problem", ILL, "--method", "ogmg:40", "--l0", "1000", "--eps-rel", "0.05", "--x0", "gaussian", "--seed", "7"],
        0,
        {
            "trace.csv": "7bc7a8ce1ec4534034dc2c466f30cabe76f4f3c8526bce17777103d909e23386",
            "summary.json": "b562b2bcaac086c78be1820f4bbb8c55528024323c117a4ef2e8704f2ced6df6",
        },
    ),
    "acgm-budget-exhausted": (
        ["run", "--problem", ILL, "--method", "acgm", "--l0", "1000", "--max-grad-calls", "200", *EPS],
        2,
        {
            "trace.csv": "94320d70d652d70e83584a59694e28976f8d6b5b57a5c1c215109124b0d5679d",
            "summary.json": "7c1eb9676f54553d5abb6ca4696d3f5f053d1b9a3f851af3c5b5f03ee69f6a4f",
        },
    ),
    "logreg-algm": (
        ["run", "--problem", "logreg:60,40,0.01,3", "--method", "algm", "--l0", "1000", *EPS],
        0,
        {
            "trace.csv": "ec448c2ac8eb7bad3e8a8631a8bff86acc33b22b2442f7a94b0011e565c2202e",
            "summary.json": "d6271919e27c6654d7278f97ebf91f8d857386108716288dd6788a4d453480ca",
        },
    ),
    "sweep-L": (
        ["sweep", "--problem", "quadratic:100.0,1.0", "--method", "acgm", "--l0", "100",
         "--axis", "L", "--values", "1e2,1e3,1e4", "--reps", "2", *EPS],
        0,
        {
            "sweep.csv": "db85f79536bc824b7b0b58916b1167f35468fe3695765967ef2c7b3ac532ccd1",
        },
    ),
    "sweep-mu0-ogmg_repeated": (
        ["sweep", "--problem", ILL, "--method", "ogmg_repeated", "--l0", "1000",
         "--axis", "mu0", "--values", "0.01,0.1,1", *EPS],
        0,
        {
            "sweep.csv": "d3846689e78fd983567aaeb9725487a45436046d7caf77a32765dc184cfed02e",
        },
    ),
    "compare-4": (
        ["compare", "--problem", ILL, "--l0", "1000", *EPS,
         "--spec", "acgm", "--spec", "algm;l0=5", "--spec", "ugm", "--spec", "ogmg_repeated;mu0=0.1"],
        0,
        {
            "compare.csv": "46e467cd52547acc77fe7915466e6ef298407916553c4a3eaf77d3250b543558",
        },
    ),
}


def digest(path) -> str:
    if path.name == "summary.json":
        summary = json.loads(path.read_text())
        del summary["wall_time_s"]
        data = json.dumps(summary, indent=2).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name, tmp_path, capsys):
    argv, exit_code, expected = CASES[name]
    assert main([*argv, "--out", str(tmp_path)]) == exit_code
    capsys.readouterr()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(expected)
    assert {name: digest(tmp_path / name) for name in written} == expected


def test_baseline_mu0_sweep_rows_differ_by_value(tmp_path, capsys):
    # the known-constants baseline runs at each point's mu0, so no two rows repeat one solve
    argv, _, _ = CASES["sweep-mu0-ogmg_repeated"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    with open(tmp_path / "sweep.csv", newline="") as fh:
        calls = [row["total_grad_calls"] for row in csv.DictReader(fh)]
    assert len(calls) == len(set(calls)) == 3
