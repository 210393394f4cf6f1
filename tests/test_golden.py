"""Stored `--no-meta` reports of small transport commands.

Each JSON file in tests/golden holds the argv of one `loopfiber` command,
the report it wrote, for `obstruction` the CSV sweep, and under "inputs"
the names of the tests/golden files the argv reads.  The test copies those
files into the working directory, runs the argv again through `cli.main`
and compares:

  * keys, integers, booleans and strings exactly;
  * floats to 1e-12 relative, or within an absolute ceiling for the fields
    named in ABS_CEILINGS, whose values sit at roundoff or are differences
    of unit-scale numbers, so their last bits follow the BLAS and the CPU.

The `--loop` cases read ellipse.csv, the curve x1 = 0.1 + 1.2 cos 2 pi t,
x2 = -0.2 + 0.7 sin 2 pi t sampled by numpy at t = j/37 and written with
the `repr` of each float.

A change that alters an answer on purpose rewrites the files with

    PYTHONPATH=src python tests/test_golden.py

and names the changed reports in CHANGES.md.
"""

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import pytest

from loopfiber import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-12
# absolute ceilings on |got - want| for the floats under these keys
ABS_CEILINGS = {
    "holonomy": 1e-12,          # entries of a unitary matrix
    "refinement_delta": 1e-12,  # norm of a difference of two holonomies
    "raw_drift": 1e-13,         # ||E + E^H + E^H E|| of the raw chain
    "unitarity_defect": 1e-14,
    "residuals": 1e-13,         # twistcheck round trips, at roundoff
    "re": 1e-12,                # CSV holonomy parts
    "im": 1e-12,
}


def write_inputs(golden):
    """Copy the input files a case reads into the current directory."""
    for name in golden.get("inputs", ()):
        Path(name).write_bytes((GOLDEN / name).read_bytes())


def run_case(argv):
    """(exit code, report, CSV text or None) of one argv, run in the
    current directory; a `--csv` path is relative to it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    csv_text = None
    if "--csv" in argv:
        with open(argv[argv.index("--csv") + 1]) as fh:
            csv_text = fh.read()
    return code, json.loads(out.getvalue()), csv_text


def assert_matches(got, want, path="", ceiling=0.0):
    """`got` equals `want` as the module docstring says; `path` names the
    field in a failure."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}/{key}",
                           ABS_CEILINGS.get(key, ceiling))
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]", ceiling)
    elif isinstance(want, float):
        assert type(got) is float, path
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ceiling), (
            path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def csv_rows(text):
    """The header and the rows of a `s,re,im` sweep, as {column: value}."""
    header, *rows = text.splitlines()
    keys = header.split(",")
    return keys, [dict(zip(keys, map(float, row.split(",")))) for row in rows]


CASES = sorted(p.stem for p in GOLDEN.glob("*.json"))


def test_golden_directory_is_small():
    assert len(CASES) == 10
    assert sum(p.stat().st_size for p in GOLDEN.iterdir()) < 100_000


@pytest.mark.parametrize("name", CASES)
def test_report_matches_golden(name, tmp_path, monkeypatch):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    monkeypatch.chdir(tmp_path)
    write_inputs(golden)
    code, report, csv_text = run_case(golden["argv"])
    assert code == 0
    assert_matches(report, golden["report"])
    assert (csv_text is None) == (golden["csv"] is None)
    if csv_text is not None:
        got_keys, got = csv_rows(csv_text)
        want_keys, want = csv_rows(golden["csv"])
        assert got_keys == want_keys
        assert_matches(got, want, "csv")


def rewrite():
    """Run every stored argv again and store its report and CSV."""
    for path in sorted(GOLDEN.glob("*.json")):
        golden = json.loads(path.read_text())
        write_inputs(golden)
        code, report, csv_text = run_case(golden["argv"])
        for name in golden.get("inputs", ()):
            os.remove(name)
        if code != 0:
            raise SystemExit(f"{path.name}: exit {code}")
        if csv_text is not None:
            os.remove(golden["argv"][golden["argv"].index("--csv") + 1])
        golden.update(report=report, csv=csv_text)
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(path.name, file=sys.stderr)


if __name__ == "__main__":
    rewrite()
