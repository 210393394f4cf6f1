"""Stored `--no-meta` reports of small commands.

Each JSON file in tests/golden holds the argv of one `loopfiber` command,
the report it wrote, for `obstruction` the CSV sweep, and under "inputs"
the names of the tests/golden/inputs files the argv reads.  The test copies
those files into the working directory, runs the argv again through
`cli.main` and compares:

  * keys, integers, booleans and strings exactly;
  * floats to 1e-12 relative, or within an absolute ceiling for the fields
    named in ABS_CEILINGS, whose values sit at roundoff or are differences
    of unit-scale numbers, so their last bits follow the BLAS and the CPU.

The input files are built by numpy alone, so they do not move with the
package under test, and stored:

  * ellipse.csv, for the `--loop` cases: the curve x1 = 0.1 + 1.2 cos 2 pi t,
    x2 = -0.2 + 0.7 sin 2 pi t sampled at t = j/37, written with the `repr`
    of each float;
  * the rest by `write_inputs_from_numpy` below: a coefficient loop for
    `project`, a frame and a filtration window of one loop for
    `subspace-loop`, a filtration window of an n = 3 loop of negative
    determinant winding, and two families for `audit`, one with a single
    window at every point and one whose windows all differ.

A change that alters an answer on purpose rewrites the reports with

    PYTHONPATH=src python tests/test_golden.py

(`--inputs` first rebuilds the input files) and names the changed reports
in CHANGES.md.
"""

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from loopfiber import cli

from util import haar_unitary

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
REL_TOL = 1e-12
# absolute ceilings on |got - want| for the floats under these keys
ABS_CEILINGS = {
    "holonomy": 1e-12,          # entries of a unitary matrix
    "refinement_delta": 1e-12,  # norm of a difference of two holonomies
    "raw_drift": 1e-13,         # ||E + E^H + E^H E|| of the raw chain
    "unitarity_defect": 1e-14,
    "residuals": 1e-13,         # twistcheck round trips, at roundoff
    "shift_residual": 1e-13,    # audit axiom (a), at roundoff
    "variations": 1e-13,        # reduced transitions, constant to roundoff
    "max_variation": 1e-13,
    "element": 1e-12,           # coefficients of a rebuilt unitary loop
    "constants": 1e-12,         # entries of reduced unitary transitions
    "re": 1e-12,                # CSV holonomy parts
    "im": 1e-12,
}


def write_inputs(golden):
    """Copy the input files a case reads into the current directory."""
    for name in golden.get("inputs", ()):
        Path(name).write_bytes((INPUTS / name).read_bytes())


def product(*loops):
    """{k: block} of the pointwise product of matrix loops {k: block}."""
    out = loops[0]
    for loop in loops[1:]:
        terms = {}
        for a, A in out.items():
            for b, B in loop.items():
                terms[a + b] = terms.get(a + b, 0) + A @ B
        out = terms
    return out


def adjoint(loop):
    """The pointwise adjoint, the inverse of a unitary loop."""
    return {-k: A.conj().T for k, A in loop.items()}


def pairs(blocks):
    """The file spelling {"k": [re, im] lists} of the nonzero blocks."""
    return {str(k): np.stack([A.real, A.imag], axis=-1).tolist()
            for k, A in sorted(blocks.items()) if A.any()}


def column(loop, j):
    n = len(next(iter(loop.values())))
    return {"n": n, "coeffs": pairs({k: A[:, j] for k, A in loop.items()})}


def zpowers(*powers):
    """diag(z^p_1, ..., z^p_n) as {k: block}."""
    return {p: np.diag([float(q == p) for q in powers]) for p in set(powers)}


def twisted(V, W):
    """V diag(1, z) W diag(1, z) with constant V, W: det winds twice, and
    its z^1 block is invertible, so the loop rebuilt from its window is
    unique (loopgroup._canonical_basis_rotation)."""
    z = {0: np.diag([1.0, 0.0]), 1: np.diag([0.0, 1.0])}
    return product({0: V}, z, {0: W}, z)


def family(loops, rng, depth=2):
    """The cycle over the windows of `loops`, with transitions
    g_y U_e g_x^-1 for Haar U_e."""
    m = len(loops)
    edges = [[x, (x + 1) % m] for x in range(m)]
    return {
        "points": list(range(m)),
        "edges": edges,
        "psi": [{"generators": [column(g, j) for j in range(2)],
                 "depth": depth} for g in loops],
        "transitions": [
            {"n": 2, "mcoeffs": pairs(product(
                loops[y], {0: haar_unitary(2, rng)}, adjoint(loops[x])))}
            for x, y in edges],
    }


def write_inputs_from_numpy():
    """Write the inputs of the `project`, `subspace-loop` and `audit`
    cases into tests/golden/inputs."""
    rng = np.random.default_rng(2024)
    loop = {k: rng.standard_normal(2) + 1j * rng.standard_normal(2)
            for k in range(-2, 4)}
    files = {"loop-n2.json": {"n": 2, "coeffs": pairs(loop)}}

    # an orthonormal frame of g . span{z^p e_j : p <= 2}, by numpy's QR of
    # the stacked coefficients of the z^p g e_j
    g = twisted(haar_unitary(2, rng), haar_unitary(2, rng))
    depth, width = 2, 5
    M = np.zeros((width, 2, 2 * (depth + 1)), dtype=complex)
    for p in range(depth + 1):
        for k, A in g.items():
            M[k + p, :, 2 * p:2 * p + 2] = A
    Q, R = np.linalg.qr(M.reshape(2 * width, -1))
    Q = (Q * (np.diagonal(R) / np.abs(np.diagonal(R)))).reshape(width, 2, -1)
    files["frame-n2.json"] = {"n": 2, "columns": [
        {"n": 2, "coeffs": pairs(dict(enumerate(Q[..., c])))}
        for c in range(Q.shape[2])]}
    # the window of the same g as a filtration file: its two columns
    files["filtration-n2.json"] = {
        "generators": [column(g, j) for j in range(2)], "depth": depth}

    # one window at every point; then windows of V R(t_x) diag(1, z) W
    # diag(1, z) W_x, which differ bit for bit and span nearby subspaces
    V, W = haar_unitary(2, rng), haar_unitary(2, rng)
    files["family-constant.json"] = family([twisted(V, W)] * 3, rng)
    loops = []
    for x in range(4):
        c, s = np.cos(0.05 * x), np.sin(0.05 * x)
        loops.append(product(twisted(V @ np.array([[c, -s], [s, c]]), W),
                             {0: haar_unitary(2, rng)}))
    files["family-distinct.json"] = family(loops, rng)

    # the window of V diag(1, 1/z, 1/z^2) W diag(1/z^2, 1/z, 1), drawn from
    # its own generator so that the files above keep their bytes: n = 3,
    # band (-4, 0), det winding -6, and a z^-2 block V diag(W) that is
    # invertible, so the rebuilt loop is unique
    rng = np.random.default_rng(7)
    g = product({0: haar_unitary(3, rng)}, zpowers(0, -1, -2),
                {0: haar_unitary(3, rng)}, zpowers(-2, -1, 0))
    files["filtration-n3.json"] = {
        "generators": [column(g, j) for j in range(3)], "depth": 2}
    for name, data in files.items():
        (INPUTS / name).write_text(json.dumps(data, sort_keys=True) + "\n")
        print(name, file=sys.stderr)


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
    assert len(CASES) == 17
    assert sum(p.stat().st_size for p in GOLDEN.rglob("*")
               if p.is_file()) < 100_000


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
    if sys.argv[1:] == ["--inputs"]:
        write_inputs_from_numpy()
    rewrite()
