"""End-to-end checks of the command line: exit codes, report schemas,
determinism, and file outputs.  Everything runs in process through main()
except one subprocess test for the module entry point.
"""

import argparse
import cmath
import ctypes
import decimal
import gc
import itertools
import json
import math
import os
import platform
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopfiber import cli, decomp, fourier, loopgroup, subspaces, transport
from loopfiber.errors import PhaseStepTooLarge
from loopfiber.loopgroup import (diag_zpowers, identity_element,
                                 loop_from_subspace, multiply, random_loop,
                                 unitarity_defect, window_frame)

from util import haar_unitary


def run_cli(capsys, args):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def plus_filtration_dict(n, depth=3):
    gens = tuple(fourier.basis_loop(n, component=i) for i in range(n))
    return subspaces.filtration_to_dict(
        subspaces.FiltrationSubspace(gens, depth))


def winding_cycle_dict(seed=5):
    """A model family whose closing transition winds once, so that no
    finite variation tolerance conjugates it to constants."""
    rng = np.random.default_rng(seed)
    cocycle = [np.eye(2), haar_unitary(2, rng), haar_unitary(2, rng)]
    fam = decomp.build_model_decomposition(cocycle, depth=3)
    transitions = list(fam.transitions)
    transitions[-1] = multiply(diag_zpowers([1, 0]), transitions[-1])
    return decomp.family_to_dict(decomp.SubspaceFamily(
        fam.points, fam.edges, fam.psi, tuple(transitions)))


def golden_family():
    """The checked-in constant family of the golden audit, as a dict."""
    return json.loads((Path(__file__).parent / "golden" / "inputs"
                       / "family-constant.json").read_text())


def shifted_transition(fam, K):
    """A family dict with its first transition multiplied by z^K."""
    first = fam["transitions"][0]
    mcoeffs = {str(int(k) + K): c for k, c in first["mcoeffs"].items()}
    return {**fam, "transitions": [{**first, "mcoeffs": mcoeffs},
                                   *fam["transitions"][1:]]}


class TestProject:
    def setup_method(self):
        self.loop = fourier.TruncatedLoop(
            2, {-2: [0.3j, 0.0], -1: [1.0, 0.25], 0: [0.5, 0.5j],
                3: [0.0, -0.7]})

    def test_inline_split(self, capsys, tmp_path):
        src = write_json(tmp_path / "loop.json",
                         fourier.loop_to_dict(self.loop))
        code, rep = run_cli(capsys, ["project", src, "--no-meta"])
        assert code == 0
        assert rep["schema"] == cli.SCHEMA == 2
        assert rep["command"] == "project"
        total = rep["norms"]["plus"] ** 2 + rep["norms"]["minus"] ** 2
        assert math.isclose(total, rep["norms"]["input"] ** 2, rel_tol=1e-12)
        plus = fourier.loop_from_dict(rep["plus"])
        minus = fourier.loop_from_dict(rep["minus"])
        assert min(plus.band) >= 0
        assert max(minus.band) < 0
        # the split is a partition of the coefficient dict, so re-summing
        # must reproduce the input exactly, not just approximately
        resum = plus + minus
        assert resum.coeffs.keys() == self.loop.coeffs.keys()
        for k in resum.coeffs:
            assert np.array_equal(resum.coeffs[k], self.loop.coeffs[k])

    def test_output_files(self, capsys, tmp_path):
        src = write_json(tmp_path / "loop.json",
                         fourier.loop_to_dict(self.loop))
        prefix = str(tmp_path / "out")
        code, rep = run_cli(capsys,
                            ["project", src, "--no-meta", "-o", prefix])
        assert code == 0
        assert "plus" not in rep and "minus" not in rep
        with open(prefix + ".json") as fh:
            assert json.load(fh) == rep
        with open(rep["files"]["plus"]) as fh:
            plus = fourier.loop_from_dict(json.load(fh))
        with open(rep["files"]["minus"]) as fh:
            minus = fourier.loop_from_dict(json.load(fh))
        resum = plus + minus
        for k in self.loop.coeffs:
            assert np.array_equal(resum.coeffs[k], self.loop.coeffs[k])

    def test_no_meta_is_byte_identical(self, capsys, tmp_path):
        src = write_json(tmp_path / "loop.json",
                         fourier.loop_to_dict(self.loop))
        prefix = str(tmp_path / "out")
        outs, stdouts = [], []
        for _ in range(2):
            code = cli.main(["project", src, "--no-meta", "-o", prefix])
            assert code == 0
            stdouts.append(capsys.readouterr().out)
            with open(prefix + ".json", "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]
        assert stdouts[0] == stdouts[1]

    @pytest.mark.parametrize("coeffs, empty", [
        ({"0": [[2.0, 0.0]], "3": [[0.0, 1.0]]}, "minus"),
        ({"-1": [[2.0, 0.0]]}, "plus"),
        ({}, "minus")])
    def test_zero_half_reported(self, capsys, tmp_path, coeffs, empty):
        src = write_json(tmp_path / "loop.json", {"n": 1, "coeffs": coeffs})
        code, rep = run_cli(capsys, ["project", src, "--no-meta"])
        assert code == 0
        assert rep[empty] == {"n": 1, "coeffs": {}}
        assert rep["norms"][empty] == 0.0

    def test_meta_present_by_default(self, capsys, tmp_path):
        src = write_json(tmp_path / "loop.json",
                         fourier.loop_to_dict(self.loop))
        code, rep = run_cli(capsys, ["project", src])
        assert code == 0
        assert "timestamp" in rep["meta"]

    def test_malformed_json_exit2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert cli.main(["project", str(bad), "--no-meta"]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_wrong_shape_exit2(self, capsys, tmp_path):
        src = write_json(tmp_path / "notloop.json", {"foo": 1})
        assert cli.main(["project", src, "--no-meta"]) == 2

    def test_non_finite_coefficient_exit2(self, capsys, tmp_path):
        src = tmp_path / "nan.json"
        src.write_text('{"n": 1, "coeffs": {"0": [[NaN, 0.0]]}}')
        assert cli.main(["project", str(src), "--no-meta"]) == 2
        assert capsys.readouterr().out == ""

    def test_coefficient_list_exit2(self, capsys, tmp_path):
        src = write_json(tmp_path / "list.json",
                         {"n": 1, "coeffs": [[1.0, 0.0]]})
        assert cli.main(["project", src, "--no-meta"]) == 2
        assert capsys.readouterr().out == ""

    def test_oversized_integer_coefficient_exit2(self, capsys, tmp_path):
        # a 400-digit literal is beyond the double range, so the decoder
        # refuses it as it refuses 1e400
        src = tmp_path / "huge.json"
        src.write_text('{"n": 1, "coeffs": {"0": [[' + "9" * 400
                       + ', 0.0]]}}')
        assert cli.main(["project", str(src), "--no-meta"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {src} is not valid JSON: ")

    def test_ragged_block_names_its_frequency(self, capsys, tmp_path):
        src = write_json(tmp_path / "ragged.json", {"n": 2, "coeffs": {
            "0": [[1.0, 0.0], [0.0, 0.0]], "1": [[1.0], [0.0, 1.0]]}})
        assert cli.main(["project", src, "--no-meta"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: not a coefficient loop file: "
                                "coefficient at k=1 is not [re, im] pairs\n")

    def test_non_number_leaf_exit2(self, capsys, tmp_path):
        # float() would read "2" and true as 2 + 1i
        src = write_json(tmp_path / "leaf.json",
                         {"n": 1, "coeffs": {"0": [["2", True]]}})
        assert cli.main(["project", src, "--no-meta"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: not a coefficient loop file: coefficient at k=0 holds a "
            "value that is not a number\n")

    def test_band_too_wide_exit2(self, capsys, tmp_path):
        src = write_json(tmp_path / "wide.json", {"n": 1, "coeffs": {
            "-1000000000000": [[1.0, 0.0]], "1000000000000": [[1.0, 0.0]]}})
        assert cli.main(["project", src, "--no-meta"]) == 2
        assert capsys.readouterr().out == ""

    def test_missing_file_exit2(self, capsys, tmp_path):
        assert cli.main(["project", str(tmp_path / "gone.json"),
                         "--no-meta"]) == 2


class TestSubspaceLoop:
    def test_plus_window_gives_identity(self, capsys, tmp_path):
        src = write_json(tmp_path / "filt.json", plus_filtration_dict(2))
        code, rep = run_cli(capsys, ["subspace-loop", src, "--no-meta"])
        assert code == 0
        assert rep["status"] == "ok"
        assert rep["det_winding"] == 0
        assert rep["unitarity_defect"] < 1e-8
        mc = rep["element"]["mcoeffs"]
        assert list(mc) == ["0"]
        const = np.array([[complex(re, im) for re, im in row]
                          for row in mc["0"]])
        assert np.linalg.norm(const - np.eye(2)) < 1e-8

    def test_defect_certified_once(self, capsys, tmp_path, monkeypatch):
        # one certificate grid is sampled, and the report carries the
        # defect the loop kept from it
        src = write_json(tmp_path / "filt.json", plus_filtration_dict(2))
        sampled = []
        certificate_samples = loopgroup._certificate_samples

        def recorded(g):
            sampled.append(g)
            return certificate_samples(g)

        monkeypatch.setattr(loopgroup, "_certificate_samples", recorded)
        code, rep = run_cli(capsys, ["subspace-loop", src, "--no-meta"])
        assert code == 0 and len(sampled) == 1
        assert rep["unitarity_defect"] == unitarity_defect(sampled[0])[0]
        assert len(sampled) == 1  # the loop's kept certificate

    def test_shifted_window_winds_once(self, capsys, tmp_path):
        gens = (fourier.basis_loop(1, frequency=1),)
        src = write_json(
            tmp_path / "filt.json",
            subspaces.filtration_to_dict(
                subspaces.FiltrationSubspace(gens, 3)))
        code, rep = run_cli(capsys, ["subspace-loop", src, "--no-meta"])
        assert code == 0
        assert rep["det_winding"] == 1

    def test_frequency_beyond_int64_exit4(self, capsys, tmp_path):
        frame = {"n": 1, "columns": [
            {"n": 1, "coeffs": {str(10 ** 30): [[1.0, 0.0]]}}]}
        src = write_json(tmp_path / "frame.json", frame)
        assert cli.main(["subspace-loop", src, "--no-meta"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "certificate grid" in captured.err

    def test_symmetric_window_exit3(self, capsys, tmp_path):
        g = fourier.TruncatedLoop(
            1, {1: [1 / math.sqrt(2)], -1: [1 / math.sqrt(2)]})
        src = write_json(
            tmp_path / "sym.json",
            subspaces.filtration_to_dict(subspaces.FiltrationSubspace((g,), 3)))
        code, rep = run_cli(capsys, ["subspace-loop", src, "--no-meta"])
        assert code == 3
        assert rep["status"] == "failed"
        assert rep["element"] is None
        assert "intersection dimension" in rep["diagnostic"]

    def test_frame_input_equivalent(self, capsys, tmp_path):
        filt = subspaces.FiltrationSubspace(
            tuple(fourier.basis_loop(2, component=i) for i in range(2)), 3)
        frame = subspaces.expand_filtration(filt)
        src = write_json(tmp_path / "frame.json",
                         subspaces.frame_to_dict(frame))
        code, rep = run_cli(capsys, ["subspace-loop", src, "--no-meta"])
        assert code == 0
        assert rep["subspace_dim"] == frame.dim
        assert rep["det_winding"] == 0

    def test_neither_filtration_nor_frame_exit2(self, capsys, tmp_path):
        src = write_json(tmp_path / "other.json", {"n": 1, "depth": 2})
        assert cli.main(["subspace-loop", src, "--no-meta"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: not a subspace file: expected a filtration file "
            "(generators/depth) or a frame file (n/columns)\n")

    def test_rank_deficient_exit2(self, capsys, tmp_path):
        g = fourier.basis_loop(1)
        src = write_json(
            tmp_path / "dup.json",
            subspaces.filtration_to_dict(
                subspaces.FiltrationSubspace((g, g), 2)))
        assert cli.main(["subspace-loop", src, "--no-meta"]) == 2

    @pytest.mark.parametrize("n, depth, named", [
        (1.9, 2, "n"), (1, 2.7, "depth")])
    def test_fractional_integer_field_exit2(self, capsys, tmp_path, n, depth,
                                            named):
        # int() would truncate 1.9 to 1 and 2.7 to 2
        src = write_json(tmp_path / "filt.json", {
            "generators": [{"n": n, "coeffs": {"0": [[1, 0]]}}],
            "depth": depth})
        assert cli.main(["subspace-loop", src, "--no-meta"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: not a subspace file: {named} must be an integer")

    def test_depth_override(self, capsys, tmp_path):
        src = write_json(tmp_path / "filt.json", plus_filtration_dict(1, 3))
        code, rep = run_cli(capsys,
                            ["subspace-loop", src, "--depth", "5",
                             "--no-meta"])
        assert code == 0
        assert rep["subspace_dim"] == 6

    @pytest.mark.parametrize("file_depth, option", [
        (2 ** 62, []), (1, ["--depth", str(2 ** 62)])])
    def test_huge_depth_exit2(self, capsys, tmp_path, file_depth, option):
        # refused by the band check before the shifted family is built
        src = write_json(tmp_path / "filt.json",
                         plus_filtration_dict(1, file_depth))
        assert cli.main(["subspace-loop", src, *option, "--no-meta"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "frequencies" in err

    def test_depth_over_entry_budget_exit2(self, capsys, tmp_path):
        # two generators in C^2 at depth 3000: 6002 members of 6002 entries
        src = write_json(tmp_path / "filt.json", plus_filtration_dict(2, 1))
        assert cli.main(["subspace-loop", src, "--depth", "3000",
                         "--no-meta"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "more than 16777216" in err

    def test_depth0_window_rebuilds_loop(self, capsys, tmp_path):
        g = random_loop(2, 2, seed=0)
        src = write_json(tmp_path / "filt.json", subspaces.filtration_to_dict(
            subspaces.FiltrationSubspace([g.column(j) for j in range(2)], 0)))
        code, rep = run_cli(capsys, ["subspace-loop", src, "--no-meta"])
        assert code == 0 and rep["status"] == "ok"
        assert rep["subspace_dim"] == 2
        assert rep["det_winding"] == loopgroup.det_winding(g)

    def test_winding_past_the_largest_grid(self, capsys, tmp_path):
        # 8 n max|k| = 65544 points would be past 2^16; the winding is read
        # from the band of the certified loop
        g = loopgroup.diag_zpowers([2731, 0, 0])
        src = write_json(tmp_path / "filt.json", subspaces.filtration_to_dict(
            subspaces.FiltrationSubspace([g.column(j) for j in range(3)], 0)))
        code, rep = run_cli(capsys, ["subspace-loop", src, "--no-meta"])
        assert code == 0 and rep["status"] == "ok"
        assert rep["unitarity_defect"] < 1e-14
        assert rep["det_winding"] == 2731

    def test_depth_on_frame_file_exit2(self, capsys, tmp_path):
        # a frame file has no depth to override
        frame = subspaces.expand_filtration(subspaces.filtration_from_dict(
            plus_filtration_dict(1, 3)))
        src = write_json(tmp_path / "frame.json",
                         subspaces.frame_to_dict(frame))
        assert cli.main(["subspace-loop", src, "--depth", "7",
                         "--no-meta"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "--depth" in err

    def test_unitarity_tol(self, capsys, tmp_path, monkeypatch):
        # a rebuilt loop is unitary only to roundoff, so a tolerance far
        # below it fails the certificate, which reads the constant per call
        frame = window_frame(random_loop(2, 2, seed=4), 3)
        src = write_json(tmp_path / "frame.json",
                         subspaces.frame_to_dict(frame))
        monkeypatch.setattr(loopgroup, "UNITARITY_TOL", 1e-300)
        code, rep = run_cli(capsys, ["subspace-loop", src, "--no-meta"])
        assert code == 3
        assert rep["status"] == "failed"
        assert "unitarity defect" in rep["diagnostic"]


class TestHolonomy:
    def test_abelian_circle_phase(self, capsys):
        code, rep = run_cli(capsys,
                            ["holonomy", "--preset", "abelian2d", "--B", "1.0",
                             "--circle", "1.0", "--N", "2048", "--no-meta"])
        assert code == 0
        re, im = rep["holonomy"][0][0]
        assert abs(complex(re, im) - cmath.exp(1j * math.pi)) < 1e-6
        assert rep["unitarity_defect"] < 1e-10
        assert rep["refinement_delta"] < 1e-9

    def test_reports_corrected_and_raw_drift(self, capsys):
        # on the origin-centred circle abelian2d's -A is the constant i theta
        # N per unit time, theta = B pi r^2 / N, so every raw RK4 step
        # multiplies by R = 1 + z + z^2/2 + z^3/6 + z^4/24 at z = i theta and
        # the raw chain ends with the largest drift, 1 - |R|^(2N)
        B, r, N = 1.0, 1.0, 16
        code, rep = run_cli(capsys,
                            ["holonomy", "--preset", "abelian2d", "--B", "1.0",
                             "--circle", "1.0", "--N", str(N), "--no-meta"])
        assert code == 0 and rep["schema"] == 2
        z = 1j * B * math.pi * r * r / N
        R = 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24
        assert rep["raw_drift"] == pytest.approx(1 - abs(R) ** (2 * N),
                                                 rel=1e-9)
        frame = transport.parallel_transport(
            transport.abelian2d(B), transport.BaseLoop.circle(r), N=N)
        assert rep["raw_drift"] == frame.raw_defect
        # the corrected frame is unitary to roundoff
        assert rep["unitarity_defect"] == frame.unitarity_defect()
        assert rep["unitarity_defect"] <= 4 * np.finfo(float).eps
        assert rep["raw_drift"] > 1e-6

    def test_flat_identity(self, capsys):
        code, rep = run_cli(capsys,
                            ["holonomy", "--preset", "flat", "--n", "2",
                             "--N", "64", "--no-meta"])
        assert code == 0
        H = np.array([[complex(*z) for z in row] for row in rep["holonomy"]])
        assert np.linalg.norm(H - np.eye(2)) < 1e-12

    def test_loop_from_csv(self, capsys, tmp_path):
        path = str(tmp_path / "circle.csv")
        transport.save_loop_csv(transport.BaseLoop.circle(1.0), path, M=512)
        code, rep = run_cli(capsys,
                            ["holonomy", "--preset", "abelian2d",
                             "--loop", path, "--N", "1024", "--no-meta"])
        assert code == 0
        re, im = rep["holonomy"][0][0]
        assert abs(complex(re, im) - cmath.exp(1j * math.pi)) < 1e-5

    def test_monopole_latitude(self, capsys):
        u = math.pi / 2
        code, rep = run_cli(capsys,
                            ["holonomy", "--preset", "monopole", "--q", "1",
                             "--latitude", repr(u), "--N", "2048",
                             "--no-meta"])
        assert code == 0
        re, im = rep["holonomy"][0][0]
        assert abs(complex(re, im) - cmath.exp(-1j * math.pi)) < 1e-6

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_monopole_default_loop_is_the_equator(self, capsys, q):
        # no --latitude: the equator, enclosing solid angle 2 pi
        code, rep = run_cli(capsys,
                            ["holonomy", "--preset", "monopole", "--q", str(q),
                             "--N", "256", "--no-meta"])
        assert code == 0
        re, im = rep["holonomy"][0][0]
        gap = abs(complex(re, im) - cmath.exp(-1j * q * math.pi))
        assert gap <= 2 * rep["refinement_delta"] + 1e-12

    def test_dimension_mismatch_exit2(self, capsys):
        code = cli.main(["holonomy", "--preset", "su2sample",
                         "--latitude", "1.0", "--no-meta"])
        assert code == 2

    def test_bad_grid_exit2(self, capsys):
        assert cli.main(["holonomy", "--preset", "flat", "--N", "0",
                         "--no-meta"]) == 2

    def test_overflowing_form_exit2(self, capsys, tmp_path):
        # a finite loop so large that the abelian2d form overflows: the
        # non-finite samples are refused as input, not left to a traceback
        path = tmp_path / "big.csv"
        rows = ["t,x1,x2"] + [
            f"{j / 8!r},{1e300 * math.cos(j * math.pi / 4)!r},"
            f"{1e300 * math.sin(j * math.pi / 4)!r}" for j in range(8)]
        path.write_text("\n".join(rows) + "\n")
        code = cli.main(["holonomy", "--preset", "abelian2d",
                         "--loop", str(path), "--N", "16"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["holonomy", "--preset", "abelian2d", "--circle", "1e200"],
         "anti-Hermitian defect nan at t=0.000000"),
        (["twistcheck", "--preset", "abelian2d", "--circle", "1e200",
          "--N", "16", "--band", "1"],
         "anti-Hermitian defect nan at t=0.000000"),
        (["holonomy", "--preset", "su2sample", "--circle", "1e160",
          "--N", "16"],
         "anti-Hermitian defect nan at t=0.000000"),
        (["holonomy", "--preset", "abelian2d", "--loop", "huge.csv"],
         "cannot load loop from huge.csv: the spline through the sample "
         "points is not finite"),
        (["holonomy", "--preset", "flat", "--n", "2", "--circle", "1e308",
          "--N", "4"],
         "loop sample at t=0.000000 is not finite")],
        ids=["abelian2d", "twistcheck", "su2sample", "spline", "flat"])
    def test_overflowing_samples_exit2(self, capsys, monkeypatch, tmp_path,
                                       argv, message):
        # finite inputs whose loop, spline or form values overflow: one
        # error line, and warnings become errors, so a numpy warning on the
        # way to the refusal fails the test
        monkeypatch.chdir(tmp_path)
        Path("huge.csv").write_text(
            "t,x1,x2\n0,0,0\n0.25,1e308,0\n0.5,0,1e308\n0.75,-1e308,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv + ["--no-meta"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: " + message)
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("B, message", [
        ("1e300", "error: transport step at t=0.000000 is not finite (N=16)"),
        ("inf", "error: B must be finite")], ids=["overflow", "inf"])
    def test_overflowing_field_exit2(self, capsys, B, message):
        # warnings become errors, so a numpy overflow warning on the way to
        # the refusal fails the test
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["holonomy", "--preset", "abelian2d", "--B", B,
                             "--N", "16", "--no-meta"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1

    def test_overflowing_raw_chain_exit2(self, capsys):
        # the steps are finite at --B 1e20, but their never-corrected product
        # is not: the report names the raw chain and N, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["holonomy", "--preset", "abelian2d", "--B",
                             "1e20", "--N", "16", "--no-meta"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: the raw transport chain is not finite (N=16): the "
            "connection form is too large for the grid\n")

    def test_unwritable_output_exit2(self, capsys, tmp_path):
        # the report file is written before stdout, so a path that cannot
        # be written prints nothing and leaves no temp file behind
        out = str(tmp_path / "missing_dir" / "x.json")
        code = cli.main(["holonomy", "--preset", "flat", "--N", "8",
                         "--no-meta", "-o", out])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: cannot write")
        assert captured.out == ""
        assert list(tmp_path.rglob("*")) == []

    def test_output_directory_exit2(self, capsys, tmp_path):
        # a directory cannot be replaced by the report; the message names
        # the path given, not the temp file, and the temp file is removed
        out = tmp_path / "outdir"
        out.mkdir()
        code = cli.main(["holonomy", "--preset", "flat", "--N", "8",
                         "--no-meta", "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: cannot write {out}: Is a directory\n"
        assert list(tmp_path.rglob("*")) == [out]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
    def test_written_file_modes(self, capsys, tmp_path, umask, mode):
        # reports and CSVs get the mode open(path, "w") gives, not the
        # 0600 of their temp files
        report, csv = tmp_path / "report.json", tmp_path / "sweep.csv"
        old = os.umask(umask)
        try:
            assert cli.main(["holonomy", "--preset", "flat", "--N", "8",
                             "--no-meta", "-o", str(report)]) == 0
            assert cli.main(["obstruction", "--preset", "monopole", "--N",
                             "64", "--M", "8", "--no-meta", "--csv",
                             str(csv)]) == 0
        finally:
            os.umask(old)
        capsys.readouterr()
        assert stat.S_IMODE(report.stat().st_mode) == mode
        assert stat.S_IMODE(csv.stat().st_mode) == mode

    def test_nan_t_csv_exit2(self, capsys, tmp_path):
        path = tmp_path / "nan_t.csv"
        rows = ["t,x1,x2"] + [
            f"{'nan' if j == 3 else repr(j / 8)},"
            f"{math.cos(j * math.pi / 4)!r},{math.sin(j * math.pi / 4)!r}"
            for j in range(8)]
        path.write_text("\n".join(rows) + "\n")
        code = cli.main(["holonomy", "--preset", "abelian2d",
                         "--loop", str(path), "--N", "16", "--no-meta"])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot load loop from" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_coordinate_csv_exit2(self, capsys, tmp_path, value):
        path = tmp_path / "bad_x.csv"
        rows = ["t,x1,x2"] + [
            f"{j / 8!r},{value if j == 5 else repr(math.cos(j * math.pi / 4))},"
            f"{math.sin(j * math.pi / 4)!r}" for j in range(8)]
        path.write_text("\n".join(rows) + "\n")
        code = cli.main(["holonomy", "--preset", "abelian2d",
                         "--loop", str(path), "--N", "16", "--no-meta"])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot load loop from" in captured.err
        assert captured.out == ""

    def test_loop_from_csv_without_scipy(self, capsys, tmp_path, monkeypatch):
        # sampled loops are splined by numpy alone: a scipy import fails
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.interpolate", None)
        path = str(tmp_path / "circle.csv")
        transport.save_loop_csv(transport.BaseLoop.circle(1.0), path, M=64)
        code, rep = run_cli(capsys,
                            ["holonomy", "--preset", "abelian2d",
                             "--loop", path, "--N", "256", "--no-meta"])
        assert code == 0
        re, im = rep["holonomy"][0][0]
        assert abs(complex(re, im) - cmath.exp(1j * math.pi)) < 1e-4

    def test_report_file_matches_stdout(self, capsys, tmp_path):
        out = str(tmp_path / "rep.json")
        code, rep = run_cli(capsys,
                            ["holonomy", "--preset", "flat", "--N", "16",
                             "--no-meta", "-o", out])
        assert code == 0
        with open(out) as fh:
            assert json.load(fh) == rep


class TestObstruction:
    def test_monopole_winding_and_csv(self, capsys, tmp_path):
        csv = str(tmp_path / "sweep.csv")
        code, rep = run_cli(capsys,
                            ["obstruction", "--preset", "monopole", "--q", "1",
                             "--N", "128", "--M", "32", "--csv", csv,
                             "--no-meta"])
        assert code == 0
        assert rep["winding"] == 1
        lines = open(csv).read().strip().splitlines()
        assert lines[0] == "s,re,im"
        assert len(lines) == 34
        s_end, re_end, im_end = (float(v) for v in lines[-1].split(","))
        assert s_end == 1.0
        assert abs(complex(re_end, im_end) - 1.0) < 1e-6

    @pytest.mark.parametrize("M, N", [(32, 32), (2, 8)],
                             ids=["32-32", "2-8"])
    def test_csv_is_the_winding_sweep(self, capsys, tmp_path, monkeypatch,
                                      M, N):
        # each holonomy is computed once, in one batched call of the M + 1
        # loops s = j / M, and the CSV holds them on that grid
        real_family, real_holonomy = transport.latitude_family(), \
            transport.holonomy
        made, hols, sizes = {}, {}, []

        def family(s):
            loop = real_family(s)
            made[id(loop)] = (s, loop)
            return loop

        def counted(conn, loops, N):
            h = real_holonomy(conn, loops, N)
            sizes.append(len(loops))
            for loop, hol in zip(loops, h):
                s = made[id(loop)][0]
                assert s not in hols
                hols[s] = complex(hol[0, 0])
            return h

        monkeypatch.setattr(transport, "latitude_family", lambda: family)
        monkeypatch.setattr(transport, "holonomy", counted)
        csv = str(tmp_path / "sweep.csv")
        code, rep = run_cli(capsys,
                            ["obstruction", "--preset", "monopole", "--q", "1",
                             "--N", str(N), "--M", str(M), "--csv", csv,
                             "--no-meta"])
        assert code == 0
        assert rep["winding"] == 1 and rep["M"] == M
        assert sizes == [M + 1] and len(hols) == M + 1
        rows = [line.split(",") for line in open(csv).read().splitlines()[1:]]
        assert [float(s) for s, _, _ in rows] == [j / M for j in range(M + 1)]
        assert [complex(float(re), float(im)) for _, re, im in rows] \
            == [hols[j / M] for j in range(M + 1)]
        # bit for bit the grid's own batch, run afresh
        grid = real_holonomy(transport.monopole(1),
                             [real_family(j / M) for j in range(M + 1)], N)
        assert [hols[j / M] for j in range(M + 1)] == grid[:, 0, 0].tolist()

    def test_winding_alone_transports_no_family(self, capsys, monkeypatch):
        # without --csv, the winding is read from the two end loops' step
        # offsets: no frame and no holonomy is computed
        calls = []

        def refuse(name):
            def call(*args, **kwargs):
                calls.append(name)
                raise AssertionError(name)
            return call

        for name in ("parallel_transport", "holonomy"):
            monkeypatch.setattr(transport, name, refuse(name))
        code, rep = run_cli(capsys,
                            ["obstruction", "--preset", "monopole", "--q", "2",
                             "--N", "256", "--M", "64", "--no-meta"])
        assert code == 0 and rep["winding"] == 2 and rep["csv"] is None
        assert calls == []

    def test_aliased_sweep_is_refined(self, capsys):
        # at q = 2 the three M = 2 samples all alias to 1; the winding is
        # read from the end transports' phases, not from the samples
        argv = ["obstruction", "--preset", "monopole", "--q", "2",
                "--M", "2", "--N", "64"]
        code, rep = run_cli(capsys, argv + ["--no-meta"])
        assert code == 0 and rep["winding"] == 2

    def test_meta_names_the_family_grid(self, capsys):
        # meta names the turns the winding was rounded from, q arg R(i
        # theta) / theta for the RK4 polynomial R and theta = 2 pi q / N,
        # and the step resolution theta they rest on; the CSV grid is M
        argv = ["obstruction", "--preset", "monopole", "--q", "3",
                "--M", "2", "--N", "64"]
        code, rep = run_cli(capsys, argv)
        assert code == 0 and rep["winding"] == 3
        theta = 6.0 * math.pi / 64
        z = 1j * theta
        R = 1.0 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24
        meta = rep["meta"]
        assert set(meta) == {"timestamp", "winding_turns", "step_resolution"}
        assert abs(meta["winding_turns"] - 3 * np.angle(R) / theta) < 1e-9
        assert abs(meta["step_resolution"] - theta) < 1e-12
        code, bare = run_cli(capsys, argv + ["--no-meta"])
        del rep["meta"]
        assert rep == bare

    def test_higher_charge(self, capsys):
        code, rep = run_cli(capsys,
                            ["obstruction", "--preset", "monopole", "--q", "2",
                             "--N", "256", "--M", "64", "--no-meta"])
        assert code == 0
        assert rep["winding"] == 2

    def test_unresolvable_phase_exit4(self, capsys, monkeypatch):
        def blow_up(*args, **kwargs):
            raise PhaseStepTooLarge("phase step stuck above pi/2")

        monkeypatch.setattr(cli.transport, "chern_winding", blow_up)
        code = cli.main(["obstruction", "--preset", "monopole",
                         "--no-meta"])
        assert code == 4
        assert "phase step" in capsys.readouterr().err

    def test_unconfirmable_family_grid_exit4(self, capsys, monkeypatch,
                                             tmp_path):
        # the CSV grid is bounded by cli.SWEEP_MAX_GRID = 4096: an M outside
        # [1, 4096] is a bad parameter (exit 2), refused before any
        # transport; 4096 is a grid like any other
        real, calls = transport._batch, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(transport, "_batch", counted)
        csv = str(tmp_path / "sweep.csv")
        for M, message in (("4097", "M must be between 1 and 4096"),
                           ("0", "M must be between 1 and 4096")):
            code = cli.main(["obstruction", "--preset", "monopole", "--M", M,
                             "--csv", csv, "--no-meta"])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err == f"error: {message}\n"
        assert calls == [] and not os.path.exists(csv)
        code, rep = run_cli(capsys,
                            ["obstruction", "--preset", "monopole", "--N", "8",
                             "--M", "4096", "--csv", csv, "--no-meta"])
        assert code == 0 and rep["winding"] == 1
        assert len(calls) == 2 and len(calls[1][1]) == 4097
        assert len(open(csv).read().splitlines()) == 4098

    def test_windings_fail_closed_on_a_scan(self, capsys, tmp_path):
        # every run reports the charge, or exits 4 with nothing on stdout
        codes = {}
        charges = [*range(-3, 41), 50, 60, 80, 100]
        for q, N in itertools.product(charges, (16, 64, 128, 256, 2048)):
            code = cli.main(["obstruction", "--preset", "monopole",
                             "--q", str(q), "--N", str(N), "--no-meta"])
            out = capsys.readouterr().out
            assert code in (0, 4), (q, N, code)
            if code == 0:
                assert json.loads(out)["winding"] == q, (q, N)
            else:
                assert out == "", (q, N)
            codes[q, N] = code
        # a winding counted from sampled family grids of M = 2 aliases to
        # 0, 0, 46 and 129 on these; the end transports resolve the first
        # two and refuse the others (steps of 2.95 and 2.45 > pi/2)
        assert [codes[6, 256], codes[100, 2048], codes[30, 64],
                codes[100, 256]] == [0, 0, 4, 4]
        # a CSV does not change the winding: M + 1 rows and the same report
        csv = str(tmp_path / "sweep.csv")
        for q, N, M in ((1, 16, 2), (6, 256, 2), (-3, 128, 8), (40, 2048, 64)):
            argv = ["obstruction", "--preset", "monopole", "--q", str(q),
                    "--N", str(N), "--M", str(M), "--no-meta"]
            code, rep = run_cli(capsys, argv + ["--csv", csv])
            assert code == codes[q, N] == 0, (q, N, M)
            assert len(open(csv).read().splitlines()) == M + 2
            code, bare = run_cli(capsys, argv)
            assert rep == {**bare, "csv": csv}

    def test_wrong_preset_exit2(self, capsys):
        with pytest.raises(SystemExit):
            # argparse itself rejects non-monopole presets here
            cli.main(["obstruction", "--preset", "flat", "--no-meta"])


class TestTwistcheck:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("band", range(7))
    def test_test_loop_is_the_per_frequency_draw(self, dim, band):
        # one draw for the band takes the stream a draw of the real, then
        # the imaginary parts per frequency took: the same coefficients bit
        # for bit, and the generator left where it was
        one, per_key = (np.random.default_rng(10 * band + dim)
                        for _ in range(2))
        loop = cli._random_loop(one, dim, band)
        old = fourier.TruncatedLoop(dim, {
            k: per_key.normal(size=dim) + 1j * per_key.normal(size=dim)
            for k in range(-band, band + 1)})
        assert (loop.n, loop.kmin) == (old.n, old.kmin) == (dim, -band)
        assert np.array_equal(loop.data.view(np.uint64),
                              old.data.view(np.uint64))
        assert np.array_equal(np.array(one.normal()).view(np.uint64),
                              np.array(per_key.normal()).view(np.uint64))

    def test_flat_machine_precision(self, capsys):
        code, rep = run_cli(capsys,
                            ["twistcheck", "--preset", "flat", "--n", "2",
                             "--N", "256", "--band", "3", "--seed", "1",
                             "--no-meta"])
        assert code == 0
        assert rep["all_ok"]
        assert all(r < 1e-10 for r in rep["residuals"].values())

    def test_su2_roundtrips(self, capsys):
        code, rep = run_cli(capsys,
                            ["twistcheck", "--preset", "su2sample",
                             "--circle", "1.3", "--N", "512", "--band", "4",
                             "--seed", "9", "--no-meta"])
        assert code == 0
        assert rep["failures"] == []
        assert rep["residuals"]["embed_roundtrip"] < 1e-8
        assert rep["residuals"]["rotation_equivariance"] < 1e-6

    def test_loop_and_rotated_loop_in_one_pass(self, capsys, monkeypatch):
        # one batched transport of the loop and of the loop rotated by N/4
        # steps, each sampled on its own nodes: the rotated frame is the
        # transport of the rotated loop alone, bit for bit
        real, runs = transport.parallel_transport, []

        def spy(conn, loops, N):
            frames = real(conn, loops, N)
            runs.append((conn, loops, N, frames))
            return frames

        monkeypatch.setattr(transport, "parallel_transport", spy)
        code, rep = run_cli(capsys,
                            ["twistcheck", "--preset", "su2sample", "--N",
                             "64", "--seed", "3", "--no-meta"])
        assert code == 0 and rep["all_ok"]
        assert len(runs) == 1
        conn, (loop, rotated), N, (_, rot_frame) = runs[0]
        ts = np.linspace(0.0, 0.5, 5)
        assert np.array_equal(rotated.point(ts), loop.point(ts + 0.25))
        alone = real(conn, loop.rotated(16 / 64), N)
        assert np.array_equal(rot_frame.Ts, alone.Ts)
        assert np.array_equal(rot_frame.samples, alone.samples)

    def test_field_that_overflows_raw_chain(self, capsys):
        # twistcheck never reads the raw chain, so the field of
        # TestHolonomy.test_overflowing_raw_chain_exit2 runs without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["twistcheck", "--preset", "abelian2d", "--B",
                             "1e20", "--N", "16", "--no-meta"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert json.loads(captured.out)["all_ok"]

    def test_impossible_tolerance_exit5(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "TWISTCHECK_TOLS", {
            k: t * 1e-18 for k, t in cli.TWISTCHECK_TOLS.items()})
        code, rep = run_cli(capsys,
                            ["twistcheck", "--preset", "flat", "--N", "64",
                             "--no-meta"])
        assert code == 5
        assert not rep["all_ok"]
        assert rep["failures"]

    def test_negative_seed_exit2(self, capsys):
        code = cli.main(["twistcheck", "--preset", "flat", "--N", "16",
                         "--seed", "-1", "--no-meta"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0\n"


    @pytest.mark.parametrize("N,code", [(8, 2), (9, 0)])
    def test_grid_must_resolve_the_band(self, capsys, N, code):
        # band 4 loops span 9 frequencies, which 8 grid points alias: the
        # run is refused before any transport instead of failing the
        # extend round trip
        got = cli.main(["twistcheck", "--preset", "flat", "--n", "2",
                        "--N", str(N), "--band", "4", "--no-meta"])
        captured = capsys.readouterr()
        assert got == code
        if code:
            assert captured.out == ""
            assert captured.err == ("error: N=8 cannot resolve the test "
                                    "loops' band 4: N must be at least "
                                    "2 band + 1\n")
        else:
            assert json.loads(captured.out)["all_ok"]

    @pytest.mark.parametrize("N,band", [(1, 0), (2, 0), (3, 1), (4, 1)])
    def test_quarter_turn_needs_four_steps(self, capsys, N, band):
        # the rotation check turns the loop by N // 4 steps; below N = 4 that
        # is no turn, and the frame was compared with its own copy (N = 3
        # read rotation_equivariance 0.0 and all_ok)
        code = cli.main(["twistcheck", "--preset", "abelian2d", "--B", "1e6",
                         "--band", str(band), "--N", str(N), "--no-meta"])
        captured = capsys.readouterr()
        if N < 4:
            assert code == 2
            assert captured.out == ""
            assert captured.err == (f"error: N={N} leaves no step for the "
                                    "quarter-turn rotation check: N must be "
                                    "at least 4\n")
        else:
            assert code == 0 and json.loads(captured.out)["all_ok"]

    def test_nan_residual_fails(self, capsys, monkeypatch):
        # a NaN residual is a failure, not a pass of `r > tol`
        def residuals(*args):
            return dict.fromkeys(cli.TWISTCHECK_TOLS, 0.0) | {
                "seam_residual": math.nan}

        monkeypatch.setattr(cli, "_twistcheck_residuals", residuals)
        argv = ["twistcheck", "--preset", "flat", "--N", "16", "--no-meta"]
        report, code = cli.cmd_twistcheck(cli._build_parser().parse_args(argv))
        assert code == 5
        assert report["failures"] == ["seam_residual"]
        assert not report["all_ok"]
        # standard JSON has no NaN, so the run itself is refused
        assert cli.main(argv) == 2
        assert capsys.readouterr().out == ""


class TestAudit:
    def make_model_family(self, seed=5):
        rng = np.random.default_rng(seed)
        cocycle = [np.eye(2), haar_unitary(2, rng), haar_unitary(2, rng)]
        return decomp.build_model_decomposition(cocycle, depth=3), cocycle

    def test_model_family_reduces(self, capsys, tmp_path):
        fam, cocycle = self.make_model_family()
        src = write_json(tmp_path / "fam.json", decomp.family_to_dict(fam))
        code, rep = run_cli(capsys, ["audit", src, "--no-meta"])
        assert code == 0
        assert rep["all_ok"]
        assert rep["audit"]["axioms_ok"]
        assert rep["audit"]["continuity_ok"]
        assert rep["reduction"]["max_variation"] < 1e-9
        for got, want in zip(rep["reduction"]["constants"], cocycle):
            G = np.array([[complex(*z) for z in row] for row in got])
            assert np.linalg.norm(G - want) < 1e-9

    def make_distinct_family(self, seed=6):
        """Four points whose windows are those of g W_x for Haar W_x:
        distinct generators spanning one window, and transitions
        g W_y U_e (g W_x)^-1, so the audit and the reduction pass."""
        rng = np.random.default_rng(seed)
        g = random_loop(2, 2, seed=seed)
        loops = [multiply(g, loopgroup.constant_element(haar_unitary(2, rng)))
                 for _ in range(4)]
        edges = tuple((i, (i + 1) % 4) for i in range(4))
        return decomp.SubspaceFamily(
            tuple(range(4)), edges,
            tuple(subspaces.FiltrationSubspace(
                [h.column(j) for j in range(2)], 3) for h in loops),
            tuple(multiply(loops[j], multiply(
                loopgroup.constant_element(haar_unitary(2, rng)),
                loopgroup.inverse(loops[i]))) for i, j in edges))

    def count_calls(self, monkeypatch, name, wrapped):
        """The arguments of every call of decomp.<name>, which runs
        `wrapped`."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(decomp, name, counted)
        return calls

    def test_loops_built_once_per_window(self, capsys, tmp_path,
                                         monkeypatch):
        # the model family has one window at every point and builds one
        # loop; four distinct windows build one each
        calls = self.count_calls(monkeypatch, "loop_from_subspace",
                                 loop_from_subspace)
        for fam, loops in [(self.make_model_family()[0], 1),
                           (self.make_distinct_family(), 4)]:
            calls.clear()
            src = write_json(tmp_path / "fam.json", decomp.family_to_dict(fam))
            code, rep = run_cli(capsys, ["audit", src, "--no-meta"])
            assert code == 0 and rep["reduction"]["max_variation"] < 1e-9
            assert len(calls) == loops

    def test_one_factorization_per_window(self, capsys, tmp_path,
                                          monkeypatch):
        # the depth-P window is taken from the depth-(P+1) frame, once per
        # distinct window
        calls = self.count_calls(monkeypatch, "expand_filtration",
                                 subspaces.expand_filtration)
        for fam, windows in [(self.make_model_family()[0], 1),
                             (self.make_distinct_family(), 4)]:
            calls.clear()
            src = write_json(tmp_path / "fam.json", decomp.family_to_dict(fam))
            code, rep = run_cli(capsys, ["audit", src, "--no-meta"])
            assert code == 0 and rep["all_ok"]
            assert [depth for _, depth in calls] == [4] * windows

    def test_windows_apart_by_a_zero_sign_not_merged(self, capsys, tmp_path,
                                                     monkeypatch):
        # e1 and e1 with -0.0 in place of its zero entry compare equal as
        # numbers but are two windows; the file keeps the sign
        calls = self.count_calls(monkeypatch, "expand_filtration",
                                 subspaces.expand_filtration)
        e2 = fourier.basis_loop(2, component=1)
        psi = tuple(subspaces.FiltrationSubspace(
            (fourier.TruncatedLoop(2, {0: [1.0, zero]}), e2), 3)
            for zero in (0.0, -0.0))
        fam = decomp.SubspaceFamily((0, 1), ((0, 1),), psi)
        src = write_json(tmp_path / "fam.json", decomp.family_to_dict(fam))
        code, rep = run_cli(capsys, ["audit", src, "--no-meta"])
        assert code == 0 and rep["all_ok"]
        assert len(calls) == 2
        assert [math.copysign(1.0, f.generators[0].data[0, 1].real)
                for f, _ in calls] == [1.0, -1.0]

    def test_rank_deficient_window_raises_at_its_point(self, capsys,
                                                       tmp_path, monkeypatch):
        # the repeated window is audited once; the dependent window after it
        # raises, and the window past that is never reached
        calls = self.count_calls(monkeypatch, "expand_filtration",
                                 subspaces.expand_filtration)
        e1 = fourier.basis_loop(2)
        good = plus_filtration_dict(2, depth=3)
        dup = subspaces.filtration_to_dict(
            subspaces.FiltrationSubspace((e1, e1), 1))
        later = plus_filtration_dict(2, depth=5)
        src = write_json(tmp_path / "fam.json", {
            "points": [0, 1, 2, 3], "edges": [[0, 1], [1, 2], [2, 3]],
            "psi": [good, good, dup, later], "transitions": None})
        assert cli.main(["audit", src, "--no-meta"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "rank deficient" in err
        assert [depth for _, depth in calls] == [4, 2]

    def test_winding_cycle_exit5(self, capsys, tmp_path):
        fam, _ = self.make_model_family()
        # replace the closing transition with a once-winding loop, which
        # cannot be conjugated to a constant
        transitions = list(fam.transitions)
        transitions[-1] = multiply(diag_zpowers([1, 0]), transitions[-1])
        bad = decomp.SubspaceFamily(fam.points, fam.edges, fam.psi,
                                    tuple(transitions))
        src = write_json(tmp_path / "bad.json", decomp.family_to_dict(bad))
        code, rep = run_cli(capsys, ["audit", src, "--no-meta"])
        assert code == 5
        assert not rep["all_ok"]
        assert rep["audit"]["axioms_ok"]
        red = rep["reduction"]
        assert red["winding_sum"] == 1
        assert red["variation"] > 0.1
        assert "failed" in red

    @pytest.mark.parametrize("mcoeffs,defect", [
        ({}, "1.414e+00"),                                 # ||0 - I||
        ({"0": [[[2, 0], [0, 0]], [[0, 0], [2, 0]]]}, "4.243e+00"),  # 2 I
    ])
    def test_nonunitary_transition_exit2(self, capsys, tmp_path, mcoeffs,
                                         defect):
        # the golden constant family with transition 0 replaced by a loop
        # outside LU(n), refused before it is reduced
        fam = golden_family()
        fam["transitions"][0]["mcoeffs"] = mcoeffs
        src = write_json(tmp_path / "fam.json", fam)
        assert cli.main(["audit", src, "--no-meta"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: transition 0 on edge (0, 1) is not "
                                f"unitary: defect {defect}\n")

    @pytest.mark.parametrize("eps,defect", [(1e-9, None),
                                            (1e-7, "2.175e-07")])
    def test_transition_certificate(self, capsys, tmp_path, eps, defect):
        # eps I z^64 moves the reduced transition by eps sqrt 2, within the
        # variation tolerance, and leaves its mean unitary, but it puts
        # c_0 + eps I z^64 about 2 eps off unitary: only the transition's
        # own certificate refuses it
        fam = golden_family()
        fam["transitions"][0]["mcoeffs"]["64"] = [[[eps, 0], [0, 0]],
                                                  [[0, 0], [eps, 0]]]
        src = write_json(tmp_path / "fam.json", fam)
        code = cli.main(["audit", src, "--no-meta"])
        captured = capsys.readouterr()
        if defect is None:
            assert code == 0 and json.loads(captured.out)["all_ok"]
        else:
            assert code == 2 and captured.out == ""
            assert captured.err == (f"error: transition 0 on edge (0, 1) is "
                                    f"not unitary: defect {defect}\n")

    @pytest.mark.parametrize("K", [256, 1024])
    def test_transition_at_a_grid_multiple_exit5(self, capsys, tmp_path, K):
        # z^K c_0 winds 2K times more than c_0; with K a multiple of 256
        # it must not fold onto the mean of a 256-point grid
        fam = decomp.family_to_dict(self.make_model_family()[0])
        src = write_json(tmp_path / "fam.json", shifted_transition(fam, K))
        code, rep = run_cli(capsys, ["audit", src, "--no-meta"])
        assert code == 5 and not rep["all_ok"]
        assert rep["reduction"]["winding_sum"] == 2 * K
        assert rep["reduction"]["variation"] == pytest.approx(
            math.sqrt(2.0), abs=1e-9)

    def test_transition_beyond_int64_exit4(self, capsys, tmp_path):
        fam = decomp.family_to_dict(self.make_model_family()[0])
        src = write_json(tmp_path / "fam.json",
                         shifted_transition(fam, 10 ** 30))
        assert cli.main(["audit", src, "--no-meta"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "certificate grid" in captured.err

    def test_axiom_failure_exit5(self, capsys, tmp_path):
        g = fourier.TruncatedLoop(
            1, {1: [1 / math.sqrt(2)], -1: [1 / math.sqrt(2)]})
        psi = (subspaces.FiltrationSubspace((g,), 3),
               subspaces.FiltrationSubspace((g,), 3))
        fam = decomp.SubspaceFamily((0, 1), ((0, 1),), psi)
        src = write_json(tmp_path / "sym.json", decomp.family_to_dict(fam))
        code, rep = run_cli(capsys, ["audit", src, "--no-meta"])
        assert code == 5
        assert not rep["audit"]["axioms_ok"]
        assert rep["reduction"] is None

    def test_variation_tol(self, capsys, tmp_path, monkeypatch):
        # over windows twisted by a random loop the reduced transitions
        # vary by roundoff, far above 1e-300
        g = random_loop(2, 2, seed=23)
        window = subspaces.FiltrationSubspace(
            [g.column(j) for j in range(2)], 3)
        fam = decomp.SubspaceFamily((0, 1), ((0, 1), (1, 0)), (window,) * 2,
                                    (identity_element(2),) * 2)
        src = write_json(tmp_path / "fam.json", decomp.family_to_dict(fam))
        monkeypatch.setattr(decomp, "VARIATION_TOL", 1e-300)
        code, rep = run_cli(capsys, ["audit", src, "--no-meta"])
        assert code == 5
        assert rep["audit"]["axioms_ok"]
        assert "failed" in rep["reduction"]
        assert not rep["all_ok"]

    def test_dependent_generators_exit2(self, capsys, tmp_path):
        e1 = fourier.basis_loop(2)
        fam = decomp.SubspaceFamily(
            (0,), (), (subspaces.FiltrationSubspace((e1, e1), 1),))
        src = write_json(tmp_path / "dup.json", decomp.family_to_dict(fam))
        assert cli.main(["audit", src, "--no-meta"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "rank deficient" in err

    @pytest.mark.parametrize("edge", [[0.0, 1], [True, 1]])
    def test_non_integer_edge_exit2(self, capsys, tmp_path, edge):
        # [0.0, 1] used to crash in audit_family (exit 1); [true, 1] was
        # audited as the edge (1, 1) and reported as [true, 1]
        fam, _ = self.make_model_family()
        d = decomp.family_to_dict(fam)
        d["edges"][0] = edge
        src = write_json(tmp_path / "fam.json", d)
        assert cli.main(["audit", src, "--no-meta"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: not a family file: edge index must be an integer")

    def test_not_a_family_exit2(self, capsys, tmp_path):
        src = write_json(tmp_path / "junk.json", {"points": "nope"})
        assert cli.main(["audit", src, "--no-meta"]) == 2


def command_files():
    """A small valid input file for each command that reads one."""
    fam, _ = TestAudit().make_model_family()
    return {
        "project": fourier.loop_to_dict(fourier.TruncatedLoop(1, {0: [1.0]})),
        "subspace-loop": plus_filtration_dict(2),
        "audit": decomp.family_to_dict(fam),
    }


COMMAND_FILES = command_files()
# the path to one JSON-integer field of each command's file
INTEGER_FIELDS = {"project": ("n",), "subspace-loop": ("depth",),
                  "audit": ("edges", 0, 0)}
DEEP = 100_000


def with_integer_field(command, text):
    """The JSON of the command's valid file with `text` in place of the
    value of its integer field."""
    d = json.loads(json.dumps(COMMAND_FILES[command]))
    *path, last = INTEGER_FIELDS[command]
    node = d
    for key in path:
        node = node[key]
    node[last] = "FIELD"
    return json.dumps(d).replace('"FIELD"', text)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def midpoint_text(x):
    """The exact decimal halfway between x and the next double up."""
    with decimal.localcontext(decimal.Context(prec=2000)):
        return str((decimal.Decimal(x)
                    + decimal.Decimal(math.nextafter(x, math.inf))) / 2)


long_integers = st.builds(
    lambda sign, digits: sign + digits,
    st.sampled_from(["", "-"]),
    st.integers(1, 300).flatmap(
        lambda d: st.integers(10 ** (d - 1), 10 ** d - 1)).map(str))
number_texts = (
    finite_floats.map(repr)
    | finite_floats.map(lambda x: "%.17e" % x)
    | finite_floats.filter(
        lambda x: math.isfinite(math.nextafter(x, math.inf))).map(midpoint_text)
    | long_integers)


class TestInputDecoding:
    """Every input file goes through one strict decoder: what it refuses
    exits 2 naming the file, and the numbers it reads are float()'s."""

    def write(self, tmp_path, data):
        path = tmp_path / "input.json"
        path.write_bytes(data)
        return str(path)

    @pytest.mark.parametrize("command", list(COMMAND_FILES))
    @pytest.mark.parametrize("shape", ["closed", "open", "in-field"])
    def test_deep_nesting_exit2(self, capsys, tmp_path, command, shape):
        deep = "[" * DEEP + "]" * DEEP
        if shape == "closed":
            text = deep
        elif shape == "open":
            text = "[" * DEEP
        else:  # an integer field's error message reprs the value it refuses
            text = with_integer_field(command, deep)
        src = self.write(tmp_path, text.encode())
        assert cli.main([command, src, "--no-meta"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @given(st.lists(number_texts, min_size=1, max_size=40))
    @example(["5e-324", "-5e-324", "2.2250738585072009e-308", "-0.0",
              "1.7976931348623157e308", midpoint_text(0.0),
              midpoint_text(5e-324), midpoint_text(1.0),
              midpoint_text(2.0 ** 53), midpoint_text(1.7976931348623155e308),
              str(2 ** 63), str(2 ** 64 - 1), str(2 ** 64), str(-2 ** 63 - 1),
              str(2 ** 64 + 2 ** 11), "9" * 300, "1e-400", "1E+308"])
    def test_numbers_read_as_float_reads_them(self, tmp_path_factory, texts):
        path = tmp_path_factory.mktemp("leaves") / "leaves.json"
        path.write_text('{"x": [' + ", ".join(texts) + "]}")
        leaves, _ = cli._load_input(str(path), lambda d: d["x"], "leaf file")
        assert [float(v).hex() for v in leaves] == \
            [float(t).hex() for t in texts]

    @pytest.mark.parametrize("command", list(COMMAND_FILES))
    @pytest.mark.parametrize("token", [
        b"0", b"NaN", b"Infinity", b"-Infinity", b"1e400",
        pytest.param(b'"\xff"', id="invalid-utf8"),
        pytest.param(b'"\\ud800"', id="lone-surrogate"), b"BOM"])
    def test_strict_json(self, capsys, tmp_path, command, token):
        valid = json.dumps(COMMAND_FILES[command]).encode()
        if token == b"BOM":
            data = b"\xef\xbb\xbf" + valid
        else:
            data = valid[:-1] + b', "extra": ' + token + b"}"
        src = self.write(tmp_path, data)
        code = cli.main([command, src, "--no-meta"])
        captured = capsys.readouterr()
        if token == b"0":  # the same file with a valid extra field
            assert code == 0
            return
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {src} is not valid JSON: ")

    @pytest.mark.parametrize("command", list(COMMAND_FILES))
    def test_integer_beyond_64_bits_exit2(self, capsys, tmp_path, command):
        # the decoder reads 2**64 as the float 1.8446744073709552e+19
        src = self.write(tmp_path,
                         with_integer_field(command, str(2 ** 64)).encode())
        assert cli.main([command, src, "--no-meta"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            " must be an integer, got 1.8446744073709552e+19\n")

    @pytest.mark.parametrize("command", list(COMMAND_FILES))
    @pytest.mark.parametrize("top", ["[]", "1", '"x"', "null"])
    def test_not_an_object_exit2(self, capsys, tmp_path, command, top):
        src = self.write(tmp_path, top.encode())
        assert cli.main([command, src, "--no-meta"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected a JSON object" in captured.err

    @pytest.mark.parametrize("command, data, key", [
        ("project", {"n": 1, "columns": [COMMAND_FILES["project"]]}, "coeffs"),
        ("subspace-loop", {"generators":
                           COMMAND_FILES["subspace-loop"]["generators"]},
         "depth"),
        ("audit", {k: v for k, v in COMMAND_FILES["audit"].items()
                   if k != "psi"}, "psi")])
    def test_missing_key_named(self, capsys, tmp_path, command, data, key):
        src = write_json(tmp_path / "input.json", data)
        assert cli.main([command, src, "--no-meta"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        what = {"project": "coefficient loop file",
                "subspace-loop": "subspace file", "audit": "family file"}
        assert captured.err == (f"error: not a {what[command]}: "
                                f"missing key '{key}'\n")

    @pytest.mark.parametrize("command", list(COMMAND_FILES))
    def test_load_seconds_under_meta(self, capsys, tmp_path, command):
        src = write_json(tmp_path / "input.json", COMMAND_FILES[command])
        code, rep = run_cli(capsys, [command, src])
        assert code == 0
        assert type(rep["meta"]["load_s"]) is float
        assert rep["meta"]["load_s"] >= 0.0
        code, rep = run_cli(capsys, [command, src, "--no-meta"])
        assert code == 0
        assert "meta" not in rep


def collections_during(fn, *args):
    """(fn(*args), the number of garbage collections started meanwhile),
    counted from empty generations, so none is due when fn starts."""
    starts = []
    gc.collect()

    def spy(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(spy)
    try:
        return fn(*args), len(starts)
    finally:
        gc.callbacks.remove(spy)


def benchmark_frame_dict(rng, n=3, blocks=140, dim=27):
    """A frame file's dict the size of the benchmark's: `dim` orthonormal
    columns of `blocks` coefficient blocks each, from numpy alone (the
    Parseval pairing is the coefficients' dot product)."""
    z = rng.normal(size=(2, blocks * n, dim))
    q = np.linalg.qr(z[0] + 1j * z[1])[0].reshape(blocks, n, dim)
    pairs = np.stack([q.real, q.imag], axis=-1)  # (blocks, n, dim, 2)
    return {"n": n, "columns": [
        {"n": n, "coeffs": {str(k - blocks // 2): pairs[k, :, j].tolist()
                            for k in range(blocks)}}
        for j in range(dim)]}


class TestCollectorPause:
    """Input files decode with automatic garbage collection paused, and the
    collector is left as the caller had it."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        if request.param:
            gc.enable()
        else:
            gc.disable()
        yield request.param
        gc.enable()

    @pytest.mark.parametrize("case", ["ok", "missing", "invalid", "top-list",
                                      "parse-error", "deep"])
    def test_collector_state_restored(self, tmp_path, collector, case):
        path = tmp_path / "input.json"
        text = {
            "ok": json.dumps(COMMAND_FILES["project"]),
            "invalid": "{",
            "top-list": "[]",
            "parse-error": '{"n": 0, "coeffs": {}}',
            "deep": with_integer_field("project", "[" * DEEP + "]" * DEEP),
        }.get(case)
        if text is not None:
            path.write_text(text)
        if case == "ok":
            loop, load_s = cli._load_input(str(path), fourier.loop_from_dict,
                                           "coefficient loop file")
            assert loop.n == 1 and load_s >= 0.0
        else:
            with pytest.raises(cli.InputError):
                cli._load_input(str(path), fourier.loop_from_dict,
                                "coefficient loop file")
        assert gc.isenabled() is collector

    def test_benchmark_frame_decodes_without_collection(self, tmp_path):
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(
            benchmark_frame_dict(np.random.default_rng(0))))
        assert path.stat().st_size > 400_000
        assert gc.isenabled()
        (frame, _), collections = collections_during(
            cli._load_input, str(path), subspaces.frame_from_dict,
            "subspace file")
        assert frame.n == 3 and frame.dim == 27
        assert collections == 0
        assert gc.isenabled()

    def test_csv_loop_decodes_without_collection(self, tmp_path, collector):
        path = tmp_path / "loop.csv"
        t = np.arange(4096) / 4096
        path.write_text("t,x,y\n" + "".join(
            f"{s!r},{x!r},{y!r}\n" for s, x, y in zip(
                t.tolist(), np.cos(2 * np.pi * t).tolist(),
                np.sin(2 * np.pi * t).tolist())))
        args = argparse.Namespace(input=str(path), latitude=None)
        loop, collections = collections_during(
            cli._base_loop, args, transport.abelian2d(1.0))
        assert loop.d == 2
        assert collections == 0
        assert gc.isenabled() is collector

    def test_refused_csv_restores_collector(self, tmp_path, collector):
        path = tmp_path / "loop.csv"
        path.write_text("t,x,y\n0,1,0\n0.5,-1\n")
        args = argparse.Namespace(input=str(path), latitude=None)
        with pytest.raises(cli.InputError, match="ragged CSV rows"):
            cli._base_loop(args, transport.abelian2d(1.0))
        assert gc.isenabled() is collector


def reference_dump(report):
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


report_floats = st.floats(allow_nan=False, allow_infinity=False) | \
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e-300, 2.0 ** 63, 1e16,
                     -1e-6, 1.5e-5, 9.999999999999999e-05])


def floats_of_shape(shape):
    """Nested lists of floats, all of one rectangular shape."""
    s = report_floats
    for size in reversed(shape):
        s = st.lists(s, min_size=size, max_size=size)
    return s


shapes = st.lists(st.integers(1, 3), min_size=1, max_size=3)
float_arrays = shapes.flatmap(floats_of_shape)
# dicts of float arrays of one shape, as a report's coefficient dicts are;
# "-1", "-10" and "2" sort otherwise as strings than as numbers
float_array_dicts = shapes.flatmap(lambda shape: st.dictionaries(
    st.sampled_from(["-1", "-10", "2"]) | st.text(max_size=4),
    floats_of_shape(shape), min_size=1, max_size=5))


report_scalars = (st.none() | st.booleans() | report_floats | st.text()
                  | st.integers(-2 ** 70, 2 ** 70))
reports = st.recursive(
    report_scalars | float_arrays | float_array_dicts
    | st.lists(st.lists(report_floats, max_size=3), max_size=3),  # ragged
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=30)


class TestReportCollection:
    """A command builds, lays out and frees its report with the collector
    paused."""

    def test_subspace_loop_report_built_without_collection(self, tmp_path,
                                                           capsys):
        # the benchmark's n = 3, depth 8 window of a band-4 loop: its
        # element alone sets off collections when built with the collector
        # on, and none while the command runs
        frame = window_frame(random_loop(3, 4, seed=0), 8)
        src = write_json(tmp_path / "frame.json",
                         subspaces.frame_to_dict(frame))
        assert gc.isenabled()
        code, collections = collections_during(
            cli.main, ["subspace-loop", src, "--no-meta"])
        out = capsys.readouterr().out
        assert code == 0 and collections == 0
        assert gc.isenabled()
        report = json.loads(out)
        assert out == reference_dump(report)
        g = loopgroup.element_from_dict(report["element"])
        assert collections_during(loopgroup.element_to_dict, g)[1] > 0

    def test_collector_restored_on_refusal(self, tmp_path, capsys):
        src = write_json(tmp_path / "frame.json", {"n": 0, "columns": []})
        assert cli.main(["subspace-loop", src, "--no-meta"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert gc.isenabled()


class TestDump:
    @settings(max_examples=300)
    @given(reports)
    @example({"f": [-0.0, 5e-324, 1e-300], "i": [2 ** 64 + 1, -2 ** 63, 0],
              "mixed": [1, 2.0, [3.0, 4], [[5.0]]],
              "ragged": [[1.0], [2.0, 3.0]],
              "empty": [{}, [], [[]], [[1.0], []]],
              "flags": [True, False, None],
              "t\u00e9\n\"\\": "\u2028\x00\U0001f600",
              "nested": {"b": [[[1.5, -2.5]] * 2] * 3, "a": {}},
              "keys": [{2: "b", 1: [1.0]}, {0.5: 1, -1e300: 2},
                       {True: 1, 0: 2}, {None: 0}],
              "coeffs": {"-1": [[1e-6, 1.5e-5]], "-10": [[1e16, -0.0]],
                         "2": [[-9.999999999999999e-05, 1e-9]]},
              "blocks": {"a": [1.0], "b": [[2.0]], "c": [3, 4.0]}})
    # strings that json writes as the writer's stubs, beside float arrays
    # and float dicts, send the report to json alone
    @example({"s": "\x000", "a": [1.5, -0.0], "d": {"x": [1e-6], "y": [2.0]}})
    @example({"\x001": [[1.0, 2.0]], "d": {"p": [[3.0]], "q": [[4.0]]}})
    @example({'a"\x000': {"x": [1.0], "y": [2.0]}, "b": ["\x000", [5e-5]]})
    @example(["\x000", [1.0], {"\x001": [2.0], "z": [3.0]}])
    # a one-key float dict, and float arrays under keys that are not str
    @example({"one": {"k": [[1.0, 2.0]]}, "ints": {2: [1.0], -1: [2.0]},
              "floats": {0.5: [[3.0]], 1.5: [[4.0]]}, "none": {None: [1.0]}})
    def test_matches_json_indent_encoder(self, report):
        assert cli._dump(report) == reference_dump(report)

    # |x| where orjson's spelling differs from repr's, and their edges
    RESPELLED_EDGES = [
        1e-5, -1e-5, 9.999999999999999e-05, 1e-4, 1e-7, 1e-9, 1e-10,
        1e16, 9999999999999998.0, 1e21, 1e22, 5e-324,
        2.2250738585072014e-308, 1.7976931348623157e308, 0.0, -0.0]

    @settings(max_examples=300)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              allow_subnormal=True, width=64)
                    | st.sampled_from([0.0, -0.0]), min_size=1))
    @example(RESPELLED_EDGES)
    def test_float_texts_match_repr(self, xs):
        assert cli._float_texts(xs) == list(map(float.__repr__, xs))

    def test_float_texts_match_repr_on_random_bits(self):
        bits = np.random.default_rng(15).integers(
            0, 2 ** 64, size=200_000, dtype=np.uint64)
        values = bits.view(np.float64)
        xs = values[np.isfinite(values)].tolist()
        assert cli._float_texts(xs) == list(map(float.__repr__, xs))

    @pytest.mark.parametrize("command",
                             list(cli.HANDLERS) + ["project-respelled"])
    def test_real_reports_match_json(self, capsys, tmp_path, command):
        if command.startswith("project"):
            loop = fourier.TruncatedLoop(2, {-1: [1.0, -0.0], 2: [0.5j, 3.0]})
            if command == "project-respelled":
                # coefficients and norms in every range that orjson spells
                # otherwise than repr: |x| >= 1e16, 1e-9 <= |x| < 1e-5 and
                # 1e-5 <= |x| < 1e-4
                loop = fourier.TruncatedLoop(2, {
                    -3: [2.5e16 - 1e-6j, 1.25e-5], 0: [-3e-7j, 9e-9],
                    4: [-9.999999999999999e-05, 1e-9 + 1e-5j]})
            argv = ["project", write_json(tmp_path / "loop.json",
                                          fourier.loop_to_dict(loop))]
        elif command == "subspace-loop":
            frame = window_frame(random_loop(2, 2, seed=4), 3)
            argv = [command, write_json(tmp_path / "frame.json",
                                        subspaces.frame_to_dict(frame))]
        elif command == "audit":
            argv = [command, write_json(tmp_path / "fam.json",
                                        winding_cycle_dict())]
        elif command == "obstruction":
            argv = [command, "--preset", "monopole", "--N", "64", "--M", "16"]
        else:
            argv = [command, "--preset", "su2sample", "--N", "256"]
        args = cli._build_parser().parse_args(argv + ["--no-meta"])
        report, _ = cli.HANDLERS[argv[0]](args)
        text = reference_dump(report)
        assert cli._dump(report) == text
        cli.main(argv + ["--no-meta"])
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize("newline", ["\n", "\n  ", "\n      "])
    def test_array_layout_matches_json(self, newline):
        for depth in range(1, 5):
            for shape in itertools.product((1, 2, 3), repeat=depth):
                text = json.dumps(np.zeros(shape).tolist(), indent=2)
                want = tuple(text.replace("\n", newline).split("0.0"))
                assert cli._array_layout(newline, shape) == want

    @pytest.mark.parametrize("report", [
        {"a": [[1.0, math.inf], [2.0, 3.0]]},
        {"a": [1, 2.0, [math.nan]]},
        {"a": {"b": {"c": -math.inf}}},
        {"a": [{"b": math.nan}]},
        {math.nan: 1.0},
        {"mcoeffs": {"0": [[1.0, math.nan]], "1": [[2.0, 3.0]]}},
    ])
    def test_non_finite_exit2(self, capsys, monkeypatch, tmp_path, report):
        with pytest.raises(ValueError):
            reference_dump(report)
        monkeypatch.setitem(cli.HANDLERS, "holonomy", lambda args: (report, 0))
        out = tmp_path / "report.json"
        argv = ["holonomy", "--preset", "flat", "--no-meta", "-o", str(out)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: Out of range float values are not JSON compliant")
        assert not out.exists()


class TestOptions:
    # values at or past the edge of each checked option's range
    REFUSED = {
        "N": [0], "M": [0, 4097], "depth": [-1], "band": [-1], "n": [0],
        "radius": [0.0, math.inf], "latitude": [0.0, math.pi], "seed": [-1],
        "B": [math.inf, -math.inf], "q": [2 ** 53 + 1, -2 ** 53 - 1],
    }

    def test_table_names_parser_options(self):
        parser = cli._build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for p in subparsers.choices.values()
                 for a in p._actions}
        names = [name for name, _, _ in cli._OPTION_CHECKS]
        assert set(names) <= dests
        assert set(names) == set(self.REFUSED)
        for name, _, message in cli._OPTION_CHECKS:
            for value in self.REFUSED[name] + [math.nan]:
                with pytest.raises(cli.InputError, match=f"^{message}$"):
                    cli._check_options(argparse.Namespace(**{name: value}))
        for argv in (["subspace-loop", "f.json", "--depth", "0"],
                     ["twistcheck", "--preset", "flat", "--band", "0",
                      "--N", "1"],
                     ["obstruction", "--preset", "monopole", "--N", "1",
                      "--M", "1"]):
            cli._check_options(parser.parse_args(argv))
        cli._check_options(argparse.Namespace(q=2 ** 53))
        cli._check_options(argparse.Namespace(q=-2 ** 53))

    @pytest.mark.parametrize("command", ["holonomy", "obstruction"])
    def test_charge_past_a_float_exit2(self, capsys, command):
        # a charge no float holds is refused, not left to overflow in the
        # monopole form
        code = cli.main([command, "--preset", "monopole", "--q",
                         "1" + "0" * 400, "--no-meta"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("error: q must be at most 9007199254740992 "
                                "in absolute value\n")

    def test_band_bounded_by_the_widest_loop(self):
        # --band B gives loops of 2 B + 1 frequencies, at most MAX_BAND_WIDTH
        widest = (fourier.MAX_BAND_WIDTH - 1) // 2
        assert widest == 524287
        cli._check_options(argparse.Namespace(band=widest))
        with pytest.raises(cli.InputError,
                           match="^band must be between 0 and 524287$"):
            cli._check_options(argparse.Namespace(band=widest + 1))

    @pytest.mark.parametrize("argv", [
        ["holonomy", "--preset", "su2sample"],
        ["obstruction", "--preset", "monopole"],
        ["twistcheck", "--preset", "su2sample"]],
        ids=["holonomy", "obstruction", "twistcheck"])
    def test_grid_past_the_transport_bound_exit2(self, capsys, monkeypatch,
                                                 argv):
        # a grid no transport may take is refused before the connection
        # form is called, not left to fail allocating its stacks; the
        # holonomy command asks for its 2N refinement run first
        calls = self.spy_forms(monkeypatch)
        N = 10 ** 15
        code = cli.main(argv + ["--N", str(N), "--no-meta"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and calls == []
        n = 1 if argv[0] == "obstruction" else 2
        refined = argv[0] == "holonomy"
        door = (f"N={2 * N if refined else N} steps of n={n} exceed the "
                f"{transport.TRANSPORT_MAX_ENTRIES} matrix entries (n^2 N) "
                "one loop's transport may hold")
        assert captured.err == "error: " + (
            f"the holonomy command refines N={N} to 2N, and " + door
            if refined else door) + "\n"

    def test_refinement_grid_refused_up_front(self, capsys, monkeypatch):
        # N = 33 passes the door but its 2N = 66 run does not: refused
        # before the N frame is built, naming the N given
        calls = self.spy_forms(monkeypatch)
        monkeypatch.setattr(transport, "TRANSPORT_MAX_ENTRIES", 4 * 64)
        argv = ["holonomy", "--preset", "su2sample", "--no-meta", "--N"]
        assert cli.main(argv + ["32"]) == 0
        assert calls == [65, 64]  # the N run, then the 2N midpoints
        capsys.readouterr()
        calls.clear()
        code = cli.main(argv + ["33"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and calls == []
        assert captured.err == (
            "error: the holonomy command refines N=33 to 2N, and N=66 steps "
            "of n=2 exceed the 256 matrix entries (n^2 N) one loop's "
            "transport may hold\n")

    @pytest.mark.parametrize("command", ["holonomy", "twistcheck"])
    def test_fiber_past_the_transport_bound_exit2(self, capsys, monkeypatch,
                                                  command):
        # the bound counts n^2 entries per step, so a flat fiber too large
        # for one step is refused before anything n x n is allocated
        calls = self.spy_forms(monkeypatch)
        code = cli.main([command, "--preset", "flat", "--n", "1000000",
                         "--N", "16", "--no-meta"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and calls == []
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "n=1000000 exceed" in line

    @staticmethod
    def spy_forms(monkeypatch):
        """The node counts of every connection form call the presets'
        connections make from now on."""
        calls, presets = [], dict(cli._PRESETS)

        def spied(make):
            def build(args):
                conn = make(args)

                def form(x, v):
                    calls.append(len(x))
                    return conn.form(x, v)

                return transport.ConnectionSpec(conn.n, conn.d, form,
                                                conn.name)
            return build

        monkeypatch.setattr(cli, "_PRESETS",
                            {k: spied(make) for k, make in presets.items()})
        return calls

    def test_cached_parser_keeps_no_state(self):
        parser = cli._build_parser()
        assert cli._build_parser() is parser
        assert parser.parse_args(
            ["subspace-loop", "f.json", "--depth", "3"]).depth == 3
        args = parser.parse_args(["subspace-loop", "f.json"])
        assert args.depth is None and not args.no_meta

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("option, named", [
        ("--tol-scale", "tol-scale"), ("--variation-tol", "variation-tol"),
        ("--unitarity-tol", "unitarity-tol"), ("--circle", "radius")])
    def test_non_finite_refused(self, capsys, tmp_path, option, named, value):
        # the tolerance options are gone, so argparse refuses them before
        # any value is read: at --variation-tol inf the winding cycle can
        # no more be certified as reduced to constants
        if option == "--variation-tol":
            argv = ["audit", write_json(tmp_path / "fam.json",
                                        winding_cycle_dict())]
        elif option == "--unitarity-tol":
            frame = window_frame(random_loop(2, 2, seed=4), 3)
            argv = ["subspace-loop", write_json(
                tmp_path / "frame.json", subspaces.frame_to_dict(frame))]
        else:
            argv = ["twistcheck" if option == "--tol-scale" else "holonomy",
                    "--preset", "abelian2d", "--N", "64"]
        argv += ["--no-meta", f"{option}={value}"]
        if option == "--circle":
            code = cli.main(argv)
            captured = capsys.readouterr()
            assert code == 2
            assert f"error: {named} must be positive and finite" in captured.err
        else:
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            captured = capsys.readouterr()
            assert exc.value.code == 2
            assert f"unrecognized arguments: {option}={value}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("option", ["--unitarity-tol", "--variation-tol",
                                        "--tol-scale"])
    def test_tolerance_options_removed(self, capsys, tmp_path, option):
        # no option resets a certificate's tolerance: argparse refuses each
        # one on every subcommand, so the winding cycle exits 5 only
        fam = write_json(tmp_path / "fam.json", winding_cycle_dict())
        for argv in (["project", "f.json"], ["subspace-loop", "f.json"],
                     ["holonomy", "--preset", "flat", "--N", "8"],
                     ["obstruction", "--preset", "monopole"],
                     ["twistcheck", "--preset", "flat", "--N", "8"],
                     ["audit", fam]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + ["--no-meta", option, "10"])
            captured = capsys.readouterr()
            assert exc.value.code == 2 and captured.out == ""
            assert f"unrecognized arguments: {option} 10" in captured.err
        assert cli.main(["audit", fam, "--no-meta"]) == 5


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "loopfiber", "holonomy", "--preset",
             "flat", "--N", "8", "--no-meta"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["command"] == "holonomy"


GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"


class TestSteadyHeap:
    ARGV = ["holonomy", "--preset", "su2sample", "--N", "2048", "--no-meta"]

    @pytest.fixture(autouse=True)
    def fresh_helper(self):
        # the helper runs once per process; each test starts and ends with
        # it uncalled, so the next main() sets the real thresholds again
        cli._steady_heap.cache_clear()
        yield
        cli._steady_heap.cache_clear()

    @pytest.mark.skipif(not GLIBC, reason="glibc's allocator only")
    def test_repeated_command_faults_no_pages_in(self):
        # in a fresh process, so no earlier test has grown glibc's dynamic
        # thresholds: with its defaults the third run faults about 700
        # pages of transport stacks back in
        script = (
            "import contextlib, io, resource\n"
            "from loopfiber import cli\n"
            "def run():\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        assert cli.main({self.ARGV!r}) == 0\n"
            "run(); run()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt"
            " - before)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) <= 64

    @pytest.mark.parametrize("libc", ["missing", "no mallopt"])
    def test_runs_without_mallopt(self, capsys, monkeypatch, libc):
        assert cli.main(self.ARGV) == 0
        expected = capsys.readouterr().out
        cli._steady_heap.cache_clear()

        def cdll(name):
            if libc == "missing":
                raise OSError(f"{name}: cannot open shared object file")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert cli.main(self.ARGV) == 0
        assert capsys.readouterr().out == expected

    def test_sets_both_thresholds_once(self, capsys, monkeypatch):
        calls = []

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
        assert cli.main(self.ARGV) == 0
        assert cli.main(self.ARGV) == 0
        capsys.readouterr()
        # M_MMAP_THRESHOLD first: M_TRIM_THRESHOLD alone switches glibc's
        # dynamic mmap threshold off
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    def test_import_sets_nothing(self):
        script = (
            "import ctypes\n"
            "opened, real = [], ctypes.CDLL\n"
            "ctypes.CDLL = lambda name, *a, **k: ("
            "opened.append(name), real(name, *a, **k))[1]\n"
            "import loopfiber, loopfiber.transport, loopfiber.cli\n"
            "assert 'libc.so.6' not in opened, opened\n"
            "assert loopfiber.cli._steady_heap.cache_info().misses == 0\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
