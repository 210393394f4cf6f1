"""End-to-end checks of the command line: exit codes, report schemas,
determinism, and file outputs.  Everything runs in process through main()
except one subprocess test for the module entry point.
"""

import argparse
import cmath
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from loopfiber import cli, decomp, fourier, subspaces, transport
from loopfiber.errors import PhaseStepTooLarge
from loopfiber.loopgroup import (diag_zpowers, identity_element,
                                 loop_from_subspace, multiply, random_loop,
                                 window_frame)

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
        assert rep["schema"] == 1
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
        # JSON decodes a 400-digit literal as an int no float can hold
        src = tmp_path / "huge.json"
        src.write_text('{"n": 1, "coeffs": {"0": [[' + "9" * 400
                       + ', 0.0]]}}')
        assert cli.main(["project", str(src), "--no-meta"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not a coefficient loop file: ")

    def test_ragged_block_names_its_frequency(self, capsys, tmp_path):
        src = write_json(tmp_path / "ragged.json", {"n": 2, "coeffs": {
            "0": [[1.0, 0.0], [0.0, 0.0]], "1": [[1.0], [0.0, 1.0]]}})
        assert cli.main(["project", src, "--no-meta"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: not a coefficient loop file: "
                                "coefficient at k=1 is not [re, im] pairs\n")

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

    def test_shifted_window_winds_once(self, capsys, tmp_path):
        gens = (fourier.basis_loop(1, frequency=1),)
        src = write_json(
            tmp_path / "filt.json",
            subspaces.filtration_to_dict(
                subspaces.FiltrationSubspace(gens, 3)))
        code, rep = run_cli(capsys, ["subspace-loop", src, "--no-meta"])
        assert code == 0
        assert rep["det_winding"] == 1

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

    def test_rank_deficient_exit2(self, capsys, tmp_path):
        g = fourier.basis_loop(1)
        src = write_json(
            tmp_path / "dup.json",
            subspaces.filtration_to_dict(
                subspaces.FiltrationSubspace((g, g), 2)))
        assert cli.main(["subspace-loop", src, "--no-meta"]) == 2

    def test_depth_override(self, capsys, tmp_path):
        src = write_json(tmp_path / "filt.json", plus_filtration_dict(1, 3))
        code, rep = run_cli(capsys,
                            ["subspace-loop", src, "--depth", "5",
                             "--no-meta"])
        assert code == 0
        assert rep["subspace_dim"] == 6

    def test_unitarity_tol(self, capsys, tmp_path):
        # a rebuilt loop is unitary only to roundoff, so a tolerance far
        # below it fails the certificate; a nonpositive one is refused
        frame = window_frame(random_loop(2, 2, seed=4), 3)
        src = write_json(tmp_path / "frame.json",
                         subspaces.frame_to_dict(frame))
        code, rep = run_cli(capsys, ["subspace-loop", src, "--no-meta",
                                     "--unitarity-tol", "1e-300"])
        assert code == 3
        assert rep["status"] == "failed"
        assert "unitarity defect" in rep["diagnostic"]
        for bad in ("0", "-1e-8"):
            assert cli.main(["subspace-loop", src, "--no-meta",
                             f"--unitarity-tol={bad}"]) == 2


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
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["holonomy", "--preset", "abelian2d",
                             "--loop", str(path), "--N", "16"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert captured.out == ""

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

    @pytest.mark.parametrize("M, grid, sweeps", [(32, 32, 33), (2, 8, 3 + 5 + 9)])
    def test_csv_is_the_winding_sweep(self, capsys, tmp_path, monkeypatch,
                                      M, grid, sweeps):
        # each holonomy is computed once, and the CSV holds those the winding
        # was read from, on the grid where the refinement stopped
        real, hols = transport.holonomy, []

        def counted(*args, **kwargs):
            h = real(*args, **kwargs)
            hols.append(complex(h[0, 0]))
            return h

        monkeypatch.setattr(transport, "holonomy", counted)
        csv = str(tmp_path / "sweep.csv")
        code, rep = run_cli(capsys,
                            ["obstruction", "--preset", "monopole", "--q", "1",
                             "--N", "64", "--M", str(M), "--csv", csv,
                             "--no-meta"])
        assert code == 0
        assert rep["winding"] == 1 and rep["M"] == M
        assert len(hols) == sweeps
        rows = [line.split(",") for line in open(csv).read().splitlines()[1:]]
        assert [float(s) for s, _, _ in rows] == [j / grid
                                                  for j in range(grid + 1)]
        assert [complex(float(re), float(im)) for _, re, im in rows] \
            == hols[-(grid + 1):]

    def test_higher_charge(self, capsys):
        code, rep = run_cli(capsys,
                            ["obstruction", "--preset", "monopole", "--q", "2",
                             "--N", "256", "--M", "64", "--no-meta"])
        assert code == 0
        assert rep["winding"] == 2

    def test_unresolvable_phase_exit4(self, capsys, monkeypatch):
        def blow_up(*args, **kwargs):
            raise PhaseStepTooLarge("phase step stuck above pi/2")

        monkeypatch.setattr(cli.transport, "chern_sweep", blow_up)
        code = cli.main(["obstruction", "--preset", "monopole",
                         "--no-meta"])
        assert code == 4
        assert "phase step" in capsys.readouterr().err

    def test_wrong_preset_exit2(self, capsys):
        with pytest.raises(SystemExit):
            # argparse itself rejects non-monopole presets here
            cli.main(["obstruction", "--preset", "flat", "--no-meta"])


class TestTwistcheck:
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

    def test_impossible_tolerance_exit5(self, capsys):
        code, rep = run_cli(capsys,
                            ["twistcheck", "--preset", "flat", "--N", "64",
                             "--tol-scale", "1e-18", "--no-meta"])
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

    def test_loops_built_once_per_point(self, capsys, tmp_path, monkeypatch):
        fam, _ = self.make_model_family()
        src = write_json(tmp_path / "fam.json", decomp.family_to_dict(fam))
        calls = []

        def counted(frame, *args, **kwargs):
            calls.append(frame)
            return loop_from_subspace(frame, *args, **kwargs)

        monkeypatch.setattr(decomp, "loop_from_subspace", counted)
        code, rep = run_cli(capsys, ["audit", src, "--no-meta"])
        assert code == 0 and rep["reduction"]["max_variation"] < 1e-9
        assert len(calls) == fam.size

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

    def test_variation_tol(self, capsys, tmp_path):
        # over windows twisted by a random loop the reduced transitions
        # vary by roundoff, far above 1e-300; a nonpositive tolerance is
        # refused
        g = random_loop(2, 2, seed=23)
        window = subspaces.FiltrationSubspace(
            [g.column(j) for j in range(2)], 3)
        fam = decomp.SubspaceFamily((0, 1), ((0, 1), (1, 0)), (window,) * 2,
                                    (identity_element(2),) * 2)
        src = write_json(tmp_path / "fam.json", decomp.family_to_dict(fam))
        code, rep = run_cli(capsys, ["audit", src, "--no-meta",
                                     "--variation-tol", "1e-300"])
        assert code == 5
        assert rep["audit"]["axioms_ok"]
        assert "failed" in rep["reduction"]
        assert not rep["all_ok"]
        for bad in ("0", "-1e-6"):
            assert cli.main(["audit", src, "--no-meta",
                             f"--variation-tol={bad}"]) == 2

    def test_not_a_family_exit2(self, capsys, tmp_path):
        src = write_json(tmp_path / "junk.json", {"points": "nope"})
        assert cli.main(["audit", src, "--no-meta"]) == 2


class TestOptions:
    # values at or past the edge of each checked option's range
    REFUSED = {
        "N": [0], "M": [0], "depth": [-1], "band": [-1], "n": [0],
        "radius": [0.0, math.inf], "latitude": [0.0, math.pi],
        "tol_scale": [0.0, math.inf], "variation_tol": [0.0, math.inf],
        "unitarity_tol": [0.0, math.inf], "seed": [-1],
        "B": [math.inf, -math.inf],
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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("option, named", [
        ("--tol-scale", "tol-scale"), ("--variation-tol", "variation-tol"),
        ("--unitarity-tol", "unitarity-tol"), ("--circle", "radius")])
    def test_non_finite_refused(self, capsys, tmp_path, option, named, value):
        # at --variation-tol inf the winding cycle would be certified as
        # reduced to constants, exit 0
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
        code = cli.main(argv + ["--no-meta", f"{option}={value}"])
        captured = capsys.readouterr()
        assert code == 2
        assert f"error: {named} must be positive and finite" in captured.err
        assert captured.out == ""


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "loopfiber", "holonomy", "--preset",
             "flat", "--N", "8", "--no-meta"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["command"] == "holonomy"
