"""The experiment scripts run end to end at tiny sizes."""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args,header", [
    ("holonomy_convergence.py", ["--grids", "64", "128"],
     ["N", "raw", "error", "ratio", "corrected", "delta"]),
    ("subspace_roundtrip.py", ["--trials", "2", "--depth", "3"],
     ["trial", "unitarity", "defect", "residue", "variation", "winding"]),
])
def test_script_runs(script, args, header):
    assert run_script(script, args).splitlines()[0].split() == header


def test_convergence_ratios_show_fourth_order():
    # RK4 on the flux oracle: the raw error falls 16-fold per grid doubling
    rows = run_script("holonomy_convergence.py",
                      ["--grids", "64", "128", "256"]).splitlines()[1:]
    ratios = [float(row.split()[2]) for row in rows[1:]]
    assert len(ratios) == 2 and all(14.0 < q < 18.0 for q in ratios), rows


def run_script(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)]
                          + args, capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_report_digests_cover_every_command(tmp_path):
    # without inputs in the directory, the commands of the benchmark's
    # transport and cold-cli workloads at two seeds (5 reports and a CSV
    # each), the other transport commands, the golden argvs and five
    # refusals: one digest per report and per CSV, all exit 0, and per
    # refusal an empty report, exit 2, and its stderr
    lines = run_script("report_digests.py", [str(tmp_path)]).splitlines()
    golden = len(list((ROOT / "tests" / "golden").glob("*.json")))
    assert len(lines) == 2 * (5 + 1) + 6 + 2 + golden + 1 + 2 * 5
    assert sum(line.endswith("-project-seed7 (exit 0)") for line in lines) == 1
    empty = hashlib.sha256(b"").hexdigest()
    refusals = 0
    for line in lines:
        digest, name = line.split("  ", 1)
        assert len(digest) == 64 and int(digest, 16) >= 0
        if name.startswith("refused-"):
            refusals += 1
            assert name.endswith(" stderr") or (
                name.endswith(" (exit 2)") and digest == empty), line
        else:
            assert name.endswith((" (exit 0)", " csv")), name
    assert refusals == 2 * 5
    assert not list(tmp_path.iterdir())  # the CSVs are removed


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=test", "-c",
                    "user.email=test@example.com", "-c",
                    "commit.gpgsign=false", *args],
                   cwd=repo, check=True, capture_output=True)


def committed_tree(tmp_path):
    """A git repository in tmp_path/tree holding this tree's files in one
    commit, and the argv of its report_digests.py --base HEAD."""
    tree = tmp_path / "tree"
    skip = shutil.ignore_patterns("__pycache__", "out")
    for part in ("src", "scripts", "perfbench", "tests/golden"):
        shutil.copytree(ROOT / part, tree / part, ignore=skip)
    git(tree, "init", "-q")
    git(tree, "add", "-A")
    git(tree, "commit", "-q", "-m", "base")
    return tree, [sys.executable, str(tree / "scripts" / "report_digests.py"),
                  str(tmp_path / "inputs"), "--base", "HEAD"]


def perturb_su2sample(tree):
    """Move one constant of the su2sample form in tree's working copy by
    one ulp."""
    source = tree / "src" / "loopfiber" / "transport.py"
    text = source.read_text()
    assert text.count("a2 = v1 * 0.4\n") == 1
    source.write_text(text.replace("a2 = v1 * 0.4\n",
                                   "a2 = v1 * 0.4000000000000001\n"))


# every report that perturb_su2sample changes
SU2SAMPLE_REPORTS = (
    *(f"bench-transport-nonabelian-{command}-su2sample-seed{seed}"
      for seed in (3, 7) for command in ("holonomy", "twistcheck")),
    "holonomy-su2sample-N1000", "twistcheck-su2sample-N1000",
    *(f"golden-{command}{loop}-su2sample"
      for command in ("holonomy", "twistcheck") for loop in ("", "-loop")))


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_report_digests_against_a_base_commit(tmp_path):
    # a commit of this tree's files against its clean working tree reads
    # the same; one perturbed constant of su2sample is caught, naming the
    # reports it changed, with exit 1
    tree, script = committed_tree(tmp_path)
    same = subprocess.run(script, capture_output=True, text=True, timeout=300)
    assert same.returncode == 0, same.stderr
    # the lines of test_report_digests_cover_every_command, and a
    # subspace-loop and an audit report per written input seed
    golden = len(list((ROOT / "tests" / "golden").glob("*.json")))
    count = 2 * (5 + 1) + 6 + 2 + golden + 1 + 2 * 5 + 2 * 2
    assert same.stdout.splitlines() == [
        f"{count} report lines, the same in HEAD and the working tree"]
    perturb_su2sample(tree)
    caught = subprocess.run(script, capture_output=True, text=True,
                            timeout=300)
    assert caught.returncode == 1, caught.stderr
    lines = caught.stdout.splitlines()
    assert lines[:2] == ["--- base HEAD", "+++ working tree"]
    changed = [line for line in lines[2:] if line[0] in "-+"]
    assert changed and all("su2sample" in line for line in changed)
    assert any("holonomy-su2sample-N1000" in line for line in changed)
    assert caught.stderr.splitlines() == [
        f"error: {name} changed, and --expect-changed does not name it"
        for name in sorted(SU2SAMPLE_REPORTS)]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
@pytest.mark.parametrize("unchanged", [(), ("golden-project-loop-n2",)])
def test_report_digests_expect_changed(tmp_path, unchanged):
    # naming exactly the reports a perturbed su2sample constant changes
    # accepts the change; naming one more, which did not change, is an
    # error that names it
    tree, script = committed_tree(tmp_path)
    perturb_su2sample(tree)
    proc = subprocess.run(
        [*script, "--expect-changed", *SU2SAMPLE_REPORTS, *unchanged],
        capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["--- base HEAD", "+++ working tree"]
    assert sum(line.startswith("-") for line in lines[2:]) == 10
    if unchanged:
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: golden-project-loop-n2 is named by --expect-changed but "
            "did not change"]
    else:
        assert proc.returncode == 0, proc.stderr
        assert lines[-1] == "10 reports changed, each named by --expect-changed"


def test_bench_pairs_summary():
    # medians and quartiles per side, per-pair ratios, and wins by each
    # metric's own direction, ties counting for neither side
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        from bench_pairs import summarize
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    base = [4.0, 1.0, 3.0, 2.0, 5.0]
    head = [2.0, 1.0, 1.5, 2.5, 2.5]
    pairs = [{"base": {"t": b, "rate": 10.0 * b, "n": 3.0},
              "head": {"t": h, "rate": 10.0 * h, "n": 3.0}}
             for b, h in zip(base, head)]
    s = summarize(pairs, {"t": "lower", "rate": "higher"})
    assert s["t"]["base"] == (2.0, 3.0, 4.0)
    assert s["t"]["head"] == (1.5, 2.0, 2.5)
    assert s["t"]["change"] == pytest.approx(2.0 / 3.0 - 1.0)
    assert s["t"]["ratios"] == [0.5, 1.0, 0.5, 1.25, 0.5]
    assert (s["t"]["wins"], s["t"]["ties"]) == (3, 1)
    # the same values where higher is better: the one pair the head lost
    assert (s["rate"]["wins"], s["rate"]["ties"]) == (1, 1)
    assert s["rate"]["base"] == (20.0, 30.0, 40.0)
    # a metric BENCHMARK.json does not rank is summarized without wins
    assert s["n"]["wins"] is None and s["n"]["ties"] == 5
    assert s["n"]["change"] == 0.0
