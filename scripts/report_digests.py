"""sha256 digests of the `--no-meta` reports of a fixed list of commands.

Runs every command in one process through `loopfiber.cli.main` and prints
one line `<sha256>  <name>` per report, per CSV it writes and per command
that writes to stderr.  Two trees give the same answers, byte for byte,
when their outputs are equal, so a comparison of two commits is one `diff`:

    python scripts/report_digests.py DIR --write-inputs   # once
    PYTHONPATH=<tree A>/src python scripts/report_digests.py DIR > a.txt
    PYTHONPATH=<tree B>/src python scripts/report_digests.py DIR > b.txt
    diff a.txt b.txt

`--base REV` does all of that in one command, for the commit REV against
the working tree of this script's checkout: it exports REV (`git archive`,
as scripts/bench_pairs.py does), writes the inputs into DIR once with REV's
own `--write-inputs`, runs REV's script on REV's tree and this script on
this tree, each in a fresh process, prints the lines that differ as a
unified diff, and exits 1 on any difference (0 when every line is equal):

    python scripts/report_digests.py DIR --base HEAD~1

The list is the commands of the benchmark's transport and `cold-cli`
workloads (perfbench/workloads.py), a few transport commands on other
grids, five transport commands refused as input (exit 2, one `error:`
line on stderr), every argv stored in tests/golden, and `subspace-loop`
and `audit` on each `seed*/frame.json` and `seed*/family.json` under DIR.

The workloads are prepared for seeds 3 and 7 into the subdirectory `bench`
of DIR, from numpy alone, and removed after their commands ran.  The
`reconstruct` inputs are built with the `random_loop` of the tree on the
path, so they are written once and shared: reports of two trees compare
only on the same input bytes.  `--write-inputs` writes them for seeds 3 and
7 with the benchmark's `prepare_reconstruct` and prints their digests too.

Commands run with DIR as the working directory.  The input files a golden
case names (from tests/golden/inputs) are copied there before the command
runs, and they and each CSV the command writes are removed after it.
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SEEDS = (3, 7)  # of the benchmark's workloads and the reconstruct inputs
BENCH_WORKLOADS = ("transport-nonabelian", "sweep-abelian", "cold-cli")
REFUSED_CSV = "huge-spline.csv"  # finite points whose spline overflows


def run_benchmark_commands():
    """Prepare each workload of BENCH_WORKLOADS for each seed into `bench`,
    run every command it prepares, and remove what was written."""
    from workloads import WORKLOADS

    workdir = Path("bench")
    for seed in SEEDS:
        for name in BENCH_WORKLOADS:
            workdir.mkdir()
            try:
                for command in WORKLOADS[name].prepare(workdir, seed, False):
                    run(f"bench-{name}-{command.label}-seed{seed}",
                        list(command.argv))
            finally:
                shutil.rmtree(workdir)


def transport_commands():
    """(name, argv) of transport commands the benchmark does not run:
    `obstruction` without its CSV, the winding alone; N = 1000, not a power
    of two; a 3 x 3 form on 7 steps; and two sweeps on the family grid
    M = 2, with their CSVs, whose three samples cannot tell the charge (a
    phase step of pi at q = 3, all near 1 at q = 6)."""
    yield "obstruction-monopole-no-csv", [
        "obstruction", "--preset", "monopole", "--q", "1", "--N", "256",
        "--M", "64", "--no-meta"]
    for command in ("holonomy", "twistcheck"):
        yield f"{command}-su2sample-N1000", [
            command, "--preset", "su2sample", "--N", "1000", "--no-meta"]
    yield "holonomy-flat-n3-N7", [
        "holonomy", "--preset", "flat", "--n", "3", "--N", "7", "--no-meta"]
    yield "obstruction-monopole-q3-M2", [
        "obstruction", "--preset", "monopole", "--q", "3", "--M", "2",
        "--N", "64", "--csv", "obstruction-q3.csv", "--no-meta"]
    yield "obstruction-monopole-q6-M2", [
        "obstruction", "--preset", "monopole", "--q", "6", "--M", "2",
        "--N", "256", "--csv", "obstruction-q6.csv", "--no-meta"]


def refusal_commands():
    """(name, argv) of transport commands whose finite inputs overflow: a
    form on a huge circle, a spline through huge points (the CSV that
    `run_refusals` writes) and a circle whose velocities overflow."""
    for command, extra in (("holonomy", []),
                           ("twistcheck", ["--N", "16", "--band", "1"])):
        yield f"refused-{command}-abelian2d-circle", [
            command, "--preset", "abelian2d", "--circle", "1e200", *extra,
            "--no-meta"]
    yield "refused-holonomy-su2sample-circle", [
        "holonomy", "--preset", "su2sample", "--circle", "1e160", "--N",
        "16", "--no-meta"]
    yield "refused-holonomy-huge-spline", [
        "holonomy", "--preset", "abelian2d", "--loop", REFUSED_CSV,
        "--no-meta"]
    yield "refused-holonomy-flat-circle", [
        "holonomy", "--preset", "flat", "--n", "2", "--circle", "1e308",
        "--N", "4", "--no-meta"]


def run_refusals():
    """Run every refusal command with REFUSED_CSV written, then remove it."""
    Path(REFUSED_CSV).write_text(
        "t,x1,x2\n0,0,0\n0.25,1e308,0\n0.5,0,1e308\n0.75,-1e308,0\n")
    try:
        for name, argv in refusal_commands():
            run(name, argv)
    finally:
        Path(REFUSED_CSV).unlink()


def golden_commands():
    """(name, argv, input file names) of every case in tests/golden."""
    for path in sorted(GOLDEN.glob("*.json")):
        case = json.loads(path.read_text())
        yield f"golden-{path.stem}", case["argv"], case.get("inputs", ())


def reconstruct_commands():
    for frame in sorted(Path().glob("seed*/frame.json")):
        yield f"subspace-loop-{frame.parent}", [
            "subspace-loop", str(frame), "--no-meta"]
    for family in sorted(Path().glob("seed*/family.json")):
        yield f"audit-{family.parent}", ["audit", str(family), "--no-meta"]


def digest(data):
    return hashlib.sha256(data).hexdigest()


def write_inputs():
    """Write the `reconstruct` inputs of SEEDS; print their digests."""
    from workloads import prepare_reconstruct

    for seed in SEEDS:
        workdir = Path(f"seed{seed}")
        workdir.mkdir(exist_ok=True)
        prepare_reconstruct(workdir, seed, tiny=False)
        for name in ("frame.json", "family.json"):
            print(f"{digest((workdir / name).read_bytes())}  input "
                  f"{workdir / name}")


def run(name, argv, inputs=()):
    """Print the digests of one command's report, its stderr if it wrote
    any, and its CSV; the named tests/golden/inputs files are in the
    working directory while it runs."""
    from loopfiber import cli

    for input_name in inputs:
        Path(input_name).write_bytes(
            (GOLDEN / "inputs" / input_name).read_bytes())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    for input_name in inputs:
        Path(input_name).unlink()
    print(f"{digest(out.getvalue().encode())}  {name} (exit {code})")
    if err.getvalue():
        print(f"{digest(err.getvalue().encode())}  {name} stderr")
    if "--csv" in argv:
        csv_path = Path(argv[argv.index("--csv") + 1])
        print(f"{digest(csv_path.read_bytes())}  {name} csv")
        csv_path.unlink()


def tree_digests(tree, workdir, *options):
    """The report lines of tree/scripts/report_digests.py run in a fresh
    process on tree/src, without the digests of the inputs it writes."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, str(tree / "scripts" / "report_digests.py"),
         str(workdir), *options], env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"report_digests.py failed in {tree}:\n"
                           f"{proc.stderr}")
    return [line for line in proc.stdout.splitlines()
            if not line.split("  ", 1)[-1].startswith("input ")]


def compare_with(base, workdir):
    """Print the diff of the report lines of commit `base` and of this tree,
    on inputs written once by `base`; 1 if any line differs, else 0."""
    sys.path.insert(0, str(ROOT / "scripts"))
    from bench_pairs import export_revision

    with tempfile.TemporaryDirectory(prefix="report-digests-") as tmp:
        tree = Path(tmp)
        export_revision(base, tree)
        old = tree_digests(tree, workdir, "--write-inputs")
    new = tree_digests(ROOT, workdir)
    diff = list(difflib.unified_diff(old, new, f"base {base}",
                                     "working tree", lineterm="", n=0))
    if diff:
        print("\n".join(diff))
        return 1
    print(f"{len(new)} report lines, the same in {base} and the working tree")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("dir", help="directory of the shared reconstruct inputs")
    ap.add_argument("--write-inputs", action="store_true",
                    help="write the inputs into DIR first")
    ap.add_argument("--base", metavar="REV",
                    help="compare the commit REV with the working tree; "
                         "exit 1 on any difference")
    args = ap.parse_args()
    if args.base is not None:
        sys.exit(compare_with(args.base, Path(args.dir).resolve()))
    os.makedirs(args.dir, exist_ok=True)
    os.chdir(args.dir)
    sys.path.insert(0, str(ROOT / "perfbench"))
    if args.write_inputs:
        write_inputs()
    run_benchmark_commands()
    run_refusals()
    commands = [*transport_commands(), *golden_commands(),
                *reconstruct_commands()]
    for name, argv, *inputs in commands:
        run(name, argv, *inputs)


if __name__ == "__main__":
    main()
