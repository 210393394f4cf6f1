"""Alternating benchmark pairs of a base revision against the working tree.

Exports the committed files of a base revision (`git archive`) into a
temporary directory and runs

    python3 perfbench/run.py --workload W --seed s --seconds S --trace t

there and in the working tree, K pairs in all, alternating which of the
two goes first.  Each run's last stdout line is its result object.  For
every metric of that object the summary prints both sides' medians and
quartiles, the change of the median, the pairs the working tree won (a tie
counts for neither side) and the per-pair ratios working tree / base;
whether lower or higher is better is read from BENCHMARK.json.  Run from
anywhere inside the repository:

    python scripts/bench_pairs.py --base HEAD~1 --workload transport-nonabelian \\
        --pairs 10 --seconds 40

Each run's result line goes to stderr as it arrives.  Nothing is written
under perfbench/ but what run.py writes to perfbench/out/, and the export
is removed afterwards.
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "head")


def export_revision(rev, dest):
    """Write the files of commit `rev` into the directory `dest`."""
    git = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                           stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=git.stdout,
                   check=True)
    git.stdout.close()
    if git.wait():
        raise RuntimeError(f"git archive {rev} failed")


def run_once(tree, args):
    """The metrics {name: value} of one perfbench run in `tree`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench failed in {tree}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        print(f"warning: {result['failed']} of {result['attempted']} "
              f"commands failed in {tree}", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(pairs, better):
    """Per metric of `pairs`, a list of {"base": metrics, "head": metrics}:
    {"base": (q1, median, q3), "head": (q1, median, q3), "change": head
    median / base median - 1, "ratios": head / base per pair, "wins": pairs
    the head did better in, "ties"}.  `better` maps a metric to
    "lower" or "higher"; a metric not in it is summarized without wins."""
    out = {}
    for name in pairs[0]["base"]:
        values = {side: np.array([p[side][name] for p in pairs], float)
                  for side in SIDES}
        base, head = values["base"], values["head"]
        sign = {"lower": -1.0, "higher": 1.0}.get(better.get(name), 0.0)
        gain = sign * (head - base)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = head / base
            change = np.median(head) / np.median(base) - 1.0
        out[name] = {
            **{side: tuple(np.percentile(values[side], [25, 50, 75]))
               for side in SIDES},
            "change": float(change),
            "ratios": [float(r) for r in ratios],
            "wins": int((gain > 0).sum()) if sign else None,
            "ties": int((head == base).sum()),
        }
    return out


def format_summary(summary, better):
    lines = []
    for name, s in summary.items():
        won = ("" if s["wins"] is None else
               f"  won {s['wins']}/{len(s['ratios'])} ({s['ties']} tied)")
        lines.append(
            f"{name} ({better.get(name, '?')} is better): "
            f"base {s['base'][1]:.6g} [{s['base'][0]:.6g}, {s['base'][2]:.6g}]"
            f"  head {s['head'][1]:.6g} [{s['head'][0]:.6g}, "
            f"{s['head'][2]:.6g}]  {100.0 * s['change']:+.1f}%{won}")
        lines.append("    ratios " + " ".join(f"{r:.3f}" for r in s["ratios"]))
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--base", required=True, help="base revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        export_revision(args.base, tmp)
        trees = {"base": tmp, "head": ROOT}
        pairs = []
        for k in range(args.pairs):
            pair = {}
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                pair[side] = run_once(trees[side], args)
                print(f"pair {k + 1} {side}: {json.dumps(pair[side])}",
                      file=sys.stderr, flush=True)
            pairs.append(pair)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(format_summary(summarize(pairs, better), better))


if __name__ == "__main__":
    main()
