#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny problem sizes.

    python3 perfbench/selftest.py

Runs every workload, declared in BENCHMARK.json or not, once untraced and
once traced, with --tiny and a one-second budget, and checks that

  * the result line carries exactly the metrics BENCHMARK.json declares,
    with no end-to-end metric at 0 and every command passing its oracle;
  * each layer a workload exercises recorded spans or counts there, and
    every declared per-layer metric is exercised by some workload;
  * without the loopfiber sources next to it, the benchmark exits nonzero
    and prints no result.

Exits nonzero on the first failed check.  Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Per-layer metrics that must be nonzero on each workload, because the
# workload's commands run that code.
EXERCISED = {
    "transport-nonabelian": [
        "transport.self_s", "transport.parallel_transport.self_s",
        "transport.holonomy.self_s", "transport.holonomy.calls",
        "transport.form_evals", "fourier.self_s",
        "fourier.evaluate_grid.self_s", "fourier.from_grid_samples.self_s",
        "twistbundle.self_s", "twistbundle.holonomy_twist.calls",
        "twistbundle.rotate.self_s", "twistbundle.section_from_loop.self_s",
        "twistbundle.phi_inverse.self_s", "cli.self_s", "cli.report_bytes"],
    "sweep-abelian": [
        "transport.self_s", "transport.holonomy.self_s",
        "transport.holonomy.calls", "transport.chern_winding.self_s",
        "transport.form_evals", "cli.self_s", "cli.report_bytes"],
    "reconstruct": [
        "fourier.self_s", "fourier.inner_product.calls",
        "fourier.inner_product.self_s", "subspaces.self_s",
        "subspaces.cross_gram.calls", "subspaces.orthonormalize.self_s",
        "subspaces.expand_filtration.self_s",
        "subspaces.intersect_shift_complement.self_s",
        "subspaces.frame_from_dict.self_s", "loopgroup.self_s",
        "loopgroup.multiply.calls", "loopgroup.multiply.self_s",
        "loopgroup.loop_from_subspace.self_s",
        "loopgroup.unitarity_defect.self_s", "loopgroup.det_winding.self_s",
        "loopgroup.theta_variation.self_s",
        "loopgroup.element_from_dict.self_s",
        "loopgroup.element_to_dict.self_s", "decomp.self_s",
        "decomp.audit_family.self_s", "decomp.reduction_cocycle.self_s",
        "decomp.family_from_dict.self_s", "cli.self_s", "cli.report_bytes"],
    "cold-cli": [
        "transport.self_s", "transport.holonomy.calls",
        "transport.form_evals", "fourier.self_s", "cli.self_s",
        "cli.report_bytes"],
}


def run(args, cwd):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return proc.returncode, proc.stdout, proc.stderr


def check(ok, message):
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def check_result(workload, trace, declared):
    code, stdout, stderr = run(["--workload", workload, "--seed", "7",
                                "--seconds", "1", "--trace", str(trace),
                                "--tiny"], ROOT)
    check(code == 0, f"{workload} trace {trace} exited {code}: {stderr}")
    result = json.loads(stdout.splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1,
          f"{workload} trace {trace}: {stdout.splitlines()[-2]}")
    metrics = result["metrics"]
    check(set(metrics) == set(declared),
          f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
          f"{sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        check(metrics[name] == {"value": metrics[name]["value"], "unit": unit},
              f"{workload}: {name} is {metrics[name]}")
    return {name: m["value"] for name, m in metrics.items()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(set(EXERCISED) == set(WORKLOADS),
          "EXERCISED must list every workload")
    check({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
          "BENCHMARK.json declares a workload run.py does not have")
    imports = [name for name in per_layer if name.endswith(".import_s")]
    covered = set(imports) | {"trace_overhead"}.union(*EXERCISED.values())
    check(covered == set(per_layer),
          f"per-layer metrics no workload exercises: "
          f"{sorted(set(per_layer) - covered)}")

    for workload, exercised in EXERCISED.items():
        values = check_result(workload, 0, end_to_end)
        zero = [name for name, v in values.items() if not v > 0]
        check(not zero, f"{workload}: end-to-end metrics not above 0: {zero}")
        check(values["ok_ratio"] == 1.0, f"{workload}: ok_ratio {values}")
        values = check_result(workload, 1, per_layer)
        idle = [name for name in exercised + imports if not values[name] > 0]
        check(not idle, f"{workload}: exercised layers read 0: {idle}")
        print(f"selftest: {workload} ok", flush=True)

    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        code, stdout, _ = run(["--workload", "cold-cli", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], bare)
        check(code != 0 and not stdout.strip(),
              f"without sources: exit {code}, stdout {stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest: passed")


if __name__ == "__main__":
    main()
