#!/usr/bin/env python3
"""Benchmark of the loopfiber CLI on seeded, oracle-checked workloads.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Load model: a closed loop with one client.  One process runs the workload's
commands one at a time (in process, or as fresh `python -m loopfiber`
children for cold-cli), and an iteration is one pass through the command
list.  Before timing, set-up (a fresh-interpreter import of loopfiber.cli,
seeded input generation, one warm-up iteration) runs five times, and its
median is `setup_s`.  Times are reported in calibrated seconds: each sample
is scaled by how fast a fixed calibration kernel (calibration.py), run next
to it, went on the host at that moment; wall times are kept in the record.

With `--trace 0` the run measures the end-to-end metrics untraced.  With
`--trace 1` it spends half of `--seconds` untraced and half with every
public loopfiber function wrapped in a span recorder, and reports the
per-layer metrics of BENCHMARK.json.  Every report is checked against an
oracle and against the first iteration's bytes.  The last line of stdout is
the result object; the line before it, also written to perfbench/out/, records
the environment, sample counts, percentiles and the worst oracle errors.
"""

import argparse
import contextlib
import ctypes
import gc
import gzip
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import calibration
from tracing import (FORM_EVALS, Tracer, import_breakdown,
                     median_per_iteration, per_iteration_totals)
from workloads import WORKLOADS, OracleMiss

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"
SETUP_ROUNDS = 5
CHILD_TIMEOUT_S = 120
IMPORT_PROBE = ("import time; t = time.perf_counter(); import loopfiber.cli; "
                "print(time.perf_counter() - t)")


class HarnessError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Outcome:
    seconds: float
    code: object
    stdout: bytes
    stderr: str


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_subprocess(argv):
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, env=child_env(),
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return Outcome(time.perf_counter() - start, "timeout",
                       exc.stdout or b"", "")
    return Outcome(time.perf_counter() - start, proc.returncode, proc.stdout,
                   proc.stderr.decode(errors="replace"))


def run_in_process(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crashing command is a failed command
        code = f"raised {type(exc).__name__}: {exc}"
    return Outcome(time.perf_counter() - start, code,
                   out.getvalue().encode(), err.getvalue())


def probe_import(importtime):
    """Seconds to import loopfiber.cli in a fresh interpreter, and stderr."""
    argv = [sys.executable] + (["-X", "importtime"] if importtime else [])
    out = run_subprocess(argv + ["-c", IMPORT_PROBE])
    if out.code != 0:
        raise HarnessError(f"import probe failed ({out.code}): {out.stderr}")
    return float(out.stdout), out.stderr


class Runner:
    """Runs one workload's commands, checks every report, keeps the tally."""

    def __init__(self, workload, cli, workdir):
        self.workload = workload
        self.cli = cli
        self.workdir = workdir
        self.commands = []
        self.reference = {}           # label -> first successful report
        self.attempted = 0
        self.failed = 0
        self.misses = []              # first few failure messages
        self.worst_error = Counter()  # label -> largest oracle error seen
        self.report_bytes = Counter()  # iteration -> stdout bytes
        self.import_samples = []      # per-layer import seconds, per child
        self.tracer = None
        self.scale = None             # calibration of the last timed run

    def execute(self, command, iteration):
        if self.workload.in_process:
            if self.tracer is not None:
                self.tracer.iteration = iteration
            return run_in_process(self.cli, command.argv)
        if self.tracer is None:
            return run_subprocess([sys.executable, "-m", "loopfiber",
                                   *command.argv])
        span_file = self.workdir / f"spans-{iteration}-{command.label}.json"
        out = run_subprocess([sys.executable, "-X", "importtime", str(CHILD),
                              str(span_file), *command.argv])
        if span_file.exists():
            recorded = json.loads(span_file.read_text())
            span_file.unlink()
            self.tracer.absorb(recorded["spans"], recorded["form_evals"],
                               iteration)
        self.import_samples.append(import_breakdown(out.stderr))
        return out

    def miss(self, command, out):
        """Why this outcome fails, or None when it passes every check."""
        if out.code != 0:
            return f"exit {out.code}: {out.stderr.strip()[-300:]}"
        if self.reference.setdefault(command.label, out.stdout) != out.stdout:
            return "report differs from the first iteration's report"
        try:
            error = command.check(json.loads(out.stdout), command.expected)
        except OracleMiss as exc:
            return f"oracle: {exc}"
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed report: {exc!r}"
        self.worst_error[command.label] = max(self.worst_error[command.label],
                                              float(error))
        return None

    def iterate(self, iteration, scale, counted=True):
        """One pass through the command list.

        Returns its command seconds, as wall seconds and as calibrated
        seconds, each command scaled by `scale` right after it ran.
        """
        wall = calibrated = 0.0
        for command in self.commands:
            out = self.execute(command, iteration)
            wall += out.seconds
            calibrated += scale(out.seconds)
            self.report_bytes[iteration] += len(out.stdout)
            why = self.miss(command, out)
            if counted:
                self.attempted += 1
                if why is not None:
                    self.failed += 1
                    if len(self.misses) < 10:
                        self.misses.append(f"{command.label}: {why}")
        return wall, calibrated

    def timed(self, seconds, first_iteration):
        """Iterations for `seconds`, as wall and as calibrated seconds."""
        wall, calibrated = [], []
        self.scale = scale = calibration.Scale()
        deadline = time.perf_counter() + seconds
        while not wall or time.perf_counter() < deadline:
            gc.collect()
            w, c = self.iterate(first_iteration + len(wall), scale)
            wall.append(w)
            calibrated.append(c)
        return wall, calibrated

    def set_up(self, seed, tiny, importtime):
        """Import, generate inputs and warm up, SETUP_ROUNDS times.

        Returns the median round in calibrated seconds, and the wall
        seconds of every round.  The first warm-up report of each command
        becomes the reference later reports must equal.
        """
        rounds, calibrated = [], []
        for _ in range(SETUP_ROUNDS):
            scale = calibration.Scale()
            import_s, stderr = probe_import(importtime)
            import_c = scale(import_s)
            if importtime:
                self.import_samples.append(import_breakdown(stderr))
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir.mkdir(parents=True)
            start = time.perf_counter()
            self.commands = self.workload.prepare(self.workdir, seed, tiny)
            generate_s = time.perf_counter() - start
            generate_c = scale(generate_s)
            warm_s, warm_c = self.iterate(None, scale, counted=False)
            rounds.append(import_s + generate_s + warm_s)
            calibrated.append(import_c + generate_c + warm_c)
        return statistics.median(calibrated), rounds


def tail(samples):
    """Highest percentile with at least ten samples beyond it, and which.

    Below twenty samples that percentile would lie under the median, so the
    median is returned instead (as percentile 50): a tail is never below it.
    """
    ordered = sorted(samples)
    index = len(ordered) - 11
    percentile = 100.0 * (index + 1) / len(ordered)
    if percentile <= 50.0:
        return statistics.median(ordered), 50.0
    return ordered[index], percentile


def peak_rss_mb(in_process):
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(runner, seed, tiny, seconds):
    setup_s, setup_wall = runner.set_up(seed, tiny, importtime=False)
    wall, samples = runner.timed(seconds, 0)
    tail_value, pct = tail(samples)
    metrics = {
        "iter_s.p50": statistics.median(samples),
        "iter_s.tail": tail_value,
        "cmds_per_s": runner.attempted / sum(samples),
        "ok_ratio": 1.0 - runner.failed / runner.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(runner.workload.in_process),
    }
    details = {"iterations": len(samples), "tail_percentile": pct,
               "iter_s": samples, "wall_iter_s": wall,
               "wall_iter_s.p50": statistics.median(wall),
               "wall_setup_s": setup_wall,
               "kernel_s.p50": statistics.median(runner.scale.kernel_s)}
    return metrics, details


def layer_function(name):
    """Check that a per-function metric names a public loopfiber function."""
    layer, function, _ = name.split(".")
    module = sys.modules.get(f"loopfiber.{layer}")
    if module is None or function.startswith("_") or not callable(
            getattr(module, function, None)):
        raise HarnessError(f"metric {name} names no public loopfiber function")


def per_layer(runner, seed, tiny, seconds, declared):
    runner.set_up(seed, tiny, importtime=True)
    untraced_wall, untraced = runner.timed(seconds / 2.0, 0)
    runner.tracer = tracer = Tracer()
    if runner.workload.in_process:
        tracer.install()
    try:
        traced_wall, traced = runner.timed(seconds / 2.0, len(untraced))
    finally:
        tracer.uninstall()
    iterations = range(len(untraced), len(untraced) + len(traced))
    totals = per_iteration_totals(tracer.spans, tracer.form_evals)
    metrics = {}
    for name in declared:
        if name == "trace_overhead":
            value = statistics.median(traced) / statistics.median(untraced) - 1.0
        elif name == "cli.report_bytes":
            value = statistics.median(runner.report_bytes[i] for i in iterations)
        elif name.endswith(".import_s"):
            value = statistics.median(sample[name.split(".")[0]]
                                      for sample in runner.import_samples)
        else:
            if name != FORM_EVALS and name.count(".") == 2:
                layer_function(name)
            value = median_per_iteration(totals, iterations, name)
        metrics[name] = value
    details = {"iterations": {"untraced": len(untraced), "traced": len(traced)},
               "iter_s": {"untraced": untraced, "traced": traced},
               "wall_iter_s": {"untraced": untraced_wall,
                               "traced": traced_wall},
               "import_samples": len(runner.import_samples),
               "spans": len(tracer.spans)}
    return metrics, details, tracer.spans


def blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed):
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "loopfiber").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "loopfiber_threads_unset": "LOOPFIBER_THREADS" not in os.environ,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small problem sizes, for the harness self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "loopfiber" / "__init__.py").is_file():
        raise HarnessError(f"no loopfiber sources under {SRC}")
    if "LOOPFIBER_THREADS" in os.environ:
        raise HarnessError("LOOPFIBER_THREADS is set; the benchmark measures "
                           "the defaults, so unset it")
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import loopfiber.cli as cli
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise HarnessError(f"imported loopfiber from {cli.__file__}, not {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    runner = Runner(workload, cli, OUT / f"work-{tag}")
    spans = []
    try:
        if args.trace:
            metrics, details, spans = per_layer(
                runner, args.seed, args.tiny, args.seconds, units)
        else:
            metrics, details = end_to_end(
                runner, args.seed, args.tiny, args.seconds)
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    missing = set(units) - set(metrics)
    if missing:
        raise HarnessError(f"metrics not computed: {sorted(missing)}")

    record = {
        "workload": args.workload, "trace": args.trace, "tiny": args.tiny,
        "seconds": args.seconds, "env": environment(args.seed),
        "details": details, "misses": runner.misses,
        "worst_oracle_error": dict(runner.worst_error),
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if spans:
        with gzip.open(OUT / f"{tag}.spans.json.gz", "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "iteration"], "spans": spans}, fh)
    print(json.dumps(record))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
