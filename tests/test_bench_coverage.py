"""The benchmark's workloads call every layer function it counts on.

For every workload of perfbench/workloads.py, declared in BENCHMARK.json or
not, the tiny inputs are written, each command runs in process through
`cli.main` under perfbench/tracing.py's span recorder, and every function
named by a `<layer>.<function>.*` metric of perfbench/selftest.py's
EXERCISED table must have a span.  Every such metric BENCHMARK.json
declares must name a public function, as perfbench/run.py's
`layer_function` demands of a traced run.  A change that stops calling a
traced function, or deletes one, fails here, and not only in the
benchmark's own self-test.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from loopfiber import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402
import selftest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PER_LAYER = [m["name"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["per_layer"]]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_exercised_functions_are_called(tmp_path, name):
    commands = workloads.WORKLOADS[name].prepare(tmp_path, 7, True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for command in commands:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(list(command.argv)) == 0, command.label
            command.check(json.loads(out.getvalue()), command.expected)
    finally:
        tracer.uninstall()
    called = {span[0] for span in tracer.spans}
    functions = {metric.rsplit(".", 1)[0]
                 for metric in selftest.EXERCISED[name]
                 if metric.count(".") == 2}
    assert functions and functions <= called, sorted(functions - called)
    if "transport.form_evals" in selftest.EXERCISED[name]:
        assert sum(tracer.form_evals.values()) > 0


@pytest.mark.parametrize("metric", [m for m in PER_LAYER if m.count(".") == 2])
def test_per_function_metric_names_a_public_function(metric):
    run.layer_function(metric)  # HarnessError when it names none
