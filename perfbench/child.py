"""Run one loopfiber command with span tracing, for traced cold-cli runs.

    python perfbench/child.py <span-file> <loopfiber arguments...>

The package is imported before anything else, so that `-X importtime`
charges each import to the loopfiber module that first pulls it in, as in
`python -m loopfiber`.  Then the span recorder is installed, the command
runs, and the spans and the connection-form count are written to
<span-file> as JSON.  The exit code is the command's.
"""

import sys

import loopfiber.cli

import json  # noqa: E402  (after the package, which imports it anyway)
from tracing import Tracer  # noqa: E402


def main(span_file, argv):
    tracer = Tracer()
    tracer.install()
    try:
        code = loopfiber.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(span_file, "w") as fh:
            json.dump({
                "spans": [span[:4] for span in tracer.spans],
                "form_evals": sum(tracer.form_evals.values()),
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
