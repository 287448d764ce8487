"""Run one rulekbc CLI stage in this process with timing wrappers installed.

usage: python3 perfbench/stage.py SPANS_OUT STAGE -- <rulekbc CLI arguments>

The root span `cli.<STAGE>` starts when the parent launched this process
(tracing.START_ENV), so the stage's span self times add up to its whole
traced run time, interpreter start-up included. The process ends with
os._exit right after writing its spans: interpreter teardown would be time
that no span can cover. The untraced benchmark pass
runs `python3 -m rulekbc.cli` directly instead of this script.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, stage, cli_args = argv[0], argv[1], argv[3:]
    tracer = tracing.Tracer()
    root = tracer.begin("cli." + stage, tracing.started(_START))
    try:
        tracing.install(tracer)
        from rulekbc import cli

        return cli.main(cli_args)
    finally:
        tracer.end(root)
        tracer.dump(out)


if __name__ == "__main__":
    code = main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code or 0)
