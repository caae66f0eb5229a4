"""One traced `ti2kit` CLI process, for the traced replay of the cli workload.

    python perfbench/cli_child.py SPANS_PATH ARG...
    python perfbench/cli_child.py --calibrate

Behaves like ``python -m ti2kit.cli ARG...`` (same stdout and exit code), with
every public ti2kit function wrapped by ``tracer.py`` while ``cli.main`` runs;
the spans are written to SPANS_PATH when it returns.  ``--calibrate`` prints
the wrapper cost measured in such a process instead, as JSON, so that the
timed processes do not pay for the calibration.
"""

import json
import sys

import tracer


def main() -> int:
    import ti2kit.cli

    tr = tracer.Tracer()
    tracer.install(tr)
    if sys.argv[1] == "--calibrate":
        print(json.dumps(tr.calibrate()))
        return 0
    path, argv = sys.argv[1], sys.argv[2:]
    tr.active = True
    try:
        code = ti2kit.cli.main(argv)
    finally:
        tr.active = False
        tr.write(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
