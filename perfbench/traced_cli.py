"""Run the ballq CLI with the benchmark's outside-in tracer installed.

    python perfbench/traced_cli.py OUT_PREFIX verify --family gamma --n 1..50

Behaves like ``python -m ballq`` (same arguments, output and exit code) and
also writes span and counter records to ``OUT_PREFIX.<pid>.jsonl``, one file
per process (the CLI process and each ``--jobs`` worker).  ``ballq`` must be
importable, for example with ``PYTHONPATH=src``.
"""

import sys

from tracer import Tracer


def main() -> int:
    if len(sys.argv) < 2:
        print("usage: traced_cli.py OUT_PREFIX BALLQ_ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer(sys.argv[1])
    tracer.install()
    return tracer.run_main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
