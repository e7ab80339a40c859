"""Regenerate golden.json: per-level sha256 digests of ``ballq verify`` reports.

    python3 perfbench/make_golden.py

Run it only on a commit whose report bytes are the reference (the digests
in the committed golden.json were taken from the seed commit).  It covers
every level any workload can run: n = 1..50 and each seeded large level
and its double, for both families, plus the digest of each whole 1..50
stream.
"""

from __future__ import annotations

import json
import sys

import gate
import run


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    invocations = []
    for family in ("gamma", "lambda"):
        invocations.append(run.Invocation(family, run.SWEEP_LEVELS))
        for seed in range(len(run.LARGE_BAND)):
            invocations += [run.Invocation(family, [n]) for n in run.large_levels(seed)]
    levels: dict[str, dict[str, str]] = {"gamma": {}, "lambda": {}}
    streams: dict[str, str] = {}
    for inv in invocations:
        proc = run.run_call(inv, jobs=1).proc
        lines = proc.stdout.split(b"\n")[:-1]
        if proc.returncode != 0 or len(lines) != len(inv.levels):
            print(f"error: {inv.family} --n {inv.n_arg} exited {proc.returncode} "
                  f"with {len(lines)} lines", file=sys.stderr)
            return 1
        for n, line in zip(inv.levels, lines):
            levels[inv.family][str(n)] = gate.digest(line)
        streams[f"{inv.family} --n {inv.n_arg}"] = gate.digest(proc.stdout)
    gate.GOLDEN_PATH.write_text(json.dumps({"levels": levels, "streams": streams},
                                           indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    print(f"wrote {gate.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
