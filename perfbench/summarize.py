"""Summarize results files: median and quartiles of every metric per workload.

    python3 perfbench/summarize.py [RESULTS_DIR] [--write perfbench/baseline.json]
    python3 perfbench/summarize.py --compare perfbench/baseline.json perfbench/baseline-repeat.json

Reads every ``<workload>-seed<seed>-trace<t>.json`` that run.py left in
RESULTS_DIR (default ``.perfbench``).  For each workload and metric it prints
the median, the quartiles and the spread (quartile distance over the median)
over the runs, and with ``--write`` it stores the same in a JSON file
together with the provenance of the runs.  ``--compare A B`` reads two such
files and checks every ``end_to_end`` metric of BENCHMARK.json against its
bound: each spread (but that of ``setup_s``) within the bound, and B's median
not worse than A's by more than the bound.  It exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(results_dir: Path) -> dict:
    runs: dict[str, list[dict]] = {}
    for path in sorted(results_dir.glob("*-seed*-trace*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault(f"{result['workload']} trace{result['trace']}", []).append(result)
    summary = {}
    for key, results in sorted(runs.items()):
        metrics = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name][0] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median if median else None,
                             "unit": results[0]["metrics"][name][1]}
        summary[key] = {
            "runs": len(results),
            "all_correct": all(r["correct"] for r in results),
            "seeds": sorted(r["seed"] for r in results),
            "seconds": sorted({r["seconds"] for r in results}),
            "git_sha": sorted({str(r["git_sha"]) for r in results}),
            "python": sorted({r["python"] for r in results}),
            "nproc": sorted({r["nproc"] for r in results}),
            "invocations": sorted({f"{i['family']} --n {i['n']}"
                                   for r in results for i in r["invocations"]}),
            "metrics": metrics,
        }
    return summary


def compare(first: dict, second: dict) -> bool:
    """Print the bound checks of two summaries; True if every check holds."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for key in sorted(set(first) & set(second)):
        if not key.endswith("trace0"):
            continue
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = first[key]["metrics"][name], second[key]["metrics"][name]
            change = b["median"] / a["median"] - 1
            worse = change if metric["better"] == "lower" else -change
            spreads_ok = name == "setup_s" or max(a["spread"], b["spread"]) <= bound
            good = spreads_ok and worse <= bound
            ok &= good
            print(f"{key} {name}: median {a['median']:.6g} -> {b['median']:.6g} {a['unit']} "
                  f"({change:+.1%}), spread {a['spread']:.3f} / {b['spread']:.3f}, "
                  f"bound {bound} {'ok' if good else 'FAILED'}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results_dir", nargs="?", default=str(ROOT / ".perfbench"))
    parser.add_argument("--write", default=None, help="also write the summary here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), default=None,
                        help="check two written summaries against the bounds")
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        return 0 if compare(first, second) else 1
    summary = summarize(Path(args.results_dir))
    if not summary:
        print(f"no results files in {args.results_dir}", file=sys.stderr)
        return 1
    for key, entry in summary.items():
        print(f"{key}: {entry['runs']} runs, seeds {entry['seeds']}, "
              f"all correct: {entry['all_correct']}")
        for name, m in entry["metrics"].items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"  {name} = {m['median']:.6g} {m['unit']} "
                  f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, spread {spread})")
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
