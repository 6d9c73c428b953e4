"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload iterate --seed 1 --seconds 20 \
        --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Lines before it, starting with
``#``, carry the run's detail: host fingerprint, seed, sample counts and
tail percentiles, write latencies, the open-loop ramp of a traced
serve run, and any wrong answers.  The exit code is 1 when an answer
is wrong and 2 when the engine's sources cannot be found.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("iterate", "refresh", "serve", "mpp"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"error: engine sources not found under {SOURCES}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    sys.path.insert(0, str(HERE))
    from benchkit import harness

    return report(harness.run(args.workload, args.seed, args.seconds,
                              bool(args.trace), trace_dir=HERE / "results"))


def report(result: dict) -> int:
    """Print a result of ``harness.run``; returns the exit code."""
    detail = result.pop("detail")
    for error in detail.get("errors", []):
        print(f"# wrong answer: {error}")
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
