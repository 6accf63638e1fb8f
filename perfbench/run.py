"""The repository benchmark.

    python3 perfbench/run.py --workload {sweep,serve,watch,all} \\
        --seed N --seconds S --trace {0,1}

Runs one workload against the sources in ``src/`` of the checkout it
sits in, checks every output, prints each figure by name with its unit
and sample count, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones listed in
``BENCHMARK.json``, measured with no tracing; ``--trace 1`` also makes a
traced run and reports the per-layer ones. ``--workload all`` runs the
three in turn and ends with one JSON object per workload. The harness's
own statistics are self-tested before anything is measured.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import unittest

import harness
import workloads

WORKLOADS = ("sweep", "serve", "watch")


def self_test() -> bool:
    suite = unittest.defaultTestLoader.loadTestsFromName("test_harness")
    result = unittest.TextTestRunner(stream=io.StringIO()).run(suite)
    for _, trace in result.failures + result.errors:
        print(trace, file=sys.stderr)
    return result.wasSuccessful()


def measure(workload: str, seed: int, seconds: float, trace: bool) -> workloads.Outcome:
    if workload == "serve":
        return workloads.run_serve(seed, seconds, trace)
    return workloads.run_batch(workload, seed, seconds, trace)


def result_line(out: workloads.Outcome, spec: dict, trace: bool) -> dict:
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        if trace:
            value = out.layers.get(name, (0.0, unit))[0]
        else:
            value = out.e2e[name][0] if name in out.e2e else 0.0
            if name not in out.e2e:
                out.correct = False
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": out.correct and out.failed == 0,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": metrics,
    }


def report(workload: str, out: workloads.Outcome, trace: bool) -> None:
    failed_ratio = ("failed_ratio", out.failed / max(out.attempted, 1),
                    "ratio", out.attempted)
    for name, value, unit, n in [*out.report, failed_ratio]:
        print(f"{workload:6} {name:24} {value:14.6f} {unit:6} n={n}")
    if trace:
        for name, (value, unit) in sorted(out.layers.items()):
            print(f"{workload:6} {name:32} {value:14.6f} {unit}")
    for problem in out.problems:
        print(f"{workload:6} FAILED {problem}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (harness.ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program sources (src/repro) in this checkout",
              file=sys.stderr)
        return 2
    if not self_test():
        print("perfbench: harness self-test failed", file=sys.stderr)
        return 1
    sys.path.insert(0, str(harness.ROOT / "src"))
    harness.WORK.mkdir(exist_ok=True)
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    trace = bool(args.trace)

    print(f"provenance {json.dumps(harness.provenance(), sort_keys=True)}")
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for workload in chosen:
        out = measure(workload, args.seed, args.seconds, trace)
        report(workload, out, trace)
        lines[workload] = result_line(out, spec, trace)
    print(json.dumps(lines[args.workload] if len(lines) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
