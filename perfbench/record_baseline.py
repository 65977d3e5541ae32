"""Record the benchmark's baseline: run-to-run spread and tracing overhead.

Run from the root of a checkout, with nothing else running:

    python3 perfbench/record_baseline.py --host "2-vCPU VM, ..."

For every workload in BENCHMARK.json it makes two sets of RUNS untraced
runs on different seeds, then TRACED traced runs, each of the spec's
run_seconds.  The spread of a metric is the distance between the first
and third quartile of a set's values (statistics.quantiles, n=4) over their
median; the shift is the second set's median against the first's.  The
result is written to perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10  # untraced runs per set, as many as the acceptance check makes
TRACED = 3
FIRST_SEED = 71


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}, {proc.stdout.splitlines()[0]}",
          flush=True)
    return result


def untraced_set(workload: str, seeds: list[int], seconds: int) -> dict:
    results = [run_once(workload, s, seconds, 0) for s in seeds]
    metrics = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        metrics[name] = {"median": median, "spread": (q[2] - q[0]) / median, "values": values}
    return {"seeds": seeds, "all_correct": all(r["correct"] and r["failed"] == 0 for r in results),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--host", required=True, help="the hardware, for the record")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    set_a = list(range(FIRST_SEED, FIRST_SEED + RUNS))
    set_b = list(range(FIRST_SEED + RUNS, FIRST_SEED + 2 * RUNS))
    out = {"host": args.host, "run_seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        a = untraced_set(name, set_a, seconds)
        b = untraced_set(name, set_b, seconds)
        traced = [run_once(name, s, seconds, 1) for s in set_a[:TRACED]]
        layer = {m: [r["metrics"][m]["value"] for r in traced] for m in traced[0]["metrics"]}
        out["workloads"][name] = {
            "setA": a, "setB": b,
            "shift": {m: b["metrics"][m]["median"] / a["metrics"][m]["median"] - 1 for m in a["metrics"]},
            "traced": {"seeds": set_a[:TRACED], "all_correct": all(r["correct"] for r in traced),
                       "metrics": layer},
            "tracing_overhead_ms": statistics.median(layer["trace.op_ms_p50"])
            - a["metrics"]["op_ms_p50"]["median"],
        }
        for m, v in a["metrics"].items():
            print(f"  {name} {m}: spread {v['spread']:.3f} / {b['metrics'][m]['spread']:.3f}, "
                  f"shift {out['workloads'][name]['shift'][m]:+.3f}", flush=True)
    (BENCH / "baseline.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
