"""Repeat the benchmark over seeds and summarise the spread of each metric.

    python3 perfbench/baseline.py [--trace] [--out perfbench/BASELINE.json] \
        [--compare perfbench/BASELINE.json]

Runs perfbench/run.py once per seed 1..10 on each workload of
BENCHMARK.json, with its run_seconds, one run at a time, and prints every
end-to-end metric with its unit plus failed_ratio.  For every metric it
reports the median, the quartiles and the spread (distance between the
quartiles over the median), the figure each bound in BENCHMARK.json is set
against.  --trace adds one traced run (seed 0) per workload with each
layer's share of the traced pass; --out writes everything as JSON;
--compare reports each median's change against a file written by --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its result object and its metadata line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    meta = next(line for line in lines if line.startswith("# meta "))
    return json.loads(lines[-1]), dict(kv.split("=", 1) for kv in meta.split()[2:])


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "values": values, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", type=Path)
    args = ap.parse_args()
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    before = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    report = {"recorded": time.strftime("%Y-%m-%d"), "run_seconds": seconds, "runs": RUNS,
              "workloads": {}}
    for workload in (w["name"] for w in config["workloads"]):
        results, meta = [], {}
        for seed in range(1, RUNS + 1):
            result, meta = run(workload, seed, seconds, 0)
            results.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items())
                + f", failed_ratio {result['failed'] / result['attempted']:.3g}"
                f" ({result['failed']}/{result['attempted']})", flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                name: spread([r["metrics"][name]["value"] for r in results]) for name in bounds
            },
        }
        entry["failed_ratio"] = entry["failed"] / entry["attempted"]
        for name, s in entry["end_to_end"].items():
            line = (f"  {workload} {name}: median {s['median']:.4g} q1 {s['q1']:.4g}"
                    f" q3 {s['q3']:.4g} spread {s['spread']:.3f} bound {bounds[name]}")
            if workload in before:
                old = before[workload]["end_to_end"][name]["median"]
                change = (s["median"] - old) / old
                line += f" change {change:+.3f}" + (" WORSE THAN BOUND" if change > bounds[name] else "")
            print(line, flush=True)
        if args.trace:
            traced, _ = run(workload, 0, seconds, 1)
            entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
            shares = {k.split(".")[0]: v for k, v in entry["per_layer"].items()
                      if k.endswith(".share_pct")}
            print("  shares: " + ", ".join(
                f"{k} {v:.1f}%" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        report["meta"] = meta
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
