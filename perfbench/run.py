"""Benchmark of the srings CLI: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload <ledger|census|lattice|families> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout.  A run repeats the workload's
requests, in a seed-shuffled order, for about --seconds.  Each repetition
(a pass) runs in a fresh workload process: one thread, closed loop, one
request at a time, and at most two processes (this one and the workload
process) alive.  Before each pass, PROBES_PER_PASS more fresh interpreters
measure set-up alone; after the passes, more of them do until the measured
time is used up, and until there are at least SETUP_PROBES set-up samples.
Every output is checked against a reference that does not come from
srings, after the workload process has ended.  The last line of stdout is
a JSON object: with --trace 0 it holds the end-to-end metrics, with
--trace 1 the per-layer metrics of one traced pass.

The speed of a shared host changes by tens of percent within seconds, in
srings and in any other code alike.  So the end-to-end times are given in
reference seconds: each pass's measured seconds times REF_S over the median
time of the fixed reference kernel that speed.SpeedProbe ran during that
pass; setup_s is scaled by the median over the run's passes.  On a host
that runs the kernel in REF_S, reference seconds are seconds; the measured
seconds are printed as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.dont_write_bytecode = True

from perfbench.checks import Checker  # noqa: E402
from perfbench.trace import METRICS, LAYERS  # noqa: E402
from perfbench.workloads import WORKLOADS, requests  # noqa: E402

WORKER = ROOT / "perfbench" / "worker.py"
SRC = ROOT / "src"
LEDGER = SRC / "srings" / "ledger" / "book_claims.txt"
PROBES_PER_PASS = 3  # set-up-only interpreters before each pass
SETUP_PROBES = 16  # least number of set-up samples in a run
DEADLINE_S = 170.0
REF_S = 0.001  # reference seconds of one run of speed.reference_kernel


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # compiled srings is cached under .bench_build
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]),
        PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"),
    )
    return env


def run_child(args: list[str], deadline: float) -> list[dict]:
    """Run a worker to completion and return its JSON messages."""
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def run_pass(args, deadline: float, trace: int, setups: list[float]) -> tuple[dict, dict]:
    """One pass in a fresh workload process: (its first message, the pass
    with the outcomes of its requests in order)."""
    head, *messages = run_child([args.workload, str(args.seed), str(trace)], deadline)
    result = messages.pop()
    result["outcomes"] = [m["outcome"] for m in messages]
    setups.append(head["setup_s"])
    return head, result


def measure(args, deadline: float) -> tuple[dict, list[dict], list[float]]:
    """Run the passes; returns a worker header, the passes and the set-up
    samples."""
    setups: list[float] = []

    def probe() -> None:
        setups.append(run_child(["--setup"], deadline)[0]["setup_s"])

    # fills the byte-code cache of a fresh checkout, so no measured process compiles
    run_child(["--setup"], deadline)
    if args.trace:
        head, traced = run_pass(args, deadline, 1, setups)
        return head, [traced], setups
    passes = []
    start = monotonic()
    while True:
        began = monotonic()
        for _ in range(PROBES_PER_PASS):
            probe()
        head, p = run_pass(args, deadline, 0, setups)
        passes.append(p)
        # another pass only if it is expected to end within the measured time
        if monotonic() - start + (monotonic() - began) > args.seconds:
            break
    while len(setups) < SETUP_PROBES or monotonic() - start < args.seconds:
        probe()
    return head, passes, setups


def src_python_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = monotonic() + DEADLINE_S
    if not (SRC / "srings" / "cli.py").is_file() or not LEDGER.is_file():
        print(f"error: no srings source tree under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    try:
        head, passes, setups = measure(args, deadline)
    except (RuntimeError, ValueError, KeyError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    checker = Checker(LEDGER.read_text(encoding="utf-8"))
    attempted, failures = checker.judge(requests(args.workload, args.seed), passes)

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# meta nproc={os.cpu_count()} python={head['python']} numpy={head['numpy']} "
          f"platform={platform.machine()} src_python_lines={src_python_lines()}")
    print("# pass wall (measured s): " + ", ".join(f"{p['wall_s']:.3f}" for p in passes))
    for reason in failures[:20]:
        print(f"# FAILED {reason}")
    print(f"failed_ratio {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted} requests)")

    if args.trace:
        traced = passes[0]
        values = traced["recorder"]
        metrics = {k: {"value": values[k], "unit": u} for k, u in METRICS.items()}
        print(f"# layer shares of the traced pass ({traced['wall_s']:.3f} s):")
        for layer in sorted(LAYERS, key=lambda name: -values[f"{name}.share_pct"]):
            print(f"#   {layer:<14}{values[f'{layer}.share_pct']:6.1f} %")
    else:
        scaled = [p["wall_s"] * REF_S / p["ref_s"] for p in passes]
        print("# pass (reference s): " + ", ".join(f"{t:.3f}" for t in scaled))
        ref = statistics.median(p["ref_s"] for p in passes)
        wall = statistics.median(p["wall_s"] for p in passes)
        setup = statistics.median(setups)
        print(f"# reference kernel {ref * 1e3:.4f} ms (median over passes of"
              f" {sum(p['ref_samples'] for p in passes)} samples); measured pass {wall:.4f} s,"
              f" setup {setup:.4f} s ({len(setups)} samples)")
        metrics = {
            "pass_s": {"value": statistics.median(scaled), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["maxrss_kb"] for p in passes) / 1024.0,
                            "unit": "MB"},
            "setup_s": {"value": setup * REF_S / ref, "unit": "s"},
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
