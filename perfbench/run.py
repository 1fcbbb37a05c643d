"""Repository benchmark: fixed, seeded work on three workloads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 21 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics (see perfbench/README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from statistics import median

from harness import (
    PROCESSES,
    ROOT,
    WORKLOADS,
    Ledger,
    envelope,
    percentile,
    work_units,
)

#: Wall-clock budget of one run, below the 180 s a run may take.
BUDGET_S = 170.0


class RunFailed(Exception):
    pass


def launch(workload: str, seed: int, units: int, trace: int, deadline: float) -> dict:
    """Run one workload process to completion and parse its result."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"),
           "--workload", workload, "--seed", str(seed), "--units", str(units),
           "--trace", str(trace), "--t0", repr(time.monotonic())]
    # Its own process group, so a timeout can stop the service worker
    # processes a workload process starts, not just the process itself.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"{workload} process exceeded the {BUDGET_S:.0f} s budget")
    if proc.returncode != 0:
        raise RunFailed(f"{workload} process exited with {proc.returncode}:\n{err}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RunFailed(f"{workload} process printed no result:\n{out}\n{err}") from None


def end_to_end(runs: list[dict]) -> dict:
    latencies = [lat for r in runs for lat in r["latencies_ms"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    outputs = runs[0]["outputs"]
    return {
        "setup_s": median(r["setup_s"] for r in runs),
        "throughput_ops_s": median(r["attempted"] / r["elapsed_s"] for r in runs),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p95_ms": percentile(latencies, 95),
        "latency_p99_ms": percentile(latencies, 99),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in runs),
        "slr_geomean": outputs["slr_geomean"],
        "job_slowdown_mean": outputs["job_slowdown_mean"],
        "success_ratio": 1.0 - failed / attempted,
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    layers = dict(traced["layers"])
    layers["import.repro_s"] = traced["import_s"]
    layers["trace.overhead_ratio"] = (
        (traced["attempted"] / traced["elapsed_s"])
        / (untraced["attempted"] / untraced["elapsed_s"])
    )
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = work_units(args.workload, args.seconds)
    deadline = time.monotonic() + BUDGET_S
    modes = [0] * PROCESSES if args.trace == 0 else [0, 1]
    try:
        runs = [launch(args.workload, args.seed, units, mode, deadline) for mode in modes]
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env = envelope(args.workload, args.seed, args.seconds, units)
    print("envelope " + json.dumps(env, sort_keys=True))
    for i, r in enumerate(runs):
        print(f"process {i} trace={modes[i]} setup_s={r['setup_s']:.4f} "
              f"elapsed_s={r['elapsed_s']:.4f} attempted={r['attempted']} "
              f"failed={r['failed']} outputs={json.dumps(r['outputs'], sort_keys=True)}")

    # The same code on the same inputs must give the same outputs: in
    # every process of this run, and in every earlier run recorded.
    consistent = all(r["outputs"] == runs[0]["outputs"] for r in runs)
    if not consistent:
        print("perfbench: outputs differ between processes of one run", file=sys.stderr)
    key = f"{args.workload}|{args.seed}|{units}|{env['code_digest']}"
    earlier = Ledger(ROOT / ".bench_state" / "ledger.json").check_and_record(
        key, runs[0]["outputs"])
    if earlier is not None:
        print(f"perfbench: outputs differ from an earlier run: {earlier}", file=sys.stderr)

    if args.trace == 0:
        values, section = end_to_end(runs), spec["end_to_end"]
    else:
        values, section = per_layer(*runs), spec["per_layer"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and consistent and earlier is None
    metrics = {
        # A layer that is not on this workload's path reads 0.
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in section
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
