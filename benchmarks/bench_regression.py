"""Hot-path performance regression harness.

Times the E1-style replication sweep four ways — the scalar object path
(serial, compiled executor switched off with
``repro.compiled.use_executor(False)``), the production path (serial),
and the parallel runner at 2 and 4 workers — verifies all four produce
*identical* per-replication results, microbenchmarks the cached rank
kernel against its scalar reference, and writes everything to
``BENCH_hotpath.json`` at the repo root.

Run directly to regenerate the JSON:

    PYTHONPATH=src python benchmarks/bench_regression.py

The pytest wrapper re-runs the sweep comparison with a soft threshold so
a silent performance regression (or a broken equivalence) fails CI.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.bench import workloads as W
from repro.bench.runner import run_sweep
from repro.compiled import use_executor
from repro.schedulers.ranking import upward_ranks, upward_ranks_scalar

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_hotpath.json"

# E1-style sweep: the paper's compared set over random DAG sizes.  Sized
# so process-pool startup (~0.1 s) amortizes on small machines while the
# whole harness stays under a couple of minutes.
SWEEP = dict(
    scheduler_names=W.COMPARED,
    x_name="num_tasks",
    x_values=[40, 80, 120],
    instance_factory=W.SweepFactory(kind="random", param="num_tasks"),
    reps=6,
    metric="slr",
    seed=101,
    check=False,
)


def _time_sweep(workers: int, compiled: bool) -> tuple[float, object]:
    with use_executor(compiled):
        t0 = time.perf_counter()
        res = run_sweep(workers=workers, **SWEEP)
        elapsed = time.perf_counter() - t0
    return elapsed, res


def _bench_ranks(trials: int = 20) -> dict[str, float]:
    inst = W.random_instance(np.random.default_rng(5), num_tasks=120, num_procs=8)
    t0 = time.perf_counter()
    for _ in range(trials):
        upward_ranks_scalar(inst)
    scalar = (time.perf_counter() - t0) / trials
    inst.kernel.upward("mean")  # warm the level structure once
    t0 = time.perf_counter()
    for _ in range(trials):
        # fresh instance-equivalent call path minus the one-time build
        dict(inst.kernel.upward("mean"))
    vectorized = (time.perf_counter() - t0) / trials

    # Cold path: one first call per FRESH instance, both legs, so the
    # comparison is first-call vs first-call (the vectorized leg pays
    # the kernel's adjacency memo, the scalar leg pays the uncached
    # per-edge lookups).  Instances are pre-generated OUTSIDE the timed
    # region — the old harness generated them inside the loop, so the
    # "cold" number mostly measured workload generation.
    def fresh() -> list:
        return [
            W.random_instance(np.random.default_rng(5), num_tasks=120, num_procs=8)
            for _ in range(trials)
        ]

    cold_insts = fresh()
    t0 = time.perf_counter()
    for cold in cold_insts:
        upward_ranks_scalar(cold)
    scalar_cold = (time.perf_counter() - t0) / trials
    cold_insts = fresh()
    t0 = time.perf_counter()
    for cold in cold_insts:
        upward_ranks(cold)
    end_to_end = (time.perf_counter() - t0) / trials
    return {
        "scalar_s": scalar,
        "scalar_cold_s": scalar_cold,
        "vectorized_cached_s": vectorized,
        "vectorized_cold_s": end_to_end,
        "speedup_cached": scalar / vectorized if vectorized > 0 else float("inf"),
        "speedup_cold": scalar_cold / end_to_end if end_to_end > 0 else float("inf"),
    }


def run_regression() -> dict:
    legacy_s, legacy = _time_sweep(workers=1, compiled=False)
    fast_s, fast = _time_sweep(workers=1, compiled=True)
    par2_s, par2 = _time_sweep(workers=2, compiled=True)
    par4_s, par4 = _time_sweep(workers=4, compiled=True)

    identical = all(r.raw == legacy.raw and r.series == legacy.series for r in (fast, par2, par4))

    return {
        "sweep": {
            "config": {k: str(v) if k == "instance_factory" else v for k, v in SWEEP.items()},
            "legacy_serial_s": legacy_s,
            "optimized_serial_s": fast_s,
            "parallel2_s": par2_s,
            "parallel4_s": par4_s,
            "speedup_serial": legacy_s / fast_s,
            "speedup_parallel4_vs_legacy": legacy_s / par4_s,
            "results_identical_across_modes": identical,
        },
        "ranks": _bench_ranks(),
    }


def test_hotpath_regression():
    """Equivalence is a hard gate; speed a soft one (CI boxes vary)."""
    report = run_regression()
    sweep = report["sweep"]
    assert sweep["results_identical_across_modes"], "parallel/vectorized results diverged"
    best = min(sweep["optimized_serial_s"], sweep["parallel4_s"])
    assert sweep["legacy_serial_s"] / best >= 1.5, (
        f"hot path slower than expected: {sweep}"
    )
    assert report["ranks"]["speedup_cached"] > 1.0
    # First-call (cold) ranks must not regress below the scalar path:
    # small instances take the scalar recurrence over memoized adjacency
    # instead of paying the level build.
    assert report["ranks"]["speedup_cold"] > 1.0


def main() -> None:
    report = run_regression()
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    sweep = report["sweep"]
    print(f"legacy serial     : {sweep['legacy_serial_s']:.3f}s")
    print(f"optimized serial  : {sweep['optimized_serial_s']:.3f}s "
          f"({sweep['speedup_serial']:.2f}x)")
    print(f"parallel x2       : {sweep['parallel2_s']:.3f}s")
    print(f"parallel x4       : {sweep['parallel4_s']:.3f}s "
          f"({sweep['speedup_parallel4_vs_legacy']:.2f}x vs legacy)")
    print(f"identical results : {sweep['results_identical_across_modes']}")
    print(f"rank kernel       : {report['ranks']['speedup_cached']:.1f}x")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
