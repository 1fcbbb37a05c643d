"""Compiled cold-path benchmark: flat-array executor vs object path.

Two measurements, both against the scalar object path
(``repro.compiled.use_executor(False)``), which still reads the
instance kernel's cached ranks and memo tables — i.e. the speedup
attributable to the compiled executor alone, not to the rank caches:

* **bit-identity** — every routed scheduler over the full 56-instance
  differential corpus (all four rank aggregations via the HEFT variants
  and the IMP rank search, insertion on and off, duplication/lookahead/
  refinement on), comparing complete serialized payloads;
* **end-to-end speedup** — HEFT and IMP on 100/200/300-task instances,
  min-of-reps wall time, geometric mean across all (alg, size) points.

Writes ``BENCH_coldpath.json`` at the repo root.  Run directly to
regenerate:

    PYTHONPATH=src python benchmarks/bench_coldpath.py

The pytest wrapper is the PR's acceptance gate: zero corpus mismatches
and a >= 3x geomean cold-path speedup.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    # The differential corpus lives in the tests package; direct
    # ``python benchmarks/bench_coldpath.py`` runs need the repo root.
    sys.path.insert(0, str(ROOT))

from repro.bench import workloads as W
from repro.compiled import use_executor
from repro.core import ImprovedConfig, ImprovedScheduler
from repro.schedulers.registry import get_scheduler
from repro.service.protocol import schedule_payload
from repro.utils.rng import as_generator
from tests.population import build_population

OUT = ROOT / "BENCH_coldpath.json"

#: Schedulers routed through the compiled executor; the HEFT variants
#: cover all four rank aggregations.
ROUTED = ["HEFT", "HEFT-median", "HEFT-best", "HEFT-worst",
          "CPOP", "HCPT", "PETS", "DLS", "HLFET", "MCP", "IMP",
          "LA-HEFT", "DUP-HEFT", "ETF"]

#: Timed end-to-end points (scheduler, task count, timing repetitions).
POINTS = [(alg, n, 5 if alg == "HEFT" else 3)
          for n in (100, 200, 300) for alg in ("HEFT", "IMP")]


def _payload(schedule, instance, alg) -> str:
    return json.dumps(schedule_payload(schedule, instance, alg), sort_keys=True)


def check_corpus_identity() -> dict:
    """Compiled vs object payloads over the full differential corpus."""
    population = build_population()
    checked = 0
    mismatches: list[str] = []
    insertion_off = ImprovedConfig(insertion=False)
    for label, inst in population:
        for alg in ROUTED:
            scheduler = get_scheduler(alg)
            fast = scheduler.schedule(inst)
            with use_executor(False):
                ref = scheduler.schedule(inst)
            checked += 1
            if _payload(fast, inst, alg) != _payload(ref, inst, alg):
                mismatches.append(f"{label}/{alg}")
        fast = ImprovedScheduler(insertion_off).schedule(inst)
        with use_executor(False):
            ref = ImprovedScheduler(insertion_off).schedule(inst)
        checked += 1
        if _payload(fast, inst, "IMP") != _payload(ref, inst, "IMP"):
            mismatches.append(f"{label}/IMP-noinsert")
    return {
        "instances": len(population),
        "schedules_checked": checked,
        "mismatches": mismatches,
    }


def measure_speedups() -> dict:
    """Min-of-reps wall time, compiled vs object path, per (alg, n)."""
    results = []
    for alg, n, reps in POINTS:
        inst = W.random_instance(as_generator(n), num_tasks=n, num_procs=8)
        scheduler = get_scheduler(alg)
        scheduler.schedule(inst)  # warm the kernel/lowering caches
        compiled_times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fast = scheduler.schedule(inst)
            compiled_times.append(time.perf_counter() - t0)
        with use_executor(False):
            scheduler.schedule(inst)
            object_times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                ref = scheduler.schedule(inst)
                object_times.append(time.perf_counter() - t0)
        assert _payload(fast, inst, alg) == _payload(ref, inst, alg), (alg, n)
        t_fast, t_ref = min(compiled_times), min(object_times)
        results.append({
            "alg": alg,
            "num_tasks": n,
            "object_ms": t_ref * 1e3,
            "compiled_ms": t_fast * 1e3,
            "speedup": t_ref / t_fast,
        })
    geomean = math.exp(
        sum(math.log(r["speedup"]) for r in results) / len(results)
    )
    return {"points": results, "geomean_speedup": geomean}


def run_coldpath() -> dict:
    return {
        "identity": check_corpus_identity(),
        "timing": measure_speedups(),
    }


def test_coldpath_gate():
    """Acceptance gate: bit-identity is hard; the speedup floor is the
    PR's >= 3x geomean target (min-of-reps absorbs shared-CI jitter)."""
    report = run_coldpath()
    assert report["identity"]["mismatches"] == [], report["identity"]
    assert report["timing"]["geomean_speedup"] >= 3.0, report["timing"]


def main() -> None:
    report = run_coldpath()
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    ident = report["identity"]
    print(f"corpus identity  : {ident['schedules_checked']} schedules over "
          f"{ident['instances']} instances, {len(ident['mismatches'])} mismatches")
    for r in report["timing"]["points"]:
        print(f"{r['alg']:5s} n={r['num_tasks']:3d} : object {r['object_ms']:8.2f}ms "
              f"compiled {r['compiled_ms']:7.2f}ms  {r['speedup']:5.2f}x")
    print(f"geomean speedup  : {report['timing']['geomean_speedup']:.2f}x")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
