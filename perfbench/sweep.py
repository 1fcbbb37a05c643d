"""``sweep``: the paper's comparison, one instance at a time.

Each instance goes once through ``run_instances(COMPARED_WIDE, [inst],
check=True)``: all eleven schedulers, every schedule validated.  A
round holds one instance of each of four kinds, all with about 100
tasks on 8 processors:

* heterogeneous random DAG, CCR cycling through 0.5, 1 and 5;
* homogeneous random DAG (identical processors);
* structured DAG, cycling Gaussian elimination (90 tasks), FFT (95)
  and Laplace (100);
* random DAG on a 2x4 mesh with per-link communication, which the
  compiled executor cannot lower, so every scheduler takes its object
  path.

Instances are never reused: the lowering cached on an ``Instance``
would turn a second pass into a cache hit.
"""

from __future__ import annotations

import math
import time
from statistics import median
from types import SimpleNamespace

from harness import compiled_share, digest, geomean

CCRS = (0.5, 1.0, 5.0)
TASKS = 100
PROCS = 8


def import_repro() -> SimpleNamespace:
    from repro import compiled
    from repro.bench import workloads as W
    from repro.bench.runner import run_instances
    from repro.dag.generators import random_dag
    from repro.instance import Instance
    from repro.machine.etc import generate_etc
    from repro.machine.topology import mesh_machine
    from repro.schedule.validation import validate
    from repro.schedulers.registry import get_scheduler
    from repro.utils.rng import spawn_children

    return SimpleNamespace(**locals())


def make_instances(api, seed: int, rounds: int) -> list:
    """The operation list: ``rounds`` x (one instance of each kind)."""
    W = api.W
    streams = api.spawn_children(seed, 4 * rounds)
    structured = (
        lambda rng: W.gaussian_instance(rng, matrix_size=13, num_procs=PROCS),
        lambda rng: W.fft_instance(rng, points=16, num_procs=PROCS),
        lambda rng: W.laplace_instance(rng, grid_size=10, num_procs=PROCS),
    )

    def mesh(rng):
        dag = api.random_dag(TASKS, ccr=1.0, seed=int(rng.integers(0, 2**62)))
        machine = api.mesh_machine(2, PROCS // 2)
        etc = api.generate_etc(dag, machine, heterogeneity=0.5,
                               seed=int(rng.integers(0, 2**62)))
        return api.Instance(dag=dag, machine=machine, etc=etc)

    out = []
    for r in range(rounds):
        rngs = streams[4 * r: 4 * r + 4]
        out.append(W.random_instance(rngs[0], num_tasks=TASKS, num_procs=PROCS,
                                     ccr=CCRS[r % 3]))
        out.append(W.homogeneous_random_instance(rngs[1], num_tasks=TASKS,
                                                 num_procs=PROCS))
        out.append(structured[r % 3](rngs[2]))
        out.append(mesh(rngs[3]))
    return out


def run(seed: int, units: int, trace: bool, clock) -> dict:
    with clock.importing():
        api = import_repro()
    algs = api.W.COMPARED_WIDE
    with clock.excluded():
        instances = make_instances(api, seed, units)
    clock.ready()

    api.compiled.reset_schedule_counters()
    makespans: list[list[float] | None] = []
    latencies, failed = [], 0
    layers: dict[str, list[float]] = {f"sched.{a}.ms": [] for a in algs}
    layers["schedule.validate_ms"] = []
    layers["compiled.lower_ms"] = []
    start = time.perf_counter()
    for inst in instances:
        t0 = time.perf_counter()
        try:
            if trace:
                row = _run_traced(api, algs, inst, layers)
            else:
                row = api.run_instances(algs, [inst], check=True)
                row = [row[a][0] for a in algs]
        except Exception:
            row = None
            failed += len(algs)
        latencies.append((time.perf_counter() - t0) * 1e3)
        makespans.append(row)
    elapsed = time.perf_counter() - start
    counters = api.compiled.schedule_counters()

    ratios = [
        ms / inst.cp_min_length
        for inst, row in zip(instances, makespans) if row is not None for ms in row
    ]
    outputs = {
        "operations": digest(inst.fingerprint() for inst in instances),
        "makespans": digest(repr(row) for row in makespans),
        "slr_geomean": geomean(ratios) if ratios else math.inf,
        # Every sweep schedule is planned for an idle machine, so each
        # job's schedule length equals its idle-machine length.
        "job_slowdown_mean": 1.0,
        "compiled_share": compiled_share(counters),
    }
    result = {
        "attempted": len(instances) * len(algs),
        "failed": failed,
        "elapsed_s": elapsed,
        "latencies_ms": latencies,
        "outputs": outputs,
    }
    if trace:
        result["layers"] = {
            name: median(vals) if vals else 0.0 for name, vals in layers.items()
        } | {"compiled.share": outputs["compiled_share"]}
    return result


def _run_traced(api, algs, inst, layers) -> list[float]:
    """The work of one ``run_instances`` call, with each layer timed."""
    t = time.perf_counter()
    lowered = api.compiled.compile_instance(inst)
    if lowered is not None:
        layers["compiled.lower_ms"].append((time.perf_counter() - t) * 1e3)
    row = []
    for alg in algs:
        t = time.perf_counter()
        schedule = api.get_scheduler(alg).schedule(inst)
        t1 = time.perf_counter()
        api.validate(schedule, inst)
        t2 = time.perf_counter()
        layers[f"sched.{alg}.ms"].append((t1 - t) * 1e3)
        layers["schedule.validate_ms"].append((t2 - t1) * 1e3)
        row.append(schedule.makespan)
    return row
