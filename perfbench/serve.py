"""``serve``: the service on the binary wire, 90% warm and 10% cold.

Two ``ServiceClient`` connections run a closed loop over one fixed
request list (a caller awaits its reply before sending the next).  They
talk to an in-process ``FleetRouter`` that forwards to one in-process
``ScheduleServer`` on ``SchedulingEngine(workers=1)``: the load
generator, router and server share one core, the worker uses the other.

Every tenth request is a cold IMP request for an 80-task, 8-processor
instance the server has never seen; the other nine repeat one of the
64 warm instances prefilled during set-up.  The warm class sets p50,
the cold class sets p95 and p99, and the run checks that the realized
split matches the plan.  The cache holds every entry of a run, so
nothing is evicted.
"""

from __future__ import annotations

import asyncio
import math
import time
from contextlib import AsyncExitStack
from statistics import median
from types import SimpleNamespace

from harness import digest, geomean

ALG = "IMP"
TASKS = 80
PROCS = 8
WARM_SET = 64
COLD_EVERY = 10
CONNECTIONS = 2

#: Response fields that vary per request; the rest of a payload must
#: equal the one the prefill stored for the same instance.
ENVELOPE = ("cache_hit", "fingerprint", "server_ms", "trace_id")


def import_repro() -> SimpleNamespace:
    from repro.bench import workloads as W
    from repro.schedule.validation import validate
    from repro.service import (
        EngineConfig,
        ScheduleServer,
        SchedulingEngine,
        ServiceClient,
        wire,
    )
    from repro.service.fleet import FleetRouter
    from repro.service.protocol import compute_schedule_payload
    from repro.utils.rng import spawn_children

    return SimpleNamespace(**locals())


def make_plan(requests: int, warm_set: int, rng) -> list[tuple[str, int]]:
    """``("cold", i)`` for every tenth request (cold instances in order),
    ``("warm", j)`` otherwise, with ``j`` drawn from ``rng``."""
    plan, cold = [], 0
    for i in range(requests):
        if i % COLD_EVERY == 0:
            plan.append(("cold", cold))
            cold += 1
        else:
            plan.append(("warm", int(rng.integers(0, warm_set))))
    return plan


def strip(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in ENVELOPE}


def check_response(api, result, instance, expected: dict | None) -> bool:
    """A warm response must equal its prefill payload; any other must
    decode and pass ``validate``."""
    try:
        if expected is not None:
            return strip(result.payload) == expected
        api.validate(result.to_schedule(instance.machine), instance)
        return True
    except Exception:
        return False


def timed_per_call_us(fn, repeat: int) -> float:
    """Mean microseconds of ``fn()`` over ``repeat`` back-to-back calls."""
    t0 = time.perf_counter()
    for _ in range(repeat):
        fn()
    return (time.perf_counter() - t0) * 1e6 / repeat


def run(seed: int, units: int, trace: bool, clock) -> dict:
    return asyncio.run(_run(seed, units * COLD_EVERY, trace, clock))


async def _closed_loop(clients, instances) -> list:
    """Each client requests the next unsent instance once its reply is
    back; returns ``(latency_ms, reply or exception)`` per instance."""
    out = [None] * len(instances)
    pending = iter(range(len(instances)))

    async def loop(client):
        for i in pending:
            t0 = time.perf_counter()
            try:
                reply = await client.schedule(instances[i], alg=ALG)
            except Exception as exc:  # counted as a failed operation
                reply = exc
            out[i] = ((time.perf_counter() - t0) * 1e3, reply)

    await asyncio.gather(*(loop(c) for c in clients))
    return out


async def _run(seed: int, requests: int, trace: bool, clock) -> dict:
    with clock.importing():
        api = import_repro()
    with clock.excluded():
        plan_rng, *streams = api.spawn_children(seed, 1 + WARM_SET + requests)
        plan = make_plan(requests, WARM_SET, plan_rng)
        n_cold = sum(kind == "cold" for kind, _ in plan)
        warm = [api.W.random_instance(r, num_tasks=TASKS, num_procs=PROCS)
                for r in streams[:WARM_SET]]
        cold = [api.W.random_instance(r, num_tasks=TASKS, num_procs=PROCS)
                for r in streams[WARM_SET:WARM_SET + n_cold]]
    pool = {"warm": warm, "cold": cold}
    ops = [pool[kind][i] for kind, i in plan]

    engine = api.SchedulingEngine(api.EngineConfig(
        workers=1, cache_size=WARM_SET + n_cold + 16))
    server = api.ScheduleServer(engine, port=0)
    router = api.FleetRouter(port=0, health_interval=0.0)
    async with AsyncExitStack() as stack:
        await server.start()
        stack.push_async_callback(server.stop)
        router.add_shard("shard0", "127.0.0.1", server.port)
        await router.start()
        stack.push_async_callback(router.stop)
        clients = [api.ServiceClient(port=router.port, request_timeout=120.0)
                   for _ in range(CONNECTIONS)]
        direct = api.ServiceClient(port=server.port, request_timeout=120.0)
        for c in (*clients, direct):
            stack.push_async_callback(c.close)

        prefill = await _closed_loop(clients, warm)
        clock.ready()

        stats0 = await direct.stats()
        start = time.perf_counter()
        answers = await _closed_loop(clients, ops)
        elapsed = time.perf_counter() - start
        stats1 = await direct.stats()
        if trace:
            layers = await _probe_layers(api, warm, cold, prefill, answers, plan,
                                         clients[0], direct)
        retries = router.stats.retries

    # -- correctness: prefill once, then every measured response -------
    expected = []
    for inst, (_, reply) in zip(warm, prefill):
        ok = not isinstance(reply, Exception) and check_response(api, reply, inst, None)
        expected.append(strip(reply.payload) if ok else None)
    failed, hits, ratios, seen = 0, 0, [], []
    for (kind, i), inst, (_, reply) in zip(plan, ops, answers):
        if isinstance(reply, Exception):
            failed += 1
            seen.append("error")
            continue
        hits += reply.cache_hit
        good = reply.cache_hit == (kind == "warm")
        if kind == "warm":
            good = good and expected[i] is not None and check_response(
                api, reply, inst, expected[i])
        else:
            good = good and check_response(api, reply, inst, None)
        failed += not good
        seen.append(repr(reply.makespan))
        if good:
            # repro.schedule.metrics.slr: makespan over the CP bound
            ratios.append(reply.makespan / inst.cp_min_length)

    computed = stats1.compiled_schedules - stats0.compiled_schedules
    fallbacks = stats1.compiled_fallbacks - stats0.compiled_fallbacks
    outputs = {
        "operations": digest(f"{kind}:{inst.fingerprint()}"
                             for (kind, _), inst in zip(plan, ops)),
        "makespans": digest(seen),
        "slr_geomean": geomean(ratios) if ratios else math.inf,
        # Each request is one job planned for an idle machine.
        "job_slowdown_mean": 1.0,
        "cache_hits": hits,
        "compiled_share": computed / (computed + fallbacks) if computed + fallbacks else 0.0,
    }
    result = {
        "attempted": requests,
        "failed": failed,
        "elapsed_s": elapsed,
        "latencies_ms": [lat for lat, _ in answers],
        "outputs": outputs,
    }
    if trace:
        lookups = (stats1.cache_hits - stats0.cache_hits
                   + stats1.cache_misses - stats0.cache_misses)
        lowerings = (stats1.lowering_hits - stats0.lowering_hits
                     + stats1.lowering_misses - stats0.lowering_misses)
        batches = stats1.batches - stats0.batches
        layers |= {
            "cache.hit_ratio": (stats1.cache_hits - stats0.cache_hits) / lookups,
            "engine.batch_mean": (stats1.batched_jobs - stats0.batched_jobs) / batches
            if batches else 0.0,
            "protocol.lowering_hit_ratio": (stats1.lowering_hits - stats0.lowering_hits)
            / lowerings if lowerings else 0.0,
            "router.retries": float(retries),
            "compiled.share": outputs["compiled_share"],
        }
        result["layers"] = layers
    return result


async def _probe_layers(api, warm, cold, prefill, answers, plan, routed_client,
                        direct) -> dict:
    """Per-layer numbers, each timed from outside the layer's public
    function, after the measured requests."""
    wire = api.wire
    payloads = [strip(reply.payload) for _, reply in prefill
                if not isinstance(reply, Exception)]
    blobs = [wire.encode_instance(inst) for inst in warm]
    bodies = [wire.encode_request(inst, ALG, instance_bytes=blob,
                                  fingerprint=inst.fingerprint())
              for inst, blob in zip(warm, blobs)]
    encoded = [wire.encode_payload(p) for p in payloads]
    responses = [wire.encode_response(p, cache_hit=True, fingerprint=inst.fingerprint(),
                                      server_ms=0.0)
                 for p, inst in zip(encoded, warm)]
    reps = 20
    layers = {
        "wire.encode_request_us": median(
            timed_per_call_us(lambda: wire.encode_request(
                inst, ALG, instance_bytes=blob, fingerprint=inst.fingerprint()), reps)
            for inst, blob in zip(warm, blobs)),
        "wire.peek_fingerprint_us": median(
            timed_per_call_us(lambda: wire.peek_request_fingerprint(body), reps)
            for body in bodies),
        "wire.decode_request_us": median(
            timed_per_call_us(lambda: wire.decode_request(body), reps) for body in bodies),
        "wire.encode_payload_us": median(
            timed_per_call_us(lambda: wire.encode_payload(p), reps) for p in payloads),
        "wire.decode_response_us": median(
            timed_per_call_us(lambda: wire.decode_response(r), reps) for r in responses),
    }

    # Router hop: the same warm requests, routed and straight to the
    # shard, in alternating passes.  One unmeasured direct pass first, so
    # that both clients send the compact (fingerprint-only) form.
    await _closed_loop([direct], warm)
    routed, straight = [], []
    for _ in range(3):
        routed += await _closed_loop([routed_client], warm)
        straight += await _closed_loop([direct], warm)
    layers["router.hop_ms"] = (median(lat for lat, _ in routed)
                               - median(lat for lat, _ in straight))

    ok = [(kind, lat, reply) for (kind, _), (lat, reply) in zip(plan, answers)
          if not isinstance(reply, Exception)]
    hit_ms = [r.server_ms for _, _, r in ok if r.cache_hit]
    miss_ms = [r.server_ms for _, _, r in ok if not r.cache_hit]
    layers["server.hit_ms"] = median(hit_ms) if hit_ms else 0.0
    layers["server.miss_ms"] = median(miss_ms) if miss_ms else 0.0
    warm_transport = [lat - r.server_ms for kind, lat, r in ok if kind == "warm"]
    layers["transport.warm_ms"] = median(warm_transport) if warm_transport else 0.0

    compute = []
    for inst in cold[:24]:
        blob = wire.encode_instance(inst)
        t = time.perf_counter()
        api.compute_schedule_payload(blob, ALG)
        compute.append((time.perf_counter() - t) * 1e3)
    layers["protocol.compute_ms"] = median(compute)
    layers["engine.queue_wait_ms"] = (median(miss_ms) if miss_ms else 0.0) \
        - layers["protocol.compute_ms"]
    return layers
