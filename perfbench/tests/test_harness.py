"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

from types import SimpleNamespace

import pytest

import online
import serve
import sweep
from harness import Clock, Ledger, digest, percentile, work_units


def test_percentile_is_nearest_rank():
    data = list(range(1, 101))
    assert percentile(data, 50) == 50
    assert percentile(data, 95) == 95
    assert percentile(data, 99) == 99
    assert percentile(data, 100) == 100
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([3.0, 1.0, 2.0], 1) == 1.0
    # p95 of 99 samples is rank ceil(94.05) = 95, not 94
    assert percentile(list(range(1, 100)), 95) == 95
    with pytest.raises(ValueError):
        percentile([], 50)


def test_work_depends_on_seconds_only():
    assert work_units("serve", 21) == work_units("serve", 21) == 210
    assert work_units("sweep", 1) == 1


def test_sweep_operation_digest_is_stable_for_a_seed():
    api = sweep.import_repro()

    def ops(seed):
        return digest(inst.fingerprint() for inst in sweep.make_instances(api, seed, 1))

    assert ops(5) == ops(5)
    assert ops(5) != ops(6)
    kinds = [inst.machine.name.split("-")[0] for inst in sweep.make_instances(api, 5, 1)]
    assert kinds[3] == "mesh" and "mesh" not in kinds[:3]


def test_serve_plan_splits_one_cold_in_ten():
    api = serve.import_repro()
    rng_a, rng_b = api.spawn_children(3, 2)
    plan = serve.make_plan(100, 64, rng_a)
    cold = [i for i, (kind, _) in enumerate(plan) if kind == "cold"]
    assert cold == list(range(0, 100, 10))
    assert [plan[i][1] for i in cold] == list(range(10))
    assert all(0 <= j < 64 for kind, j in plan if kind == "warm")
    assert plan == serve.make_plan(100, 64, api.spawn_children(3, 2)[0])
    assert plan != serve.make_plan(100, 64, rng_b)


def test_ledger_flags_changed_outputs(tmp_path):
    ledger = Ledger(tmp_path / "ledger.json")
    assert ledger.check_and_record("k", {"a": 1.5}) is None
    assert ledger.check_and_record("k", {"a": 1.5}) is None
    assert ledger.check_and_record("k", {"a": 1.25}) == {"a": 1.5}


def _smoke(module, units):
    untraced = module.run(7, units, False, Clock())
    traced = module.run(7, units, True, Clock())
    assert untraced["failed"] == traced["failed"] == 0
    assert untraced["outputs"] == traced["outputs"]
    assert len(untraced["latencies_ms"]) >= 1
    return untraced, traced


def test_sweep_smoke():
    untraced, traced = _smoke(sweep, 1)
    assert untraced["attempted"] == 4 * 11
    assert 0.0 < untraced["outputs"]["compiled_share"] < 1.0  # mesh falls back
    assert traced["layers"]["sched.HEFT.ms"] > 0.0


def test_serve_smoke():
    untraced, traced = _smoke(serve, 2)
    assert untraced["attempted"] == 20
    assert untraced["outputs"]["cache_hits"] == 18
    assert traced["layers"]["cache.hit_ratio"] == pytest.approx(0.9)
    assert traced["layers"]["router.retries"] == 0.0


def test_online_smoke():
    untraced, traced = _smoke(online, 1)
    assert untraced["attempted"] == online.JOBS
    assert traced["layers"]["online.run_ms"] > 0.0


def test_sweep_counts_invalid_schedules(monkeypatch):
    import repro.bench.runner
    from repro.exceptions import ScheduleError

    def reject(schedule, instance):
        raise ScheduleError("rejected by test")

    monkeypatch.setattr(repro.bench.runner, "validate", reject)
    result = sweep.run(7, 1, False, Clock())
    assert result["failed"] == result["attempted"]


def test_serve_response_check_rejects_changed_payload():
    from repro.service.protocol import ScheduleResult

    api = serve.import_repro()
    inst = api.W.random_instance(api.spawn_children(1, 1)[0], num_tasks=12, num_procs=3)
    payload = api.compute_schedule_payload(api.wire.encode_instance(inst), serve.ALG)
    expected = serve.strip(payload)
    reply = ScheduleResult.from_payload(payload)
    assert serve.check_response(api, reply, inst, None)
    assert serve.check_response(api, reply, inst, expected)
    longer = ScheduleResult.from_payload(dict(payload, makespan=payload["makespan"] + 1.0))
    assert not serve.check_response(api, longer, inst, expected)
    # every task moved to time 0: overlaps on each processor
    packed = ScheduleResult.from_payload(dict(payload, placements=[
        dict(p, start=0.0, end=p["end"] - p["start"]) for p in payload["placements"]]))
    assert not serve.check_response(api, packed, inst, None)


def test_online_check_drops_misordered_jobs():
    job = SimpleNamespace(arrival=1.0, start=2.0, finish=3.0)
    early = SimpleNamespace(arrival=5.0, start=4.0, finish=6.0)
    assert online.completed_jobs(SimpleNamespace(jobs=[job, job])) == [job, job]
    assert online.completed_jobs(SimpleNamespace(jobs=[job, early])) == [job]
