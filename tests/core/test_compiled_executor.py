"""Differential suite for the compiled list-scheduling executor.

``repro.compiled`` gives every production scheduler a flat-array cold
path (``CompiledInstance.schedule_list`` / ``schedule_dls`` /
``schedule_improved``).  The object path through
:class:`~repro.schedule.schedule.Schedule` is the specification; this
suite asserts the compiled executor reproduces it *bit for bit* — full
JSON payloads, not just makespans — across the seeded 56-instance
population, and that the routing layer falls back to the object path
exactly when it must (per-link communication models, tracing, the
executor switched off).
"""

from __future__ import annotations

import json

import pytest

from repro import compiled
from repro.compiled import compile_instance, use_executor
from repro.dag.generators import random_dag
from repro.instance import Instance
from repro.machine.cluster import Machine
from repro.machine.comm import LinkCommunication
from repro.machine.etc import generate_etc
from repro.schedule.validation import validate
from repro.schedulers.base import compiled_for
from repro.schedulers.registry import get_scheduler
from repro.service.protocol import schedule_payload
from tests.population import build_population

#: Every scheduler routed through the compiled executor.
ROUTED = ["HEFT", "HEFT-median", "HEFT-best", "HEFT-worst",
          "CPOP", "HCPT", "PETS", "DLS", "HLFET", "MCP", "IMP",
          "LA-HEFT", "DUP-HEFT", "ETF"]


@pytest.fixture(scope="module")
def population():
    return build_population()


def _payload(schedule, instance, alg) -> str:
    return json.dumps(schedule_payload(schedule, instance, alg), sort_keys=True)


def test_full_corpus_payloads_bit_identical(population):
    """Compiled vs object path over the whole population, all routed
    schedulers, comparing the complete serialized payload (placements,
    duplicates, makespan — everything a service response carries)."""
    for label, inst in population:
        for alg in ROUTED:
            scheduler = get_scheduler(alg)
            fast = scheduler.schedule(inst)
            with use_executor(False):
                ref = scheduler.schedule(inst)
            assert _payload(fast, inst, alg) == _payload(ref, inst, alg), (label, alg)


def test_three_way_equivalence_on_slice(population):
    """Compiled == object path on a corpus slice, and the compiled
    schedule passes validation."""
    for label, inst in population[::7]:
        for alg in ("HEFT", "CPOP", "DLS", "IMP"):
            scheduler = get_scheduler(alg)
            fast = scheduler.schedule(inst)
            with use_executor(False):
                object_ref = scheduler.schedule(inst)
            validate(fast, inst)
            assert _payload(fast, inst, alg) == _payload(object_ref, inst, alg), (label, alg)


def test_duplication_schedules_materialize_duplicates(population):
    """IMP duplication actually fires somewhere on the corpus and the
    compiled path reproduces the duplicate placements exactly."""
    total_dups = 0
    for label, inst in population[::5]:
        fast = get_scheduler("IMP").schedule(inst)
        with use_executor(False):
            ref = get_scheduler("IMP").schedule(inst)
        assert fast.num_duplicates() == ref.num_duplicates(), label
        total_dups += fast.num_duplicates()
    assert total_dups > 0, "duplication never fired; corpus slice too easy"


def _per_link_instance(seed: int = 3) -> Instance:
    from repro.machine.processor import Processor

    dag = random_dag(24, seed=seed)
    ids = [0, 1, 2]
    lat = {p: {q: 0.1 * (1 + (p + q) % 3) for q in ids if q != p} for p in ids}
    bw = {p: {q: 1.0 + ((p * 7 + q) % 5) for q in ids if q != p} for p in ids}
    machine = Machine(
        [Processor(id=i, speed=1.0) for i in ids],
        comm=LinkCommunication(ids, lat, bw),
        name="links",
    )
    etc = generate_etc(dag, machine, heterogeneity=0.6, seed=seed)
    return Instance(dag=dag, machine=machine, etc=etc)


def test_per_link_comm_falls_back_to_object_path():
    """Per-link machines have no pair-independent edge constant: the
    lowering refuses, the routing layer records a fallback, and the
    schedulers still produce executor-on/off-identical schedules."""
    inst = _per_link_instance()
    assert compile_instance(inst) is None
    before = compiled.schedule_counters()["fallbacks"]
    assert compiled_for(inst) is None
    assert compiled.schedule_counters()["fallbacks"] == before + 1
    for alg in ("HEFT", "CPOP", "DLS", "IMP"):
        fast = get_scheduler(alg).schedule(inst)
        with use_executor(False):
            ref = get_scheduler(alg).schedule(inst)
        validate(fast, inst)
        assert _payload(fast, inst, alg) == _payload(ref, inst, alg), alg


def test_executor_counters_increment(population):
    _, inst = population[0]
    compiled.reset_schedule_counters()
    get_scheduler("HEFT").schedule(inst)
    get_scheduler("DLS").schedule(inst)
    get_scheduler("IMP").schedule(inst)
    counts = compiled.schedule_counters()
    assert counts["list_schedules"] >= 1
    assert counts["dls_schedules"] >= 1
    assert counts["improved_passes"] >= 1
    # The switch really routes: with the executor off nothing is counted.
    with use_executor(False):
        assert compiled_for(inst) is None
        for alg in ROUTED:
            get_scheduler(alg).schedule(inst)
    assert compiled.schedule_counters() == counts
    assert compiled_for(inst) is not None


def test_routing_disabled_under_tracer(population):
    """Traced runs must keep the object path (golden span shapes)."""
    from repro.obs import Tracer, use_tracer

    _, inst = population[0]
    with use_tracer(Tracer(name="t")):
        assert compiled_for(inst) is None


def test_insertion_off_matches_object_path(population):
    """The non-insertion policy (ablation path) replays end-append
    placement identically."""
    from repro.core import ImprovedConfig, ImprovedScheduler

    cfg = ImprovedConfig(insertion=False)
    for label, inst in population[::9]:
        scheduler = ImprovedScheduler(cfg)
        fast = scheduler.schedule(inst)
        with use_executor(False):
            ref = ImprovedScheduler(cfg).schedule(inst)
        assert _payload(fast, inst, "IMP") == _payload(ref, inst, "IMP"), label
