"""Differential suite: the kernel rank caches and the compiled executor
are behavior-preserving.

The scalar implementations (``upward_ranks_scalar`` /
``downward_ranks_scalar`` and the object scheduling path) are the
specification; this suite checks on a broad seeded instance population —
heterogeneous (all consistency classes) and homogeneous, all four rank
aggregations — that the cached rank kernels reproduce them to 1e-9 (they
are in fact bit-identical), and that every scheduler's makespan is
unchanged with the compiled executor on vs off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import workloads as W
from repro.compiled import use_executor
from repro.schedulers.ranking import (
    downward_ranks,
    downward_ranks_scalar,
    upward_ranks,
    upward_ranks_scalar,
)
from repro.schedulers.registry import all_scheduler_names, get_scheduler
from tests.population import build_population, partially_consistent_instance

AGGS = ("mean", "median", "best", "worst")


@pytest.fixture(scope="module")
def population():
    # 14 seeds x 4 families = 56 instances >= 50 (tests/population.py).
    return build_population()


def test_population_is_large_enough(population):
    assert len(population) >= 50


def test_ranks_match_scalar_reference(population):
    for label, inst in population:
        for agg in AGGS:
            up_ref = upward_ranks_scalar(inst, agg)
            down_ref = downward_ranks_scalar(inst, agg)
            up_vec = upward_ranks(inst, agg)
            down_vec = downward_ranks(inst, agg)
            assert up_vec.keys() == up_ref.keys(), label
            for t in up_ref:
                assert up_vec[t] == pytest.approx(up_ref[t], abs=1e-9), (label, agg, t)
                assert down_vec[t] == pytest.approx(down_ref[t], abs=1e-9), (label, agg, t)


def test_ranks_are_bit_identical(population):
    # Stronger than the 1e-9 contract: the kernels replay the scalar
    # float operations exactly.
    for label, inst in population[::5]:
        for agg in AGGS:
            assert inst.kernel.upward(agg) == upward_ranks_scalar(inst, agg), (label, agg)
            assert inst.kernel.downward(agg) == downward_ranks_scalar(inst, agg), (label, agg)


def test_every_scheduler_makespan_bit_identical(population):
    """Makespans are unchanged with the compiled executor on vs off, for
    every registered scheduler (the B&B oracle is covered separately on
    a size it can handle)."""
    names = [n for n in all_scheduler_names() if n != "OPT-BB"]
    for label, inst in population[::9]:
        for name in names:
            with use_executor(False):
                legacy = get_scheduler(name).schedule(inst)
            fast = get_scheduler(name).schedule(inst)
            assert fast.makespan == legacy.makespan, (label, name)


def test_optimal_scheduler_bit_identical():
    inst = partially_consistent_instance(3)
    small = W.random_instance(np.random.default_rng(7), num_tasks=8, num_procs=3)
    del inst  # 18 tasks is beyond the oracle's default cap
    with use_executor(False):
        legacy = get_scheduler("OPT-BB").schedule(small)
    fast = get_scheduler("OPT-BB").schedule(small)
    assert fast.makespan == legacy.makespan


def test_full_placements_identical_not_just_makespan(population):
    for label, inst in population[::11]:
        for name in ("HEFT", "CPOP", "IMP"):
            with use_executor(False):
                legacy = get_scheduler(name).schedule(inst)
            fast = get_scheduler(name).schedule(inst)
            for task in legacy.tasks():
                a, b = legacy.entry(task), fast.entry(task)
                assert (a.proc, a.start, a.end) == (b.proc, b.start, b.end), (label, name, task)
