"""Property tests: the compiled executor is indistinguishable from the
object path on arbitrary instances, and schedules are stable across
interpreter restarts (hash randomization must not leak into results).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiled import use_executor
from repro.core import ImprovedConfig, ImprovedScheduler
from repro.dag.generators import random_dag
from repro.instance import make_instance
from repro.schedule.validation import violations
from repro.schedulers.registry import get_scheduler
from repro.service.protocol import schedule_payload

instance_params = st.tuples(
    st.integers(min_value=1, max_value=30),      # tasks
    st.integers(min_value=1, max_value=6),       # procs
    st.floats(min_value=0.0, max_value=8.0),     # ccr
    st.floats(min_value=0.0, max_value=1.5),     # heterogeneity
    st.integers(min_value=0, max_value=10_000),  # seed
)


def build(params):
    n, q, ccr, beta, seed = params
    dag = random_dag(n, ccr=ccr, seed=seed)
    return make_instance(dag, num_procs=q, heterogeneity=beta, seed=seed)


def _payload(schedule, instance, alg) -> str:
    return json.dumps(schedule_payload(schedule, instance, alg), sort_keys=True)


@given(instance_params, st.sampled_from(["HEFT", "CPOP", "HCPT", "PETS",
                                         "DLS", "HLFET", "MCP", "IMP",
                                         "LA-HEFT", "DUP-HEFT", "ETF"]))
@settings(max_examples=80, deadline=None)
def test_compiled_equals_object_path(params, name):
    instance = build(params)
    scheduler = get_scheduler(name)
    fast = scheduler.schedule(instance)
    with use_executor(False):
        ref = scheduler.schedule(instance)
    assert violations(fast, instance) == []
    assert _payload(fast, instance, name) == _payload(ref, instance, name)


@given(
    instance_params,
    st.booleans(),  # lookahead
    st.booleans(),  # duplication
    st.booleans(),  # insertion
    st.booleans(),  # refinement
)
@settings(max_examples=40, deadline=None)
def test_improved_config_space_compiled_equals_object(params, la, dup, ins, ref_):
    """Every corner of the IMP feature space stays bit-identical,
    including the duplication passes the compiled executor replays
    through tentative plan/undo."""
    instance = build(params)
    cfg = ImprovedConfig(lookahead=la, duplication=dup,
                         insertion=ins, refinement=ref_)
    fast = ImprovedScheduler(cfg).schedule(instance)
    with use_executor(False):
        ref = ImprovedScheduler(cfg).schedule(instance)
    assert violations(fast, instance) == []
    assert _payload(fast, instance, "IMP") == _payload(ref, instance, "IMP")


@given(instance_params)
@settings(max_examples=30, deadline=None)
def test_tds_unaffected_by_executor_switch(params):
    """TDS never routes through the compiled executor (duplication-tree
    policy, not a list scheduler); the switch must be a no-op for it."""
    instance = build(params)
    a = get_scheduler("TDS").schedule(instance)
    with use_executor(False):
        b = get_scheduler("TDS").schedule(instance)
    assert _payload(a, instance, "TDS") == _payload(b, instance, "TDS")


_RESTART_SNIPPET = """
import json, sys
from repro.bench import workloads as W
from repro.utils.rng import as_generator
from repro.schedulers.registry import get_scheduler
from repro.service.protocol import schedule_payload

out = []
for seed in (11, 12):
    inst = W.random_instance(as_generator(seed), num_tasks=40, num_procs=4)
    for alg in ("HEFT", "IMP"):
        s = get_scheduler(alg).schedule(inst)
        out.append(schedule_payload(s, inst, alg))
sys.stdout.write(json.dumps(out, sort_keys=True))
"""


def _run_with_hashseed(seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _RESTART_SNIPPET],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout


def test_schedules_stable_across_hash_randomization():
    """Fresh interpreters with different PYTHONHASHSEED values must
    produce byte-identical payloads — dict/set iteration order never
    reaches a scheduling decision on either decode path."""
    assert _run_with_hashseed("1") == _run_with_hashseed("31337")
