"""Assignment decoder shared by the metaheuristics.

A candidate solution is a task -> processor assignment.  Decoding places
tasks in decreasing upward-rank order, each on its assigned processor at
the earliest insertion slot — the same substrate as every list
scheduler, so search quality differences are purely about assignments.

Two decode paths produce bit-identical schedules:

* :func:`decode_assignment` — the object path, building a real
  :class:`~repro.schedule.schedule.Schedule` (the specification, and
  what callers use to materialise the final winner);
* :func:`compiled_decoder` — the flat-array
  :class:`~repro.compiled.CompiledInstance` used for fitness
  evaluation in the GA/SA inner loops (``None`` when the executor is
  switched off or the machine uses a per-link communication model).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.compiled import compile_instance, executor_enabled
from repro.instance import Instance
from repro.schedule.schedule import Schedule
from repro.schedulers.base import schedule_task_on
from repro.types import ProcId, TaskId


def rank_order(instance: Instance) -> list[TaskId]:
    """The decoding order: decreasing upward rank (precedence-valid).

    A copy of the per-instance cache on ``Instance.kernel`` — thousands
    of decodes share one rank pass.
    """
    return list(instance.kernel.rank_order("mean"))


def compiled_decoder(instance: Instance):
    """The instance's :class:`~repro.compiled.CompiledInstance`, or ``None``.

    ``None`` when :func:`repro.compiled.use_executor` has switched the
    compiled executor off (differential tests and the benchmark baseline
    run the object path) or when the machine's communication model has
    no per-pair constant.  Tracing does not matter here: the fitness
    loop emits no per-task spans, and the winner is always materialised
    through :func:`decode_assignment`.
    """
    if not executor_enabled():
        return None
    return compile_instance(instance)


def decode_assignment(
    instance: Instance,
    assignment: Mapping[TaskId, ProcId],
    order: Sequence[TaskId] | None = None,
    name: str = "decoded",
) -> Schedule:
    """Build the schedule induced by ``assignment``.

    ``order`` defaults to the rank order; callers running many decodes
    should precompute it once via :func:`rank_order` (or decode through
    :func:`compiled_decoder`, which is makespan-bit-identical).
    """
    if order is None:
        order = rank_order(instance)
    schedule = Schedule(instance.machine, name=name)
    for task in order:
        schedule_task_on(schedule, instance, task, assignment[task], insertion=True)
    return schedule
