"""DLS — Dynamic Level Scheduling (Sih & Lee, 1993).

A dynamic list scheduler: at every step the (ready task, processor) pair
with the highest *dynamic level*

    ``DL(t, p) = SL*(t) - max(data_ready(t, p), avail(p)) + Δ(t, p)``

is scheduled, where ``SL*`` is the static level computed with median
execution costs and ``Δ(t, p) = w*(t) - w(t, p)`` rewards placing a task
on a processor that runs it faster than typical.  Classic DLS appends to
the processor's ready end (no insertion).
"""

from __future__ import annotations

from typing import Callable

from repro.exceptions import SchedulingError
from repro.instance import Instance
from repro.schedule.schedule import Schedule
from repro.schedulers.base import Scheduler, compiled_for, ready_time
from repro.schedulers.ranking import machine_static_levels
from repro.types import ProcId, TaskId


def dynamic_list_schedule(
    instance: Instance,
    name: str,
    key: Callable[[TaskId, int, ProcId, float], tuple],
) -> Schedule:
    """Object-path dynamic list scheduling loop (DLS, ETF).

    At every step each (ready task, processor) pair gets the append
    start ``max(data_ready, processor end)`` and the pair with the
    smallest ``key(task, proc_index, proc, start)`` is placed there.
    Nothing moves or is duplicated afterwards.
    """
    dag = instance.dag
    procs = instance.machine.proc_ids()
    schedule = Schedule(instance.machine, name=f"{name}:{instance.name}")
    indegree = {t: dag.in_degree(t) for t in dag.tasks()}
    ready = {t for t in dag.tasks() if indegree[t] == 0}

    scheduled = 0
    while ready:
        best = None
        best_choice = None
        for task in ready:
            for j, proc in enumerate(procs):
                data_ready = ready_time(schedule, instance, task, proc)
                start = max(data_ready, schedule.timeline(proc).end_time)
                k = key(task, j, proc, start)
                if best is None or k < best:
                    best = k
                    best_choice = (task, proc, start)
        assert best_choice is not None
        task, proc, start = best_choice
        schedule.add(task, proc, start, instance.exec_time(task, proc))
        scheduled += 1
        ready.discard(task)
        for child in dag.successors(task):
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.add(child)

    if scheduled != instance.num_tasks:
        raise SchedulingError(f"{name} scheduled {scheduled}/{instance.num_tasks} tasks")
    return schedule


class DLS(Scheduler):
    """Dynamic Level Scheduling."""

    name = "DLS"

    def schedule(self, instance: Instance) -> Schedule:
        dag = instance.dag
        sl = machine_static_levels(instance, agg="median")
        wstar = {t: instance.etc.median(t) for t in dag.tasks()}

        ci = compiled_for(instance)
        if ci is not None:
            result = ci.schedule_dls(
                [sl[t] for t in ci.tasks], [wstar[t] for t in ci.tasks]
            )
            return ci.materialize(
                result, instance.machine, f"{self.name}:{instance.name}"
            )

        pos = instance.kernel.pos

        def key(task: TaskId, j: int, proc: ProcId, start: float) -> tuple:
            delta = wstar[task] - instance.exec_time(task, proc)
            dl = sl[task] - start + delta
            return (-dl, pos[task], j)

        return dynamic_list_schedule(instance, self.name, key)
