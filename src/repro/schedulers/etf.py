"""ETF — Earliest Time First (Hwang, Chow, Anger & Lee, 1989).

A dynamic list scheduler for bounded processors: at every step the
ready task that can *start* earliest (over all processors) is scheduled
there; ties are broken by higher static level (the published rule), then
deterministically.  ETF appends without idle-gap insertion, as in the
original formulation.
"""

from __future__ import annotations

from repro.instance import Instance
from repro.schedule.schedule import Schedule
from repro.schedulers.base import Scheduler, compiled_for
from repro.schedulers.dls import dynamic_list_schedule
from repro.schedulers.ranking import machine_static_levels
from repro.types import ProcId, TaskId


class ETF(Scheduler):
    """Earliest Time First."""

    name = "ETF"

    def schedule(self, instance: Instance) -> Schedule:
        sl = machine_static_levels(instance, agg="mean")

        ci = compiled_for(instance)
        if ci is not None:
            result = ci.schedule_dls([sl[t] for t in ci.tasks], rule="etf")
            return ci.materialize(
                result, instance.machine, f"{self.name}:{instance.name}"
            )

        pos = instance.kernel.pos

        def key(task: TaskId, j: int, proc: ProcId, start: float) -> tuple:
            return (start, -sl[task], pos[task], j)

        return dynamic_list_schedule(instance, self.name, key)
