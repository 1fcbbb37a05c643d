"""The headline improved scheduler (the paper's contribution).

One full list-scheduling pass is run per configured rank variant, each
pass using the lookahead/duplication placement engine, followed by the
refinement post-pass; the best resulting schedule wins.  With
:meth:`ImprovedConfig.baseline_heft` the algorithm reduces exactly to
HEFT, which the test suite asserts — the improvements are strict
supersets, not a different algorithm.
"""

from __future__ import annotations

from repro.core.config import ImprovedConfig
from repro.core.placement import PlacementEngine
from repro.core.refinement import refine_schedule
from repro.exceptions import SchedulingError
from repro.instance import Instance
from repro.obs import get_tracer
from repro.schedule.schedule import Schedule
from repro.schedulers.base import Scheduler, compiled_for
from repro.schedulers.ranking import RankAggregation, upward_ranks
from repro.types import TaskId


class SinglePassScheduler(Scheduler):
    """One placement-engine pass in HEFT order, nothing else.

    The shared body of the ablation schedulers LA-HEFT and DUP-HEFT: a
    single rank aggregation, no plain-EFT safety pass and no refinement,
    so each isolates one improvement of :class:`ImprovedScheduler`.
    Routed through the compiled executor's improved pass when
    :func:`~repro.schedulers.base.compiled_for` allows it.
    """

    def __init__(
        self,
        name: str,
        agg: RankAggregation = "mean",
        *,
        lookahead: bool,
        duplication: bool,
        max_duplications_per_task: int = 3,
    ) -> None:
        self.name = name
        self.agg = agg
        self._engine = PlacementEngine(
            lookahead=lookahead,
            duplication=duplication,
            max_duplications_per_task=max_duplications_per_task,
        )

    def schedule(self, instance: Instance) -> Schedule:
        ranks = upward_ranks(instance, self.agg)
        pos = instance.kernel.pos
        order = sorted(instance.dag.tasks(), key=lambda t: (-ranks[t], pos[t]))
        name = f"{self.name}:{instance.name}"
        engine = self._engine
        ci = compiled_for(instance)
        if ci is not None:
            result = ci.schedule_improved(
                ci.order_indices(order),
                [ranks[t] for t in ci.tasks],
                lookahead=engine.lookahead,
                duplication=engine.duplication,
                insertion=engine.insertion,
                refinement=False,
                refinement_rounds=0,
                max_duplications_per_task=engine.max_duplications_per_task,
            )
            return ci.materialize(result, instance.machine, name)
        schedule = Schedule(instance.machine, name=name)
        for task in order:
            engine.place(schedule, instance, task, ranks)
        if len(schedule) != instance.num_tasks:
            raise SchedulingError(f"{self.name} scheduled {len(schedule)}/{instance.num_tasks}")
        return schedule


class ImprovedScheduler(Scheduler):
    """Improved static list scheduling for heterogeneous and homogeneous
    systems (reconstruction of the ICPP-2007 contribution).

    Parameters
    ----------
    config:
        Feature switches; defaults to everything enabled.
    """

    def __init__(self, config: ImprovedConfig | None = None) -> None:
        self.config = config or ImprovedConfig()
        self.name = "IMP" if config is None else self.config.label()
        self._engine = PlacementEngine(
            lookahead=self.config.lookahead,
            duplication=self.config.duplication,
            insertion=self.config.insertion,
        )
        self._plain_engine = PlacementEngine(
            lookahead=False, duplication=False, insertion=self.config.insertion
        )

    def _one_pass(
        self, instance: Instance, agg: RankAggregation, engine: PlacementEngine
    ) -> Schedule:
        tracer = get_tracer()
        with tracer.span("sched.rank", alg=self.name, agg=agg):
            ranks = upward_ranks(instance, agg)
            pos = instance.kernel.pos
            order: list[TaskId] = sorted(
                instance.dag.tasks(), key=lambda t: (-ranks[t], pos[t])
            )
        schedule = Schedule(instance.machine, name=f"{self.name}({agg}):{instance.name}")
        with tracer.span("sched.place", alg=self.name, agg=agg):
            if tracer.enabled:
                for task in order:
                    with tracer.span("sched.insert", task=str(task)):
                        engine.place(schedule, instance, task, ranks)
            else:
                for task in order:
                    engine.place(schedule, instance, task, ranks)
        if self.config.refinement:
            with tracer.span("imp.refine", agg=agg):
                refine_schedule(
                    schedule, instance, max_rounds=self.config.refinement_rounds
                )
        return schedule

    def _schedule_compiled(self, instance: Instance, ci, variants) -> Schedule:
        """All passes through the compiled executor; materialize the winner.

        Replays the object loop's pass sequence (per aggregation: the
        primary engine, then — when lookahead/duplication are on — the
        plain-EFT engine) and its ``1e-12`` best-makespan rule, but only
        the winning pass is raised back into a real :class:`Schedule`.
        """
        cfg = self.config
        specs = [(cfg.lookahead, cfg.duplication)]
        if cfg.lookahead or cfg.duplication:
            specs.append((False, False))
        pos = instance.kernel.pos
        best = None
        best_name = ""
        for agg in variants:
            ranks = upward_ranks(instance, agg)
            order = ci.order_indices(
                sorted(instance.dag.tasks(), key=lambda t: (-ranks[t], pos[t]))
            )
            rank_vec = [ranks[t] for t in ci.tasks]
            for la, dup in specs:
                candidate = ci.schedule_improved(
                    order,
                    rank_vec,
                    lookahead=la,
                    duplication=dup,
                    insertion=cfg.insertion,
                    refinement=cfg.refinement,
                    refinement_rounds=cfg.refinement_rounds,
                )
                if best is None or candidate.makespan < best.makespan - 1e-12:
                    best = candidate
                    best_name = f"{self.name}({agg}):{instance.name}"
        assert best is not None
        return ci.materialize(best, instance.machine, best_name)

    def schedule(self, instance: Instance) -> Schedule:
        variants = self.config.rank_variants
        if instance.is_homogeneous() and len(variants) > 1:
            # All aggregations coincide on a homogeneous ETC matrix; one
            # pass suffices (this is the "and homogeneous systems" path).
            variants = variants[:1]
        ci = compiled_for(instance)
        if ci is not None:
            return self._schedule_compiled(instance, ci, variants)
        engines = [self._engine]
        if self.config.lookahead or self.config.duplication:
            # Always also evaluate the plain-EFT pass: the improvements
            # are then a strict superset of HEFT's search, giving the
            # never-worse-than-HEFT guarantee the tests assert.
            engines.append(self._plain_engine)
        tracer = get_tracer()
        best: Schedule | None = None
        with tracer.span("sched.run", alg=self.name, tasks=instance.num_tasks) as run:
            for agg in variants:
                for engine in engines:
                    kind = "plain" if engine is self._plain_engine else "primary"
                    with tracer.span("imp.pass", agg=agg, engine=kind):
                        candidate = self._one_pass(instance, agg, engine)
                    if len(candidate) != instance.num_tasks:
                        raise SchedulingError(
                            f"{self.name} pass {agg} scheduled "
                            f"{len(candidate)}/{instance.num_tasks} tasks"
                        )
                    if tracer.enabled:
                        tracer.count("imp.passes")
                    if best is None or candidate.makespan < best.makespan - 1e-12:
                        best = candidate
            assert best is not None
            if tracer.enabled:
                run.set(makespan=best.makespan)
        return best
