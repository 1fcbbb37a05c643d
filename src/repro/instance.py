"""The scheduling *instance*: a DAG, a machine and an ETC matrix.

Every scheduler consumes an :class:`Instance`.  Bundling the three parts
keeps scheduler signatures uniform and lets the bench harness construct
thousands of instances declaratively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.dag.graph import TaskDAG
from repro.exceptions import ConfigurationError, UnknownTaskError
from repro.kernels import InstanceKernel
from repro.machine.cluster import Machine
from repro.machine.etc import Consistency, ETCMatrix, etc_from_speeds, generate_etc
from repro.types import ProcId, TaskId
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class Instance:
    """One static-scheduling problem instance.

    Attributes
    ----------
    dag:
        The task graph (costs on tasks are *nominal*; actual per-processor
        times come from ``etc``).
    machine:
        Processors plus communication model.
    etc:
        Expected-time-to-compute matrix covering every (task, processor).
    deadline:
        Optional end-to-end deadline (a period for periodic workloads):
        every task must finish by this absolute time.  ``None`` means
        unconstrained — the historical behaviour, and the default, so
        deadline-free instances keep their exact fingerprints.
    """

    dag: TaskDAG
    machine: Machine
    etc: ETCMatrix
    name: str = field(default="")
    deadline: float | None = field(default=None)

    def __post_init__(self) -> None:
        missing_tasks = set(self.dag.tasks()) - set(self.etc.task_ids)
        if missing_tasks:
            raise ConfigurationError(f"ETC lacks tasks: {sorted(map(str, missing_tasks))[:5]}")
        missing_procs = set(self.machine.proc_ids()) - set(self.etc.proc_ids)
        if missing_procs:
            raise ConfigurationError(f"ETC lacks processors: {sorted(map(str, missing_procs))[:5]}")
        if self.deadline is not None:
            deadline = float(self.deadline)
            if not np.isfinite(deadline) or deadline <= 0:
                raise ConfigurationError(f"deadline must be finite and > 0, got {self.deadline!r}")
            object.__setattr__(self, "deadline", deadline)
        if not self.name:
            object.__setattr__(self, "name", f"{self.dag.name}@{self.machine.name}")

    # ------------------------------------------------------------------
    # cost queries (the vocabulary schedulers are written in)
    # ------------------------------------------------------------------
    def exec_time(self, task: TaskId, proc: ProcId) -> float:
        """Execution time of ``task`` on ``proc``."""
        try:
            return self.kernel.exec_table()[task][proc]
        except KeyError:
            pass  # unknown id: ETCMatrix.time raises the exact typed error
        return self.etc.time(task, proc)

    def avg_exec_time(self, task: TaskId) -> float:
        """Mean execution time of ``task`` across processors (w̄ of HEFT)."""
        return self.etc.mean(task)

    def comm_time(self, parent: TaskId, child: TaskId, src: ProcId, dst: ProcId) -> float:
        """Actual transfer time of edge data between two placements."""
        return self.kernel.comm_time(parent, child, src, dst)

    def avg_comm_time(self, parent: TaskId, child: TaskId) -> float:
        """Average transfer time of an edge (c̄ of HEFT's ranking)."""
        return self.kernel.avg_comm(parent, child)

    def successors_of(self, task: TaskId) -> list[TaskId]:
        """Successors of ``task`` (memoized; treat the list as read-only)."""
        try:
            return self.kernel.succ[task]
        except KeyError:
            raise UnknownTaskError(task) from None

    def predecessors_of(self, task: TaskId) -> list[TaskId]:
        """Predecessors of ``task`` (memoized; treat the list as read-only)."""
        try:
            return self.kernel.pred[task]
        except KeyError:
            raise UnknownTaskError(task) from None

    def etc_row(self, task: TaskId) -> np.ndarray:
        """Per-processor execution times of ``task`` in machine proc order
        (a cached read-only view)."""
        return self.kernel.etc_row(task)

    @cached_property
    def kernel(self) -> InstanceKernel:
        """Per-instance memo tables, rank caches and lowering (built lazily).

        Like the other cached properties, this snapshots the instance at
        first use — instances are immutable bundles by convention.
        """
        return InstanceKernel(self)

    @property
    def num_tasks(self) -> int:
        return self.dag.num_tasks

    @property
    def num_procs(self) -> int:
        return self.machine.num_procs

    @cached_property
    def sequential_time(self) -> float:
        """Best single-processor makespan: min over processors of the sum
        of that processor's ETC column.  The numerator of speedup."""
        procs = self.machine.proc_ids()
        tasks = list(self.dag.tasks())
        if not tasks:
            return 0.0
        return min(sum(self.etc.time(t, p) for t in tasks) for p in procs)

    @cached_property
    def cp_min_length(self) -> float:
        """Critical-path length using each task's *minimum* ETC and no
        communication — the denominator of the SLR metric (a lower bound
        on any makespan)."""
        best: dict[TaskId, float] = {}
        total = 0.0
        for t in reversed(self.dag.topological_order()):
            succ = self.dag.successors(t)
            tail = max((best[s] for s in succ), default=0.0)
            best[t] = self.etc.best(t) + tail
            total = max(total, best[t])
        return total

    @cached_property
    def _fingerprint(self) -> str:
        from repro.instance_io import instance_fingerprint  # lazy: avoids import cycle

        return instance_fingerprint(self)

    def fingerprint(self) -> str:
        """Stable content hash of this instance (SHA-256 hex digest).

        Covers DAG structure (tasks, costs, edges, edge data), the
        machine (processors, speeds, communication model) and the ETC
        matrix, all in a canonical order — equal for equal content no
        matter how the instance was assembled, different under any
        single perturbation.  Names are metadata and excluded.  The
        serving layer keys its content-addressed schedule cache on this
        (see :mod:`repro.service.cache`).
        """
        return self._fingerprint

    def with_deadline(self, deadline: float | None) -> "Instance":
        """Copy of this instance carrying ``deadline`` (``None`` clears it).

        Returns a fresh instance even for an unchanged value, so cached
        properties (kernel, fingerprint) never leak across constraint
        variants of the same problem.
        """
        return Instance(
            dag=self.dag, machine=self.machine, etc=self.etc,
            name=self.name, deadline=deadline,
        )

    def is_homogeneous(self) -> bool:
        """True when every task runs equally fast on every processor."""
        arr = self.etc.as_array()
        if arr.size == 0:
            return True
        return bool((arr.max(axis=1) - arr.min(axis=1) <= 1e-12 * (1 + arr.max())).all())


def make_instance(
    dag: TaskDAG,
    num_procs: int = 8,
    heterogeneity: float = 0.5,
    consistency: Consistency = "inconsistent",
    latency: float = 0.0,
    bandwidth: float = 1.0,
    seed: SeedLike = None,
    name: str = "",
) -> Instance:
    """Build a fully connected heterogeneous instance for ``dag``.

    This is the declarative entry point used by the examples and the
    bench harness: a fully connected machine with uniform links plus a
    range-based ETC matrix with heterogeneity ``β``.
    """
    machine = Machine.homogeneous(
        num_procs, latency=latency, bandwidth=bandwidth, name=f"q{num_procs}-b{heterogeneity:g}"
    )
    etc = generate_etc(dag, machine, heterogeneity=heterogeneity, consistency=consistency, seed=seed)
    return Instance(dag=dag, machine=machine, etc=etc, name=name)


def homogeneous_instance(
    dag: TaskDAG,
    num_procs: int = 8,
    latency: float = 0.0,
    bandwidth: float = 1.0,
    name: str = "",
) -> Instance:
    """Build a homogeneous instance: identical processors, ETC = nominal
    cost everywhere.  Used by the homogeneous-system experiments (E11)."""
    machine = Machine.homogeneous(num_procs, latency=latency, bandwidth=bandwidth)
    etc = etc_from_speeds(dag, machine)
    return Instance(dag=dag, machine=machine, etc=etc, name=name)


def speed_scaled_instance(
    dag: TaskDAG,
    speeds: list[float],
    latency: float = 0.0,
    bandwidth: float = 1.0,
    name: str = "",
) -> Instance:
    """Consistent-heterogeneity instance driven by processor speeds."""
    machine = Machine.from_speeds(speeds, latency=latency, bandwidth=bandwidth)
    etc = etc_from_speeds(dag, machine)
    return Instance(dag=dag, machine=machine, etc=etc, name=name)
