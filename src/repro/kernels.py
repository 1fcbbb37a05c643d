"""Per-instance kernel: memoized cost tables, cached ranks, the lowering.

Every figure of the reconstructed protocol averages hundreds of
replications, and each replication runs every compared scheduler on the
same :class:`~repro.instance.Instance`.  :class:`InstanceKernel` — built
once per instance, lazily, via ``Instance.kernel`` — is the shared cache
they all read:

* memo tables: successor/predecessor lists, per-edge data volumes,
  average communication costs, per-pair communication constants (for
  the uniform/zero link models every experiment uses), a nested
  execution-time table and a dense ETC array in canonical (machine)
  processor order.  ``Instance``'s cost queries are served from them;
* upward/downward rank recurrences, cached per aggregation so HEFT,
  CPOP and the improved scheduler's rank-variant search never recompute
  a rank for the same instance.  Large DAGs are evaluated level by
  level with NumPy (``np.maximum.reduceat`` over depth levels);
* the cached :class:`~repro.compiled.CompiledInstance` lowering that
  the compiled executor runs on (``None`` for per-link communication
  models).

The rank kernels reproduce the scalar floating-point operations of
``upward_ranks_scalar`` / ``downward_ranks_scalar`` exactly — same
additions, in the same order, with exact max reductions — which
``tests/core/test_vectorized_equivalence.py`` asserts bit for bit.
There is no switch here: the one implementation switch in the library
is :func:`repro.compiled.use_executor`, which chooses between the
compiled executor and the scalar object path (the oracle).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    GraphError,
    UnknownProcessorError,
    UnknownTaskError,
)
from repro.machine.comm import UniformCommunication, ZeroCommunication
from repro.obs import get_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.instance import Instance
    from repro.types import ProcId, TaskId

#: Aggregations a rank kernel understands (mirrors ranking.RankAggregation).
_AGGS = ("mean", "median", "best", "worst")

#: Below this task count the *first* rank computation per direction runs
#: the scalar recurrence over the kernel's memoized adjacency instead of
#: building the level structure — the one-time ``_build_levels`` cost
#: dominates the vectorized win for small DAGs (measured crossover is
#: well above typical experiment sizes).  A second aggregation request
#: builds the levels, since the build then amortizes across the cached
#: variants.  Both paths replay the same float operations, so results
#: stay bit-identical either way.
_SCALAR_RANK_CUTOFF = 256


class InstanceKernel:
    """Precomputed arrays and caches for one (immutable) instance.

    The kernel snapshots the DAG/machine/ETC at construction; instances
    are treated as immutable bundles everywhere in the library (see
    ``docs/architecture.md``), so the snapshot never goes stale.  All
    returned lists/arrays are shared — callers must treat them as
    read-only.
    """

    def __init__(self, instance: "Instance") -> None:
        dag = instance.dag
        machine = instance.machine
        etc = instance.etc

        self.tasks: list["TaskId"] = list(dag.tasks())
        self.ti: dict["TaskId", int] = {t: i for i, t in enumerate(self.tasks)}
        self.procs: list["ProcId"] = machine.proc_ids()
        self.pi: dict["ProcId", int] = {p: j for j, p in enumerate(self.procs)}
        self._etc = etc
        self._comm = machine.comm

        # Dense ETC in canonical (task insertion, machine proc) order.
        # Reindexing copies the stored floats verbatim — no arithmetic.
        arr = etc.as_array()
        trow = {t: i for i, t in enumerate(etc.task_ids)}
        pcol = {p: j for j, p in enumerate(etc.proc_ids)}
        rows = [trow[t] for t in self.tasks]
        cols = [pcol[p] for p in self.procs]
        if arr.size:
            self.etc_arr = np.ascontiguousarray(arr[np.ix_(rows, cols)])
        else:
            self.etc_arr = np.zeros((len(self.tasks), len(self.procs)))
        self.etc_arr.flags.writeable = False

        # Adjacency, memoized once instead of per networkx query.
        self.succ: dict["TaskId", list["TaskId"]] = {t: dag.successors(t) for t in self.tasks}
        self.pred: dict["TaskId", list["TaskId"]] = {t: dag.predecessors(t) for t in self.tasks}

        self.topo: list["TaskId"] = dag.topological_order()
        self.pos: dict["TaskId", int] = {t: i for i, t in enumerate(self.topo)}

        # Per-edge data volumes and machine-average communication times.
        self._edge_data: dict["TaskId", dict["TaskId", float]] = {t: {} for t in self.tasks}
        self._avg_comm: dict["TaskId", dict["TaskId", float]] = {t: {} for t in self.tasks}
        for u, v in dag.edges():
            data = dag.data(u, v)
            self._edge_data[u][v] = data
            self._avg_comm[u][v] = machine.avg_comm_time(data)

        # Per-pair constants: with the uniform (or zero) link model the
        # cost of an edge is one constant for every distinct pair — the
        # exact float the model itself would return.  ``None`` for
        # per-link models; those instances do not lower (see compiled()).
        self.out_const: dict["TaskId", dict["TaskId", float]] | None
        if isinstance(self._comm, ZeroCommunication):
            self.out_const = {u: {v: 0.0 for v in row} for u, row in self._edge_data.items()}
        elif isinstance(self._comm, UniformCommunication):
            lat, bw = self._comm.latency, self._comm.bandwidth
            self.out_const = {
                u: {v: lat + d / bw for v, d in row.items()}
                for u, row in self._edge_data.items()
            }
        else:
            self.out_const = None

        # Lazy per-aggregation caches.  Bounding policy: every keyed
        # cache is keyed by a rank aggregation, and :meth:`weights`
        # validates the key against ``_AGGS`` *before* inserting, so each
        # dict holds at most ``len(_AGGS)`` (= 4) entries for the life of
        # the instance; the unkeyed memos (exec table, level structures,
        # compiled form) are singletons.  Nothing here can grow with
        # request volume — :meth:`cache_info` exposes the sizes and caps
        # so tests can assert the bound.
        self._weights: dict[str, np.ndarray] = {}
        self._upward: dict[str, dict["TaskId", float]] = {}
        self._downward: dict[str, dict["TaskId", float]] = {}
        self._rank_order: dict[str, list["TaskId"]] = {}
        self._up_levels: list[tuple] | None = None
        self._down_levels: list[tuple] | None = None
        self._exec: dict["TaskId", dict["ProcId", float]] | None = None
        self._compiled: object | None = None
        self._compiled_built = False

    # ------------------------------------------------------------------
    # memoized cost queries
    # ------------------------------------------------------------------
    def comm_time(self, parent: "TaskId", child: "TaskId", src: "ProcId", dst: "ProcId") -> float:
        """Edge transfer time between two placements (== Instance.comm_time)."""
        consts = self.out_const
        if consts is not None:
            try:
                const = consts[parent][child]
            except KeyError:
                raise GraphError(f"no edge {parent!r} -> {child!r}") from None
            if src not in self.pi:
                raise UnknownProcessorError(src)
            if dst not in self.pi:
                raise UnknownProcessorError(dst)
            return 0.0 if src == dst else const
        try:
            data = self._edge_data[parent][child]
        except KeyError:
            raise GraphError(f"no edge {parent!r} -> {child!r}") from None
        if src not in self.pi:
            raise UnknownProcessorError(src)
        if dst not in self.pi:
            raise UnknownProcessorError(dst)
        return self._comm.time(data, src, dst)

    def avg_comm(self, parent: "TaskId", child: "TaskId") -> float:
        """Machine-average transfer time of one edge (== Instance.avg_comm_time)."""
        try:
            return self._avg_comm[parent][child]
        except KeyError:
            raise GraphError(f"no edge {parent!r} -> {child!r}") from None

    def etc_row(self, task: "TaskId") -> np.ndarray:
        """Read-only per-processor execution times in machine proc order."""
        try:
            return self.etc_arr[self.ti[task]]
        except KeyError:
            raise UnknownTaskError(task) from None

    def exec_table(self) -> dict["TaskId", dict["ProcId", float]]:
        """Nested ``{task: {proc: time}}`` memo of the ETC lookups.

        Built lazily from ``ETCMatrix.time`` itself so the floats are the
        exact values the scalar path sees.
        """
        table = self._exec
        if table is None:
            time = self._etc.time
            table = {
                t: {p: time(t, p) for p in self.procs} for t in self.tasks
            }
            self._exec = table
        return table

    def weights(self, agg: str) -> np.ndarray:
        """Per-task scalar weight vector for one rank aggregation.

        Delegates to the ETCMatrix accessors so the floats are the exact
        ones the scalar rank implementations see.
        """
        cached = self._weights.get(agg)
        if cached is not None:
            return cached
        if agg == "mean":
            fn = self._etc.mean
        elif agg == "median":
            fn = self._etc.median
        elif agg == "best":
            fn = self._etc.best
        elif agg == "worst":
            fn = self._etc.worst
        else:
            raise ConfigurationError(f"unknown rank aggregation {agg!r}")
        w = np.array([fn(t) for t in self.tasks], dtype=float)
        w.flags.writeable = False
        self._weights[agg] = w
        return w

    # ------------------------------------------------------------------
    # vectorized rank recurrences
    # ------------------------------------------------------------------
    def _build_levels(self, upward: bool) -> list[tuple]:
        """Group tasks into dependency levels for batched evaluation.

        For the upward recurrence a task's level is ``1 + max`` over its
        successors' levels (exit tasks at level 0); processing levels in
        ascending order guarantees every successor rank is final before
        it is read.  Each level is stored as ``(leaf_idx, seg_idx,
        seg_ptr, edge_dst, edge_comm)`` where *leaf* tasks have no edges
        on the relevant side and *seg* tasks own the contiguous edge
        segments ``[seg_ptr[i], seg_ptr[i+1])``.
        """
        n = len(self.tasks)
        neigh = self.succ if upward else self.pred
        neigh_idx: list[list[int]] = [
            [self.ti[s] for s in neigh[t]] for t in self.tasks
        ]
        comm_of: list[list[float]] = []
        for t in self.tasks:
            if upward:
                comm_of.append([self._avg_comm[t][s] for s in neigh[t]])
            else:
                comm_of.append([self._avg_comm[p][t] for p in neigh[t]])
        depth = [0] * n
        order = reversed(self.topo) if upward else self.topo
        for t in order:
            i = self.ti[t]
            d = 0
            for j in neigh_idx[i]:
                if depth[j] + 1 > d:
                    d = depth[j] + 1
            depth[i] = d
        by_level: dict[int, list[int]] = {}
        for i in range(n):
            by_level.setdefault(depth[i], []).append(i)
        levels = []
        for level in sorted(by_level):
            members = by_level[level]
            leaf = [i for i in members if not neigh_idx[i]]
            seg = [i for i in members if neigh_idx[i]]
            ptr = [0]
            dst: list[int] = []
            comm: list[float] = []
            for i in seg:
                dst.extend(neigh_idx[i])
                comm.extend(comm_of[i])
                ptr.append(len(dst))
            levels.append(
                (
                    np.asarray(leaf, dtype=np.intp),
                    np.asarray(seg, dtype=np.intp),
                    np.asarray(ptr, dtype=np.intp),
                    np.asarray(dst, dtype=np.intp),
                    np.asarray(comm, dtype=float),
                )
            )
        return levels

    def _upward_scalar(self, agg: str) -> dict["TaskId", float]:
        """Scalar upward recurrence over the memoized adjacency.

        Bit-identical to the vectorized evaluation: the same weights,
        the same ``comm + rank`` additions, an exact max fold, and the
        same final ``w + tail`` rounding.
        """
        w = self.weights(agg).tolist()
        ti = self.ti
        succ = self.succ
        avg = self._avg_comm
        rank: dict["TaskId", float] = {}
        for t in reversed(self.topo):
            tail = 0.0
            row = avg[t]
            for s in succ[t]:
                cand = row[s] + rank[s]
                if cand > tail:
                    tail = cand
            rank[t] = w[ti[t]] + tail
        return rank

    def _downward_scalar(self, agg: str) -> dict["TaskId", float]:
        """Scalar downward recurrence (see :meth:`_upward_scalar`)."""
        w = self.weights(agg).tolist()
        ti = self.ti
        pred = self.pred
        avg = self._avg_comm
        rank: dict["TaskId", float] = {}
        for t in self.topo:
            best = 0.0
            for p in pred[t]:
                cand = (rank[p] + w[ti[p]]) + avg[p][t]
                if cand > best:
                    best = cand
            rank[t] = best
        return rank

    def upward(self, agg: str) -> dict["TaskId", float]:
        """Cached upward ranks (HEFT's ``rank_u``) for one aggregation."""
        cached = self._upward.get(agg)
        if cached is not None:
            return cached
        if (
            self._up_levels is None
            and not self._upward
            and len(self.tasks) < _SCALAR_RANK_CUTOFF
        ):
            out = self._upward_scalar(agg)
            self._upward[agg] = out
            return out
        w = self.weights(agg)
        if self._up_levels is None:
            self._up_levels = self._build_levels(upward=True)
        n = len(self.tasks)
        rank = np.zeros(n)
        for leaf, seg, ptr, dst, comm in self._up_levels:
            if leaf.size:
                rank[leaf] = w[leaf]
            if seg.size:
                cand = comm + rank[dst]
                tails = np.maximum.reduceat(cand, ptr[:-1])
                rank[seg] = w[seg] + tails
        out = {t: float(rank[i]) for i, t in enumerate(self.tasks)}
        self._upward[agg] = out
        return out

    def downward(self, agg: str) -> dict["TaskId", float]:
        """Cached downward ranks (CPOP's ``rank_d``) for one aggregation."""
        cached = self._downward.get(agg)
        if cached is not None:
            return cached
        if (
            self._down_levels is None
            and not self._downward
            and len(self.tasks) < _SCALAR_RANK_CUTOFF
        ):
            out = self._downward_scalar(agg)
            self._downward[agg] = out
            return out
        w = self.weights(agg)
        if self._down_levels is None:
            self._down_levels = self._build_levels(upward=False)
        n = len(self.tasks)
        rank = np.zeros(n)
        for leaf, seg, ptr, src, comm in self._down_levels:
            # Entry tasks rank 0; `leaf` needs no write into the zeros.
            del leaf
            if seg.size:
                cand = (rank[src] + w[src]) + comm
                rank[seg] = np.maximum.reduceat(cand, ptr[:-1])
        out = {t: float(rank[i]) for i, t in enumerate(self.tasks)}
        self._downward[agg] = out
        return out

    def rank_order(self, agg: str = "mean") -> list["TaskId"]:
        """Cached decode order: decreasing upward rank, ties by
        topological position — the order the metaheuristic decoder and
        the compiled core place tasks in.  Treat the list as read-only.
        """
        cached = self._rank_order.get(agg)
        if cached is None:
            ranks = self.upward(agg)  # validates ``agg`` before caching
            pos = self.pos
            cached = sorted(self.tasks, key=lambda t: (-ranks[t], pos[t]))
            self._rank_order[agg] = cached
        return cached

    # ------------------------------------------------------------------
    # compiled flat-array form
    # ------------------------------------------------------------------
    def compiled(self):
        """The :class:`~repro.compiled.CompiledInstance` lowering, or
        ``None`` for per-link communication models (no pair-independent
        edge constant; callers fall back to the object decode path).

        Built once and shared — the service workers key their instance
        memo by fingerprint precisely so repeat requests reuse this.
        """
        tracer = get_tracer()
        if not self._compiled_built:
            if self.out_const is None:
                self._compiled = None
            else:
                from repro.compiled import CompiledInstance  # lazy: avoids cycle

                with tracer.span(
                    "compiled.lower", tasks=len(self.tasks), procs=len(self.procs)
                ):
                    self._compiled = CompiledInstance(self)
            self._compiled_built = True
            if tracer.enabled:
                tracer.count("kernel.compiled_build")
        elif tracer.enabled:
            tracer.count("kernel.compiled_hit")
        return self._compiled

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def cache_info(self) -> dict[str, dict[str, int]]:
        """Sizes and caps of every lazy cache on this kernel.

        ``maxsize`` is a hard bound: aggregation-keyed caches reject
        unknown keys before inserting, singletons hold at most one
        entry.  Tests assert ``size <= maxsize`` stays invariant.
        """
        cap = len(_AGGS)
        return {
            "weights": {"size": len(self._weights), "maxsize": cap},
            "upward": {"size": len(self._upward), "maxsize": cap},
            "downward": {"size": len(self._downward), "maxsize": cap},
            "rank_order": {"size": len(self._rank_order), "maxsize": cap},
            "up_levels": {"size": int(self._up_levels is not None), "maxsize": 1},
            "down_levels": {"size": int(self._down_levels is not None), "maxsize": 1},
            "exec_table": {"size": int(self._exec is not None), "maxsize": 1},
            "compiled": {"size": int(self._compiled is not None), "maxsize": 1},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InstanceKernel(tasks={len(self.tasks)}, procs={len(self.procs)})"
