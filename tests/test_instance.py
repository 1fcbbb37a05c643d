"""Tests for repro.instance."""

import pytest

from repro.dag.graph import TaskDAG
from repro.dag.task import Task
from repro.exceptions import (
    ConfigurationError,
    GraphError,
    UnknownProcessorError,
    UnknownTaskError,
)
from repro.instance import (
    Instance,
    homogeneous_instance,
    make_instance,
    speed_scaled_instance,
)
from repro.machine.cluster import Machine
from repro.machine.etc import ETCMatrix, etc_from_speeds

import numpy as np


class TestInstanceConstruction:
    def test_etc_must_cover_tasks(self, diamond_dag):
        machine = Machine.homogeneous(2)
        etc = ETCMatrix(["a"], [0, 1], np.ones((1, 2)))
        with pytest.raises(ConfigurationError):
            Instance(dag=diamond_dag, machine=machine, etc=etc)

    def test_etc_must_cover_procs(self, diamond_dag):
        machine = Machine.homogeneous(3)
        etc = ETCMatrix(list(diamond_dag.tasks()), [0, 1], np.ones((4, 2)))
        with pytest.raises(ConfigurationError):
            Instance(dag=diamond_dag, machine=machine, etc=etc)

    def test_default_name(self, diamond_dag):
        machine = Machine.homogeneous(2)
        inst = Instance(diamond_dag, machine, etc_from_speeds(diamond_dag, machine))
        assert diamond_dag.name in inst.name


class TestCostQueries:
    def test_exec_and_avg(self, diamond_dag):
        machine = Machine.from_speeds([1.0, 2.0])
        inst = Instance(diamond_dag, machine, etc_from_speeds(diamond_dag, machine))
        assert inst.exec_time("b", 1) == pytest.approx(2.0)
        assert inst.avg_exec_time("b") == pytest.approx((4.0 + 2.0) / 2)

    def test_comm_queries(self, diamond_dag):
        inst = homogeneous_instance(diamond_dag, num_procs=2, bandwidth=2.0, latency=1.0)
        assert inst.comm_time("a", "b", 0, 0) == 0.0
        assert inst.comm_time("a", "b", 0, 1) == pytest.approx(1.0 + 1.5)
        assert inst.avg_comm_time("a", "b") == pytest.approx(2.5)

    def test_counts(self, diamond_instance):
        assert diamond_instance.num_tasks == 4
        assert diamond_instance.num_procs == 3

    @pytest.mark.parametrize(
        "query, args, error",
        [
            ("exec_time", ("zz", 0), UnknownTaskError),
            ("exec_time", ("a", 99), UnknownProcessorError),
            ("comm_time", ("a", "d", 0, 1), GraphError),
            ("comm_time", ("zz", "a", 0, 1), GraphError),
            ("comm_time", ("a", "b", 0, 99), UnknownProcessorError),
            ("avg_comm_time", ("a", "d"), GraphError),
            ("avg_comm_time", ("zz", "a"), GraphError),
            ("successors_of", ("zz",), UnknownTaskError),
            ("predecessors_of", ("zz",), UnknownTaskError),
            ("etc_row", ("zz",), UnknownTaskError),
        ],
    )
    def test_unknown_ids_raise_typed_errors(self, diamond_instance, query, args, error):
        # "a" -> "d" is not an edge of the diamond; "zz" and 99 are not
        # a task and a processor of the instance.
        with pytest.raises(error) as info:
            getattr(diamond_instance, query)(*args)
        assert type(info.value) is error


class TestDerivedBounds:
    def test_sequential_time_homogeneous(self, diamond_dag):
        inst = homogeneous_instance(diamond_dag, num_procs=2)
        assert inst.sequential_time == pytest.approx(diamond_dag.total_cost())

    def test_sequential_time_picks_best_proc(self, diamond_dag):
        inst = speed_scaled_instance(diamond_dag, speeds=[1.0, 2.0])
        assert inst.sequential_time == pytest.approx(diamond_dag.total_cost() / 2.0)

    def test_cp_min_length_homogeneous(self, diamond_dag):
        inst = homogeneous_instance(diamond_dag, num_procs=2)
        # a -> b -> d = 2 + 4 + 2 (no comm, min=nominal)
        assert inst.cp_min_length == pytest.approx(8.0)

    def test_cp_min_uses_best_times(self, diamond_dag):
        inst = speed_scaled_instance(diamond_dag, speeds=[1.0, 4.0])
        assert inst.cp_min_length == pytest.approx(8.0 / 4.0)

    def test_empty_dag(self):
        dag = TaskDAG("empty")
        machine = Machine.homogeneous(2)
        inst = Instance(dag, machine, etc_from_speeds(dag, machine))
        assert inst.sequential_time == 0.0
        assert inst.cp_min_length == 0.0


class TestHomogeneityDetection:
    def test_homogeneous_true(self, diamond_dag):
        assert homogeneous_instance(diamond_dag, num_procs=3).is_homogeneous()

    def test_heterogeneous_false(self, diamond_dag):
        inst = make_instance(diamond_dag, num_procs=3, heterogeneity=1.0, seed=1)
        assert not inst.is_homogeneous()

    def test_beta_zero_is_homogeneous(self, diamond_dag):
        inst = make_instance(diamond_dag, num_procs=3, heterogeneity=0.0, seed=1)
        assert inst.is_homogeneous()


class TestBuilders:
    def test_make_instance_seeded(self, diamond_dag):
        a = make_instance(diamond_dag, num_procs=3, seed=5)
        b = make_instance(diamond_dag, num_procs=3, seed=5)
        assert (a.etc.as_array() == b.etc.as_array()).all()

    def test_make_instance_consistency_passthrough(self, diamond_dag):
        inst = make_instance(
            diamond_dag, num_procs=4, heterogeneity=1.0, consistency="consistent", seed=2
        )
        assert inst.etc.is_consistent()

    def test_speed_scaled(self, diamond_dag):
        inst = speed_scaled_instance(diamond_dag, speeds=[1.0, 2.0], bandwidth=4.0)
        assert inst.num_procs == 2
        assert inst.exec_time("a", 1) == pytest.approx(1.0)
