"""Tests for the headline ImprovedScheduler and its two isolated
components (LookaheadScheduler, DuplicationScheduler)."""

import pytest

from repro.core import (
    DuplicationScheduler,
    ImprovedConfig,
    ImprovedScheduler,
    LookaheadScheduler,
)
from repro.dag.generators import gaussian_elimination_dag, random_dag
from repro.instance import homogeneous_instance, make_instance
from repro.schedule.validation import validate
from repro.schedulers.heft import HEFT


class TestNeverWorseThanHeft:
    """The contribution's headline invariant: a strict superset of
    HEFT's search can never lose to HEFT."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_heterogeneous(self, seed):
        dag = random_dag(50, seed=seed)
        inst = make_instance(dag, num_procs=4, heterogeneity=0.75, seed=seed)
        imp = ImprovedScheduler().schedule(inst)
        heft = HEFT().schedule(inst)
        validate(imp, inst)
        assert imp.makespan <= heft.makespan + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_random_homogeneous(self, seed):
        dag = random_dag(50, seed=seed)
        inst = homogeneous_instance(dag, num_procs=4)
        imp = ImprovedScheduler().schedule(inst)
        heft = HEFT().schedule(inst)
        validate(imp, inst)
        assert imp.makespan <= heft.makespan + 1e-9

    def test_topcuoglu(self, topcuoglu_instance):
        imp = ImprovedScheduler().schedule(topcuoglu_instance)
        validate(imp, topcuoglu_instance)
        assert imp.makespan <= 80.0 + 1e-9

    @pytest.mark.parametrize("executor", [True, False])
    def test_ulp_level_end_ties_break_like_heft(self, executor):
        """Regression: with ETC rows that differ only at the ulp level,
        the plain-EFT pass broke ends that differ by an ulp toward the
        smaller one, where HEFT keeps the earlier processor, so IMP lost
        to HEFT (150.58 vs 149.68)."""
        from repro.compiled import use_executor

        dag = random_dag(24, ccr=0.0, seed=4)
        inst = make_instance(dag, num_procs=2, heterogeneity=2.220446049250313e-16, seed=4)
        with use_executor(executor):
            plain = ImprovedScheduler(ImprovedConfig.baseline_heft()).schedule(inst)
            imp = ImprovedScheduler().schedule(inst)
            heft = HEFT().schedule(inst)
        assert plain.assignment() == heft.assignment()
        assert imp.makespan <= heft.makespan + 1e-9

    def test_strictly_better_somewhere(self):
        # Over a modest suite the improvements must actually fire.
        better = 0
        for seed in range(10):
            dag = random_dag(60, seed=seed)
            inst = make_instance(dag, num_procs=4, heterogeneity=0.75, seed=seed)
            if (
                ImprovedScheduler().schedule(inst).makespan
                < HEFT().schedule(inst).makespan - 1e-9
            ):
                better += 1
        assert better >= 5


class TestConfigBehaviour:
    def test_baseline_config_equals_heft(self, topcuoglu_instance):
        imp = ImprovedScheduler(ImprovedConfig.baseline_heft())
        s = imp.schedule(topcuoglu_instance)
        h = HEFT().schedule(topcuoglu_instance)
        assert s.makespan == pytest.approx(h.makespan)
        assert s.assignment() == h.assignment()

    def test_single_variant_on_homogeneous(self, diamond_dag):
        # All variants coincide: one pass must suffice and still be valid.
        inst = homogeneous_instance(diamond_dag, num_procs=2)
        s = ImprovedScheduler().schedule(inst)
        validate(s, inst)

    def test_each_ablation_point_feasible(self, topcuoglu_instance):
        from repro.bench.registry import ablation_configs

        for label, config in ablation_configs().items():
            s = ImprovedScheduler(config).schedule(topcuoglu_instance)
            validate(s, topcuoglu_instance)

    def test_name_reflects_config(self):
        assert ImprovedScheduler().name == "IMP"
        assert "la" in ImprovedScheduler(ImprovedConfig()).name

    def test_deterministic(self, topcuoglu_instance):
        a = ImprovedScheduler().schedule(topcuoglu_instance)
        b = ImprovedScheduler().schedule(topcuoglu_instance)
        assert a.makespan == b.makespan
        assert a.assignment() == b.assignment()


class TestIsolatedComponents:
    @pytest.mark.parametrize("cls", [LookaheadScheduler, DuplicationScheduler])
    def test_feasible_everywhere(self, cls, topcuoglu_instance):
        s = cls().schedule(topcuoglu_instance)
        validate(s, topcuoglu_instance)

    def test_duplication_pays_on_gaussian(self):
        # The pivot column broadcast is where duplication shines.
        dag = gaussian_elimination_dag(8, data_scale=30.0)
        wins = 0
        for seed in range(5):
            inst = make_instance(dag, num_procs=4, heterogeneity=0.5, seed=seed)
            dup = DuplicationScheduler().schedule(inst).makespan
            heft = HEFT().schedule(inst).makespan
            wins += dup <= heft + 1e-9
        assert wins >= 3

    def test_lookahead_feasible_on_random(self):
        for seed in range(4):
            dag = random_dag(40, seed=seed)
            inst = make_instance(dag, num_procs=3, seed=seed)
            validate(LookaheadScheduler().schedule(inst), inst)

    def test_components_subset_of_improved(self):
        # IMP's best must be <= each isolated component's result when the
        # component is part of IMP's search... not guaranteed in general
        # (different rank variants), so assert the weaker corridor:
        # IMP within 5% of the best isolated component on average.
        import numpy as np

        ratios = []
        for seed in range(6):
            dag = random_dag(50, seed=seed)
            inst = make_instance(dag, num_procs=4, heterogeneity=0.75, seed=seed)
            imp = ImprovedScheduler().schedule(inst).makespan
            best_comp = min(
                LookaheadScheduler().schedule(inst).makespan,
                DuplicationScheduler().schedule(inst).makespan,
            )
            ratios.append(imp / best_comp)
        assert float(np.mean(ratios)) <= 1.05


class TestEdgeCases:
    def test_single_task(self):
        from repro.dag.graph import TaskDAG
        from repro.dag.task import Task

        dag = TaskDAG()
        dag.add_task(Task("x", cost=4.0))
        inst = homogeneous_instance(dag, num_procs=3)
        s = ImprovedScheduler().schedule(inst)
        assert s.makespan == pytest.approx(4.0)

    def test_single_processor(self):
        dag = random_dag(25, seed=2)
        inst = make_instance(dag, num_procs=1, seed=2)
        s = ImprovedScheduler().schedule(inst)
        validate(s, inst)
        total = sum(inst.exec_time(t, 0) for t in dag.tasks())
        assert s.makespan == pytest.approx(total)

    def test_chain(self, chain_dag):
        inst = make_instance(chain_dag, num_procs=3, heterogeneity=0.5, seed=1)
        s = ImprovedScheduler().schedule(inst)
        validate(s, inst)
