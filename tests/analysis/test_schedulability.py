"""Unit tests for the admission tests and whole-partition checks."""

from __future__ import annotations

import math

import pytest

from repro.analysis.schedulability import (
    breakdown_utilization,
    get_admission_test,
    hyperbolic_test,
    liu_layland_bound,
    liu_layland_test,
    partition_schedulable,
    rta_test,
    security_schedulable_on_core,
    utilization_test,
)
from repro.errors import ConfigError
from repro.model.platform import Platform
from repro.model.system import Partition
from repro.model.task import RealTimeTask, SecurityTask, TaskSet


def rt(name: str, wcet: float, period: float) -> RealTimeTask:
    return RealTimeTask(name=name, wcet=wcet, period=period)


class TestUtilizationBounds:
    def test_liu_layland_bound_known_values(self):
        assert liu_layland_bound(1) == pytest.approx(1.0)
        assert liu_layland_bound(2) == pytest.approx(2 * (2**0.5 - 1))
        assert liu_layland_bound(1000) == pytest.approx(
            math.log(2), abs=1e-3
        )

    def test_liu_layland_bound_degenerate(self):
        assert liu_layland_bound(0) == 0.0

    def test_liu_layland_test(self):
        assert liu_layland_test([rt("a", 1, 4), rt("b", 1, 4)])
        assert not liu_layland_test([rt("a", 2, 4), rt("b", 2, 4)])

    def test_hyperbolic_dominates_liu_layland(self):
        # An asymmetric set accepted by hyperbolic but rejected by LL:
        # U = (0.6, 0.25) → Π(U+1) = 2.0 ≤ 2 but ΣU = 0.85 > LL(2) ≈ .828.
        tasks = [rt("a", 0.6, 1.0), rt("b", 1.0, 4.0)]
        assert not liu_layland_test(tasks)
        assert hyperbolic_test(tasks)

    def test_hyperbolic_rejects_full_load(self):
        assert not hyperbolic_test([rt("a", 1, 2), rt("b", 1, 2)])

    def test_utilization_test_boundary(self):
        assert utilization_test([rt("a", 5, 10), rt("b", 5, 10)])
        assert not utilization_test([rt("a", 6, 10), rt("b", 5, 10)])


class TestAdmissionRegistry:
    @pytest.mark.parametrize(
        "name", ["rta", "hyperbolic", "liu-layland", "utilization"]
    )
    def test_known_names(self, name):
        test = get_admission_test(name)
        assert callable(test)
        assert test([rt("a", 1, 100)])

    @pytest.mark.parametrize("name", ["magic", "rta-batch"])
    def test_unknown_name_raises(self, name):
        with pytest.raises(ConfigError, match=name):
            get_admission_test(name)

    def test_tests_ordered_by_permissiveness(self):
        # utilization ⊇ rta ⊇ hyperbolic ⊇ liu-layland on this set.
        tasks = [rt("a", 2, 4), rt("b", 4, 8)]  # harmonic, U = 1.0
        assert utilization_test(tasks)
        assert rta_test(tasks)
        assert not hyperbolic_test(tasks)
        assert not liu_layland_test(tasks)


class TestPartitionSchedulable:
    def test_schedulable_partition(self):
        platform = Platform(2)
        tasks = TaskSet([rt("a", 2, 4), rt("b", 4, 8), rt("c", 1, 4)])
        partition = Partition(platform, tasks, {"a": 0, "b": 0, "c": 1})
        assert partition_schedulable(partition)

    def test_unschedulable_core_detected(self):
        platform = Platform(2)
        tasks = TaskSet([rt("a", 3, 4), rt("b", 3, 6)])
        partition = Partition(platform, tasks, {"a": 0, "b": 0})
        assert not partition_schedulable(partition)
        # Splitting them fixes it.
        partition2 = Partition(platform, tasks, {"a": 0, "b": 1})
        assert partition_schedulable(partition2)


class TestSecuritySchedulableOnCore:
    def test_linear_vs_exact(self):
        rt_tasks = [rt("a", 2, 10)]
        task = SecurityTask(
            name="s", wcet=5.0, period_des=20.0, period_max=200.0
        )
        # Linear bound at T=20: 5 + 2 + 0.2*20 = 11 ≤ 20 → both pass.
        assert security_schedulable_on_core(task, 20.0, rt_tasks)
        assert security_schedulable_on_core(task, 20.0, rt_tasks, exact=True)

    def test_exact_more_permissive_than_linear(self):
        rt_tasks = [rt("a", 4, 10)]
        task = SecurityTask(
            name="s", wcet=5.0, period_des=10.0, period_max=200.0
        )
        # Linear at T=10: 5 + 4 + 0.4*10 = 13 > 10 → fail;
        # exact: R = 5 + ceil(R/10)*4 → 9 ≤ 10 → pass.
        assert not security_schedulable_on_core(task, 10.0, rt_tasks)
        assert security_schedulable_on_core(task, 10.0, rt_tasks, exact=True)

    def test_hp_security_interference_counts(self):
        task = SecurityTask(
            name="s", wcet=5.0, period_des=10.0, period_max=200.0
        )
        other = SecurityTask(
            name="h", wcet=6.0, period_des=10.0, period_max=100.0
        )
        assert security_schedulable_on_core(task, 12.0, [])
        assert not security_schedulable_on_core(
            task, 12.0, [], hp_security=[(other, 10.0)]
        )


class TestBreakdownUtilization:
    def test_idle_set_is_infinite(self):
        assert breakdown_utilization([]) == math.inf

    def test_harmonic_set_breaks_at_one(self):
        tasks = [rt("a", 1, 4), rt("b", 2, 8)]  # U = 0.5, harmonic
        scale = breakdown_utilization(tasks)
        assert scale == pytest.approx(2.0, rel=1e-2)

    def test_scaling_down_always_schedulable(self):
        tasks = [rt("a", 3, 7), rt("b", 2, 11), rt("c", 1, 13)]
        scale = breakdown_utilization(tasks)
        assert scale >= 1.0  # the set itself is schedulable
