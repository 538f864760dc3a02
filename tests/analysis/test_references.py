"""The analyses pinned to slow, independent references.

Each closed-form or fixed-point analysis is checked against a brute
force that shares none of its code:

* :func:`response_time` and :func:`core_response_times` against a
  unit-slot simulation of the synchronous (critical-instant) release;
* :func:`rta_schedulable` and ``rta_test`` against a job-level
  simulation of one whole hyperperiod;
* the demand bound function, its check points and the Eq. (1)
  necessary condition against job enumeration and a dense scan;
* the Eq. (5)/(6) linear interference against its defining sum and
  against the exact RTA it over-approximates;
* blocking tolerance against the scheduling-point (Lehoczky) test.

Integer-valued parameters keep every reference exact, so agreement is
asserted without tolerances wherever the analysis is itself exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.blocking import (
    max_tolerable_blocking,
    rt_schedulable_with_blocking,
)
from repro.analysis.dbf import (
    dbf_check_points,
    demand_bound,
    necessary_condition,
    total_demand,
)
from repro.analysis.interference import (
    InterferenceEnv,
    Interferer,
    linear_bound_met,
    linear_interference,
    min_feasible_period,
)
from repro.analysis.rta import (
    core_response_times,
    response_time,
    rta_schedulable,
)
from repro.analysis.schedulability import rta_test
from repro.errors import ValidationError
from repro.model.priority import rate_monotonic_order
from repro.model.task import RealTimeTask, SecurityTask

#: Periods whose hyperperiod stays small (at most 120 slots).
_SMALL_PERIODS = (2, 3, 4, 5, 6, 8, 10, 12)


@st.composite
def integer_cores(draw, max_size=6, periods=None, constrained=True):
    """One core of integer-valued tasks with unique names."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    tasks = []
    for i in range(n):
        if periods is None:
            period = draw(st.integers(min_value=2, max_value=20))
        else:
            period = draw(st.sampled_from(periods))
        wcet = draw(st.integers(min_value=1, max_value=period))
        deadline = period
        if constrained and draw(st.booleans()):
            deadline = draw(st.integers(min_value=wcet, max_value=period))
        tasks.append(
            RealTimeTask(
                name=f"t{i:02d}",
                wcet=float(wcet),
                period=float(period),
                deadline=float(deadline),
            )
        )
    return tasks


#: ``(C, T)`` interferer pairs with integer values.
_integer_pairs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=2, max_value=20),
    ),
    max_size=5,
)


def _first_job_response(wcet, higher, blocking, horizon):
    """Completion time of a job released with every higher-priority
    ``(C, T)`` task at 0, behind a lower-priority non-preemptive job
    holding the core for ``blocking`` slots; ``inf`` past ``horizon``.
    """
    backlog = 0
    remaining = wcet
    for slot in range(horizon):
        backlog += sum(c for c, t in higher if slot % t == 0)
        if slot < blocking:
            continue
        if backlog:
            backlog -= 1
            continue
        remaining -= 1
        if remaining == 0:
            return float(slot + 1)
    return math.inf


def _hyperperiod_meets_deadlines(tasks):
    """Simulate the synchronous release of ``tasks`` (deadlines within
    periods) in RM order over one hyperperiod; True iff no job misses.
    """
    ordered = rate_monotonic_order(tasks)
    periods = [int(t.period) for t in ordered]
    horizon = math.lcm(*periods)
    remaining = [0] * len(ordered)
    due = [0] * len(ordered)
    for slot in range(horizon + 1):
        if any(r > 0 and d <= slot for r, d in zip(remaining, due)):
            return False
        if slot == horizon:
            return True
        for i, task in enumerate(ordered):
            if slot % periods[i] == 0:
                remaining[i] = int(task.wcet)
                due[i] = slot + int(task.deadline)
        for i in range(len(ordered)):
            if remaining[i]:
                remaining[i] -= 1
                break
    return True


def _scheduling_points(task, higher):
    """``{D} ∪ {k·T_h ≤ D}``: where the time-demand of ``task`` under
    ``higher`` can first fall to the available time."""
    points = {task.deadline}
    for h in higher:
        k = 1
        while k * h.period <= task.deadline:
            points.add(k * h.period)
            k += 1
    return sorted(points)


def _slack_at_points(task, higher):
    """Largest ``t − C − Σ ⌈t/T_h⌉·C_h`` over the scheduling points: the
    blocking ``task`` can absorb and still meet its deadline."""
    return max(
        t - task.wcet - sum(math.ceil(t / h.period) * h.wcet for h in higher)
        for t in _scheduling_points(task, higher)
    )


# ------------------------------------------------------------------- RTA


@settings(max_examples=150, deadline=None)
@given(
    wcet=st.integers(min_value=1, max_value=10),
    higher=_integer_pairs,
    limit=st.integers(min_value=1, max_value=120),
)
def test_response_time_matches_unit_slot_simulation(wcet, higher, limit):
    analysed = response_time(float(wcet), higher, limit=float(limit))
    assert analysed == _first_job_response(wcet, higher, 0, limit)


@settings(max_examples=150, deadline=None)
@given(
    wcet=st.integers(min_value=1, max_value=10),
    higher=_integer_pairs,
    blocking=st.integers(min_value=0, max_value=10),
)
def test_response_time_with_blocking_matches_unit_slot_simulation(
    wcet, higher, blocking
):
    limit = 120
    analysed = response_time(
        float(wcet), higher, limit=float(limit), blocking=float(blocking)
    )
    assert analysed == _first_job_response(wcet, higher, blocking, limit)


@settings(max_examples=100, deadline=None)
@given(tasks=integer_cores())
def test_core_response_times_match_unit_slot_simulation(tasks):
    analysed = core_response_times(tasks)
    ordered = rate_monotonic_order(tasks)
    for k, task in enumerate(ordered):
        higher = [(int(h.wcet), int(h.period)) for h in ordered[:k]]
        simulated = _first_job_response(
            int(task.wcet), higher, 0, int(task.deadline)
        )
        assert analysed[task.name] == simulated


@settings(max_examples=100, deadline=None)
@given(tasks=integer_cores(periods=_SMALL_PERIODS))
def test_rta_schedulable_matches_hyperperiod_simulation(tasks):
    simulated = _hyperperiod_meets_deadlines(tasks)
    assert rta_schedulable(tasks) == simulated
    assert rta_test(tasks) == simulated


def test_empty_core_is_schedulable():
    assert rta_schedulable([]) is True
    assert rta_test([]) is True
    assert core_response_times([]) == {}


def test_single_task_is_its_own_wcet():
    assert response_time(3.0, []) == 3.0
    task = RealTimeTask(name="only", wcet=3.0, period=10.0)
    assert core_response_times([task]) == {"only": 3.0}


@pytest.mark.parametrize(
    "wcet, interferers, blocking",
    [
        (0.0, [], 0.0),
        (1.0, [(1.0, -1.0)], 0.0),
        (1.0, [(0.0, 10.0)], 0.0),
        (1.0, [], -0.5),
    ],
    ids=["zero-wcet", "negative-period", "zero-interferer-wcet", "negative-blocking"],
)
def test_response_time_rejects_nonpositive_inputs(wcet, interferers, blocking):
    with pytest.raises(ValidationError):
        response_time(wcet, interferers, blocking=blocking)


def _random_core(rng: np.random.Generator) -> list[RealTimeTask]:
    """One random core: n tasks, total utilisation spanning ~0.2 … ~1.3
    so both schedulable and unschedulable cores appear."""
    n = int(rng.integers(1, 30))
    periods = rng.uniform(5.0, 1000.0, n)
    shares = rng.dirichlet(np.ones(n)) * rng.uniform(0.2, 1.3)
    return [
        RealTimeTask(
            name=f"t{i:03d}", wcet=float(min(max(u * p, 1e-4), p)), period=float(p)
        )
        for i, (u, p) in enumerate(zip(shares, periods))
    ]


def test_verdicts_agree_on_200_random_cores():
    """``rta_test`` (the incremental admission state) and
    :func:`rta_schedulable` reach one verdict, and it is the one the
    per-task response times imply."""
    rng = np.random.default_rng(20180319)
    verdicts = set()
    for _ in range(200):
        tasks = _random_core(rng)
        verdict = rta_schedulable(tasks)
        assert rta_test(tasks) == verdict
        responses = core_response_times(tasks)
        assert all(math.isfinite(r) for r in responses.values()) == verdict
        verdicts.add(verdict)
    # The sweep must exercise both verdicts.
    assert verdicts == {True, False}


# ------------------------------------------------------------------- DBF


@settings(max_examples=150, deadline=None)
@given(
    tasks=integer_cores(),
    half_slots=st.integers(min_value=0, max_value=400),
)
def test_demand_bound_counts_jobs_inside_the_window(tasks, half_slots):
    t = half_slots / 2.0
    for task in tasks:
        jobs = 0
        while jobs * task.period + task.deadline <= t:
            jobs += 1
        assert demand_bound(task, t) == jobs * task.wcet
    assert total_demand(tasks, t) == sum(demand_bound(x, t) for x in tasks)


@settings(max_examples=100, deadline=None)
@given(tasks=integer_cores(), horizon=st.integers(min_value=0, max_value=200))
def test_dbf_check_points_are_exactly_the_demand_steps(tasks, horizon):
    points = list(dbf_check_points(tasks, float(horizon)))
    # Demand moves only at integer instants here, so comparing each
    # integer with the half-slot before it finds every step.
    steps = [
        float(t)
        for t in range(1, horizon + 1)
        if total_demand(tasks, float(t)) > total_demand(tasks, t - 0.5)
    ]
    assert points == steps


@settings(max_examples=150, deadline=None)
@given(
    tasks=integer_cores(max_size=5, periods=_SMALL_PERIODS),
    cores=st.integers(min_value=1, max_value=3),
)
def test_necessary_condition_matches_scan_over_hyperperiod(tasks, cores):
    utilization = sum(Fraction(int(t.wcet), int(t.period)) for t in tasks)
    # Past one hyperperiod beyond the largest deadline the demand
    # excess repeats or falls, so integer instants up to there decide.
    last = math.lcm(*(int(t.period) for t in tasks)) + max(
        int(t.deadline) for t in tasks
    )
    expected = utilization <= cores and all(
        total_demand(tasks, float(t)) <= cores * t for t in range(1, last + 1)
    )
    assert necessary_condition(tasks, cores) == expected


def _first_exact_overload(tasks, cores, last_job):
    """The first absolute deadline (exact arithmetic, jobs ``< last_job``
    per task) at which demand exceeds ``cores·t``, or ``None``."""

    def demand(t):
        total = Fraction(0)
        for task in tasks:
            window = (t - Fraction(task.deadline)) / Fraction(task.period)
            total += max(0, math.floor(window) + 1) * Fraction(task.wcet)
        return total

    deadlines = sorted(
        {
            Fraction(task.deadline) + k * Fraction(task.period)
            for task in tasks
            for k in range(last_job)
        }
    )
    return next((t for t in deadlines if demand(t) > cores * t), None)


_OFF_GRID = 1.0 + 2.0**-11
_REAL_PERIODS = (12.3456789, 45.678901, 98.7654321)


@pytest.mark.parametrize(
    "tasks, cores",
    [
        pytest.param(
            [
                RealTimeTask(name="a", wcet=5.0, period=8.0),
                RealTimeTask(name="b", wcet=7.0, period=8.0),
                RealTimeTask(name="c", wcet=3.0, period=6.0, deadline=4.0),
            ],
            2,
            id="full-utilisation-integer",
        ),
        # Exact hyperperiod 2049; rounded to 1e-3 ticks it looks like 1.
        pytest.param(
            [
                RealTimeTask(
                    name="a",
                    wcet=0.625244140625,
                    period=_OFF_GRID,
                    deadline=_OFF_GRID - 2.0**-13,
                ),
                RealTimeTask(
                    name="b",
                    wcet=0.375,
                    period=1.0,
                    deadline=_OFF_GRID - 2.0**-13 - 0.5,
                ),
            ],
            1,
            id="off-grid-periods",
        ),
        # U = 1 exactly; the exact hyperperiod is far too long to scan
        # (rounded to 1e-3 it still holds ~4e9 check points), so only
        # the check-point budget bounds the scan.
        pytest.param(
            [
                RealTimeTask(
                    name="a", wcet=_REAL_PERIODS[0] / 4, period=_REAL_PERIODS[0]
                ),
                RealTimeTask(
                    name="b",
                    wcet=_REAL_PERIODS[1] / 4,
                    period=_REAL_PERIODS[1],
                    deadline=_REAL_PERIODS[1] * 0.75,
                ),
                RealTimeTask(
                    name="c", wcet=_REAL_PERIODS[2] / 2, period=_REAL_PERIODS[2]
                ),
            ],
            1,
            id="full-utilisation-real-periods",
        ),
        # The same set with U one round-off below 1: the utilisation
        # bound Σ U_i (T_i − D_i) / (M − U) is ~1e16, so only the
        # check-point budget keeps the scan finite (and in memory).
        pytest.param(
            [
                RealTimeTask(
                    name="a", wcet=_REAL_PERIODS[0] / 4, period=_REAL_PERIODS[0]
                ),
                RealTimeTask(
                    name="b",
                    wcet=_REAL_PERIODS[1] / 4,
                    period=_REAL_PERIODS[1],
                    deadline=_REAL_PERIODS[1] * 0.75,
                ),
                RealTimeTask(
                    name="c",
                    wcet=_REAL_PERIODS[2] / 2 * (1 - 2.0**-52),
                    period=_REAL_PERIODS[2],
                ),
            ],
            1,
            id="round-off-below-full-utilisation",
        ),
    ],
)
def test_necessary_condition_catches_late_overload(tasks, cores):
    """Demand first exceeds ``M·t`` well past the largest deadline."""
    utilization = sum(Fraction(t.wcet) / Fraction(t.period) for t in tasks)
    assert utilization <= cores
    first = _first_exact_overload(tasks, cores, last_job=1100)
    assert first is not None and first > max(t.deadline for t in tasks)
    assert not necessary_condition(tasks, cores)


# ---------------------------------------------------------- interference

_real_pairs = st.lists(
    st.tuples(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=5.0, max_value=1000.0),
    ),
    max_size=6,
)


def _rt_tasks(pairs):
    return [
        RealTimeTask(name=f"r{i:02d}", wcet=min(c, t), period=t)
        for i, (c, t) in enumerate(pairs)
    ]


def _security_tasks(pairs):
    return [
        (
            SecurityTask(
                name=f"s{i:02d}", wcet=c, period_des=1e6, period_max=1e7
            ),
            t,
        )
        for i, (c, t) in enumerate(pairs)
    ]


@settings(max_examples=100, deadline=None)
@given(
    rt=_real_pairs,
    hp=_real_pairs,
    period=st.floats(min_value=1.0, max_value=10_000.0),
)
def test_linear_interference_is_the_eq5_sum(rt, hp, period):
    rt_tasks, hp_security = _rt_tasks(rt), _security_tasks(hp)
    expected = sum((1 + period / t.period) * t.wcet for t in rt_tasks) + sum(
        (1 + period / p) * s.wcet for s, p in hp_security
    )
    assert math.isclose(
        linear_interference(period, rt_tasks, hp_security),
        expected,
        rel_tol=1e-12,
        abs_tol=1e-9,
    )


@settings(max_examples=100, deadline=None)
@given(rt=_real_pairs, period=st.floats(min_value=1.0, max_value=10_000.0))
def test_linear_interference_bounds_the_exact_window_demand(rt, period):
    rt_tasks = _rt_tasks(rt)
    exact = sum(math.ceil(period / t.period) * t.wcet for t in rt_tasks)
    assert linear_interference(period, rt_tasks) >= exact - 1e-9


@settings(max_examples=100, deadline=None)
@given(rt=_real_pairs, wcet=st.floats(min_value=0.1, max_value=100.0))
def test_min_feasible_period_is_the_least_meeting_eq6(rt, wcet):
    env = InterferenceEnv.on_core(_rt_tasks(rt))
    task = SecurityTask(name="probe", wcet=wcet, period_des=1e6, period_max=1e7)
    period = min_feasible_period(task, env)
    if env.utilization >= 1.0:
        assert math.isinf(period)
        assert not any(
            linear_bound_met(task, 10.0**k, env) for k in range(-3, 12)
        )
        return
    assume(env.utilization <= 0.999)
    assert linear_bound_met(task, period, env)
    assert not linear_bound_met(task, period * (1 - 1e-3), env)


@settings(max_examples=100, deadline=None)
@given(rt=_real_pairs, wcet=st.floats(min_value=0.1, max_value=100.0))
def test_exact_rta_fits_within_min_feasible_period(rt, wcet):
    """Eq. (6) is sound: at the least period it accepts, the exact
    response time of the security task is already within the period."""
    env = InterferenceEnv.on_core(_rt_tasks(rt))
    task = SecurityTask(name="probe", wcet=wcet, period_des=1e6, period_max=1e7)
    # Interferers a hair below saturation would push the fixed-point
    # iteration past its cap before it reaches the period.
    assume(env.utilization <= 0.99)
    period = min_feasible_period(task, env)
    exact = response_time(wcet, env.interferers, limit=period * (1 + 1e-9))
    assert exact <= period * (1 + 1e-9)


@settings(max_examples=100, deadline=None)
@given(rt=_real_pairs, extra=_real_pairs)
def test_env_aggregates_are_the_direct_sums(rt, extra):
    env = InterferenceEnv.on_core(_rt_tasks(rt))
    grown = env.extended(Interferer(c, t) for c, t in extra)
    everything = [*env.interferers, *(Interferer(c, t) for c, t in extra)]
    assert grown.interferers == tuple(everything)
    assert math.isclose(
        grown.total_wcet, sum(i.wcet for i in everything), abs_tol=1e-9
    )
    assert math.isclose(
        grown.utilization,
        sum(i.wcet / i.period for i in everything),
        rel_tol=1e-12,
        abs_tol=1e-12,
    )


# -------------------------------------------------------------- blocking


@settings(max_examples=100, deadline=None)
@given(tasks=integer_cores(), blocking=st.integers(min_value=0, max_value=20))
def test_blocking_verdict_matches_scheduling_point_test(tasks, blocking):
    ordered = rate_monotonic_order(tasks)
    expected = all(
        _slack_at_points(task, ordered[:k]) >= blocking
        for k, task in enumerate(ordered)
    )
    assert rt_schedulable_with_blocking(tasks, float(blocking)) == expected


@settings(max_examples=100, deadline=None)
@given(tasks=integer_cores())
def test_zero_blocking_verdict_is_plain_rta(tasks):
    assert rt_schedulable_with_blocking(tasks, 0.0) == rta_schedulable(tasks)


@settings(max_examples=60, deadline=None)
@given(tasks=integer_cores(max_size=5))
def test_max_tolerable_blocking_matches_scheduling_point_slack(tasks):
    ordered = rate_monotonic_order(tasks)
    slack = min(
        _slack_at_points(task, ordered[:k]) for k, task in enumerate(ordered)
    )
    # Bisection to 1e-6 on a verdict with a 1e-9 deadline fuzz.
    assert max_tolerable_blocking(tasks) == pytest.approx(
        max(slack, 0.0), abs=2e-6
    )
