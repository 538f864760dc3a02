"""Equivalence suite: incremental admission vs the from-scratch RTA.

:class:`ExactAdmissionCore` must answer every probe exactly as
``rta_test`` on the rebuilt task list would — on incremental streams,
on pre-seeded (even unschedulable) cores, and on cores of 16 or more
tasks, where the warm-started re-solves do the most work.  Its
``_fixed_point`` must be bit-identical to :func:`response_time`.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.admission import ExactAdmissionCore, _fixed_point
from repro.analysis.rta import response_time
from repro.analysis.schedulability import rta_test
from repro.model.priority import rate_monotonic_order
from repro.model.task import RealTimeTask


@st.composite
def task_sets(draw, min_size=1, max_size=24, name_pool=None):
    """Task sets with bounded parameters.

    Half the draws are *heavy* (per-task utilisation up to 0.6, so a
    core fills after a few tasks); the other half are *light* (per-task
    utilisation up to ``2/n``), so large sets sit near the
    schedulability cliff instead of diverging at once.  Names are
    unique unless ``name_pool`` is given, in which case each name is
    drawn from that many candidates and may repeat.
    """
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    heavy = draw(st.booleans())
    max_share = 0.6 if heavy else min(0.6, 2.0 / n)
    tasks = []
    for i in range(n):
        period = draw(st.floats(min_value=5.0, max_value=1000.0))
        wcet = period * draw(st.floats(min_value=0.005, max_value=max_share))
        deadline = period
        if draw(st.booleans()):
            # min() guards the f≈1.0 draws, where round-off could push
            # the deadline one ulp past the period.
            deadline = min(
                period,
                wcet
                + (period - wcet)
                * draw(st.floats(min_value=0.1, max_value=1.0)),
            )
        if name_pool is None:
            name = f"t{i:03d}"
        else:
            name = f"t{draw(st.integers(0, name_pool - 1)):03d}"
        tasks.append(
            RealTimeTask(name=name, wcet=wcet, period=period, deadline=deadline)
        )
    return tasks


@settings(max_examples=150, deadline=None)
@given(tasks=task_sets())
def test_fixed_point_bit_identical_to_response_time(tasks):
    """``_fixed_point`` is the admission loop's lean twin of
    :func:`response_time` — same accumulation order, bit for bit."""
    ordered = rate_monotonic_order(tasks)
    pairs = [(t.wcet, t.period) for t in ordered[:-1]]
    probe = ordered[-1]
    reference = response_time(probe.wcet, pairs, limit=probe.deadline)
    twin = _fixed_point(probe.wcet, pairs, probe.deadline)
    assert twin == reference or (
        math.isinf(twin) and math.isinf(reference)
    )


@settings(max_examples=100, deadline=None)
@given(stream=task_sets())
def test_admission_core_matches_rta_test_incrementally(stream):
    """Every probe verdict equals ``rta_test`` on the rebuilt list, and
    accepted tasks keep the state consistent for the next probe."""
    state = ExactAdmissionCore()
    placed = []
    for task in stream:
        verdict = rta_test([*placed, task])
        assert state.admits(task) == verdict
        if verdict:
            state.add(task)
            placed.append(task)


@settings(max_examples=100, deadline=None)
@given(
    residents=task_sets(name_pool=4),
    probes=task_sets(min_size=1, max_size=3, name_pool=4),
)
def test_admission_core_matches_rta_test_preseeded(residents, probes):
    """Pre-seeded cores — schedulable or not — answer probes exactly
    like the from-scratch reference test.  Names repeat: tasks sharing
    a name stay distinct, and a probe tied with a resident on the whole
    RM key ranks below it, as in the stable sort of the rebuilt list."""
    state = ExactAdmissionCore(residents)
    for probe in probes:
        assert state.admits(probe) == rta_test([*residents, probe])


def _light_core(rng: np.random.Generator, n: int) -> list[RealTimeTask]:
    """``n`` implicit-deadline tasks whose total utilisation spans
    ~0.6 … ~1.2, so both verdicts appear."""
    periods = rng.uniform(5.0, 1000.0, n)
    shares = rng.dirichlet(np.ones(n)) * rng.uniform(0.6, 1.2)
    return [
        RealTimeTask(
            name=f"t{i:03d}",
            wcet=float(min(max(u * p, 1e-4), p)),
            period=float(p),
        )
        for i, (u, p) in enumerate(zip(shares, periods))
    ]


def test_admission_core_matches_rta_test_on_large_cores():
    """Cores of 16–30 tasks: the probe that brings a core to each size
    from 16 up is checked against a freshly pre-seeded state and an
    incrementally built one."""
    rng = np.random.default_rng(20180319)
    verdicts = set()
    for _ in range(60):
        tasks = _light_core(rng, int(rng.integers(17, 31)))
        state = ExactAdmissionCore(tasks[:15])
        for k in range(15, len(tasks)):
            expected = rta_test(tasks[: k + 1])
            assert ExactAdmissionCore(tasks[:k]).admits(tasks[k]) == expected
            assert state.admits(tasks[k]) == expected
            state.add(tasks[k])
            verdicts.add(expected)
    assert verdicts == {True, False}
