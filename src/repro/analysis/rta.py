"""Exact response-time analysis (RTA) for fixed-priority preemptive
scheduling on a single core.

The classic Audsley/Joseph–Pandya recurrence: the worst-case response
time of a task with WCET ``C`` under interference from higher-priority
tasks ``(C_i, T_i)`` released synchronously is the least fixed point of

    R = C + Σ_i ⌈R / T_i⌉ · C_i.

The paper replaces the ceiling with the linear envelope ``1 + R/T`` to
stay inside geometric programming (Eq. 5); this module provides the exact
version, used (a) to admit real-time partitions and (b) by the exact-RTA
allocator ablation that quantifies the linearisation's pessimism.

A useful structural fact exploited by the ablation: the fixed point does
**not** depend on the analysed task's own period (only its WCET and the
interferers), so the exact minimal period of a lowest-priority security
task is simply ``max(T_des, R)``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.analysis.interference import Interferer, InterferenceEnv
from repro.errors import ValidationError
from repro.model.priority import rate_monotonic_order
from repro.model.task import RealTimeTask

__all__ = [
    "response_time",
    "response_time_env",
    "rta_schedulable",
    "core_response_times",
]

#: Safety cap on fixed-point iterations; the recurrence is monotone and
#: bounded by ``limit`` so this only guards against degenerate inputs.
_MAX_ITERATIONS = 100_000


def response_time(
    wcet: float,
    interferers: Iterable[Interferer] | Sequence[tuple[float, float]],
    limit: float = math.inf,
    blocking: float = 0.0,
) -> float:
    """Least fixed point of the RTA recurrence, or ``inf`` if it exceeds
    ``limit``.

    Parameters
    ----------
    wcet:
        WCET of the task under analysis.
    interferers:
        Higher-priority tasks, as :class:`Interferer` objects or plain
        ``(wcet, period)`` pairs.
    limit:
        Abandon the iteration once the response time exceeds this value
        (typically the task's deadline); returns ``inf`` in that case.
        ``inf`` is also returned when the iteration has not converged
        after ``_MAX_ITERATIONS`` steps (interferer utilisation within
        round-off of 1), so no input makes the analysis raise or hang.
    blocking:
        Optional blocking term (e.g. from non-preemptive lower-priority
        execution); added once, outside the ceiling terms.
    """
    if wcet <= 0:
        raise ValidationError(f"wcet must be positive, got {wcet!r}")
    if blocking < 0:
        raise ValidationError(f"blocking must be non-negative: {blocking!r}")
    pairs = [
        (i.wcet, i.period) if isinstance(i, Interferer) else (i[0], i[1])
        for i in interferers
    ]
    for c, t in pairs:
        if c <= 0 or t <= 0:
            raise ValidationError(
                f"interferer needs positive wcet/period, got ({c!r}, {t!r})"
            )
    # A quick divergence check: if the interferers already saturate the
    # core, the recurrence has no finite fixed point.
    if sum(c / t for c, t in pairs) >= 1.0:
        return math.inf

    current = wcet + blocking + sum(c for c, _ in pairs)
    for _ in range(_MAX_ITERATIONS):
        if current > limit:
            return math.inf
        nxt = (
            wcet
            + blocking
            + sum(math.ceil(current / t - 1e-12) * c for c, t in pairs)
        )
        if nxt <= current + 1e-12:
            return current
        current = nxt
    # Still climbing after the step budget: interferer utilisation a
    # round-off below 1 puts the fixed point astronomically far out
    # (one interferer (30 − 4e-15, 30) needs ~1e14 steps).  ``inf`` is
    # the conservative answer — it rejects the task, never admits one.
    return math.inf


def response_time_env(
    wcet: float,
    env: InterferenceEnv,
    limit: float = math.inf,
    blocking: float = 0.0,
) -> float:
    """:func:`response_time` over an :class:`InterferenceEnv`."""
    return response_time(wcet, env.interferers, limit=limit, blocking=blocking)


def core_response_times(
    tasks: Sequence[RealTimeTask],
) -> dict[str, float]:
    """Response time of every task on one core under RM order.

    ``tasks`` is the set of real-time tasks sharing a core; priorities
    follow the rate monotonic order (ties as in
    :func:`repro.model.priority.rate_monotonic_order`).  Returns a
    name → response-time mapping with ``inf`` marking unschedulable
    tasks.
    """
    ordered = rate_monotonic_order(tasks)
    results: dict[str, float] = {}
    higher: list[Interferer] = []
    for task in ordered:
        results[task.name] = response_time(
            task.wcet, higher, limit=task.deadline
        )
        higher.append(Interferer.from_rt(task))
    return results


def rta_schedulable(tasks: Sequence[RealTimeTask]) -> bool:
    """Exact schedulability of one core's real-time tasks under RM.

    True iff every task's response time is at most its deadline.  This is
    the admission test used by the partitioning heuristics (the paper
    assumes "real-time tasks are schedulable and assigned to the cores
    using existing multicore task partitioning algorithms").
    """
    # Each response is checked against its own task's deadline while
    # walking the RM order, so tasks sharing a name stay distinct.
    higher: list[Interferer] = []
    for task in rate_monotonic_order(tasks):
        response = response_time(task.wcet, higher, limit=task.deadline)
        if not response <= task.deadline + 1e-9:
            return False
        higher.append(Interferer.from_rt(task))
    return True
