"""Turn recorded spans and counts into the per-layer metrics.

A layer's *self time* is the duration of each of its spans minus the
part of that interval its child spans cover; its *busy time* is the
duration of its outermost spans (a span with no ancestor of the same
layer).  Spans recorded in executor worker processes have no parent in
their own process: each is attached to the ``executors`` span of the
main process whose interval contains it, so dispatch self time
excludes the point compute it waited for.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Iterable, Sequence


def load_span_files(directory: Path) -> list[dict[str, Any]]:
    """Every ``spans-<pid>.json`` document under ``directory``."""
    return [
        json.loads(path.read_text())
        for path in sorted(directory.glob("spans-*.json"))
    ]


def percentile(values: Sequence[float], share: float) -> float:
    """The ``share`` quantile of ``values`` (linear interpolation)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def wall_clock(
    run_times: Sequence[float], job_times: Sequence[float],
    ref_times: Sequence[float],
) -> dict[str, float]:
    """The raw wall clock behind the ``*_norm`` metrics, for the info
    line: mean pass time, job latency quantiles and the median time of
    the reference loop."""
    return {
        "run_s": statistics.mean(run_times),
        "job_p50_ms": 1e3 * statistics.median(job_times),
        "job_p90_ms": 1e3 * percentile(job_times, 0.9),
        "reference_ms": 1e3 * statistics.median(ref_times),
    }


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class PassTrace:
    """The spans and counts of one traced pass, across processes.

    ``main_pid`` is the process that ran the job layer (the batch
    child or the server); ``window`` keeps only spans that start inside
    the timed pass.
    """

    def __init__(
        self,
        documents: Sequence[dict[str, Any]],
        main_pid: int,
        window: tuple[float, float],
    ) -> None:
        """Link and attribute the spans of ``documents`` in ``window``."""
        self.counts: Counter[str] = Counter()
        spans: list[dict[str, Any]] = []
        for document in documents:
            for span in document["spans"]:
                if not window[0] <= span["start"] <= window[1]:
                    continue
                if span["counts"]:
                    self.counts.update(span["counts"])
                if span["name"] != "event":
                    spans.append({**span, "pid": document["pid"],
                                  "key": (document["pid"], span["id"])})
        by_key = {span["key"]: span for span in spans}
        dispatch = [
            span for span in spans
            if span["pid"] == main_pid and _layer(span["name"]) == "executors"
        ]
        for span in spans:
            if span["parent"] is not None:
                span["parent_key"] = (span["pid"], span["parent"])
            elif span["pid"] != main_pid:
                host = next(
                    (d for d in dispatch
                     if d["start"] <= span["start"] and span["end"] <= d["end"]),
                    None,
                )
                span["parent_key"] = host["key"] if host else None
            else:
                span["parent_key"] = None
            if span["parent_key"] not in by_key:
                span["parent_key"] = None
        children: dict[tuple, list[dict[str, Any]]] = defaultdict(list)
        for span in spans:
            if span["parent_key"] is not None:
                children[span["parent_key"]].append(span)
        self.spans = spans
        self.self_s: dict[str, float] = defaultdict(float)
        self.busy_s: dict[str, float] = defaultdict(float)
        self.op_busy_s: dict[str, float] = defaultdict(float)
        for span in spans:
            duration = span["end"] - span["start"]
            covered = _union_length(
                (max(c["start"], span["start"]), min(c["end"], span["end"]))
                for c in children[span["key"]]
            )
            self.self_s[_layer(span["name"])] += duration - covered
            if self._outermost(span, by_key):
                self.busy_s[_layer(span["name"])] += duration
                self.op_busy_s[span["name"]] += duration

    @staticmethod
    def _outermost(span: dict[str, Any], by_key: dict) -> bool:
        layer = _layer(span["name"])
        parent = span["parent_key"]
        while parent is not None:
            ancestor = by_key[parent]
            if _layer(ancestor["name"]) == layer:
                return False
            parent = ancestor["parent_key"]
        return True

    def durations(self, name: str) -> list[float]:
        """Durations of every span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def assign_jobs(self, windows: Sequence[tuple[str, float, float]]) -> None:
        """Label each span with the job whose ``(id, start, end)``
        window contains its start."""
        for span in self.spans:
            span["job"] = next(
                (job for job, start, end in windows
                 if start <= span["start"] <= end),
                None,
            )

    def export(self) -> list[dict[str, Any]]:
        """The spans as plain JSON records."""
        return [
            {
                "name": s["name"], "start": s["start"], "end": s["end"],
                "pid": s["pid"], "id": s["id"],
                "parent": list(s["parent_key"]) if s["parent_key"] else None,
                "job": s.get("job"),
            }
            for s in self.spans
        ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    trace: PassTrace,
    jobs: Sequence[dict[str, float]],
    requests_per_job: float,
    non2xx: int,
) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``jobs`` holds each job's ``queue_wait_s`` and ``exec_s`` from its
    status document.
    """
    c = trace.counts
    busy, own = trace.busy_s, trace.self_s

    def median_ms(values: Iterable[float]) -> float:
        values = list(values)
        return 1e3 * statistics.median(values) if values else 0.0

    return {
        "workloads.busy_s": busy["workloads"],
        "workloads.tasksets": c["workloads.tasksets"],
        "partition.calls": c["partition.calls"],
        "partition.self_s": own["partition"],
        "partition.fail_ratio": _ratio(c["partition.failed"],
                                       c["partition.calls"]),
        "analysis.probes": c["analysis.probes"],
        "analysis.busy_s": busy["analysis"],
        "analysis.admit_ratio": _ratio(c["analysis.admitted"],
                                       c["analysis.probes"]),
        "allocators.calls": c["allocators.calls"],
        "allocators.self_s": own["allocators"],
        "allocators.schedulable_ratio": _ratio(c["allocators.schedulable"],
                                               c["allocators.calls"]),
        "sim.calls": c["sim.calls"],
        "sim.busy_s": busy["sim"],
        "sim.jobs": c["sim.jobs"],
        "sim.jobs_per_s": _ratio(c["sim.jobs"], busy["sim"]),
        "detection.queries": c["detection.queries"],
        "detection.busy_s": busy["detection"],
        "detection.censored_ratio": _ratio(c["detection.censored"],
                                           c["detection.queries"]),
        "engine.sweeps": c["engine.sweeps"],
        "engine.self_s": own["engine"],
        "engine.points_computed": c["engine.points_computed"],
        "engine.points_cached": c["engine.points_cached"],
        "engine.hit_ratio": _ratio(
            c["engine.points_cached"],
            c["engine.points_cached"] + c["engine.points_computed"],
        ),
        "store.opens": c["store.opens"],
        "store.open_s": trace.op_busy_s["store.open"],
        "store.read_s": trace.op_busy_s["store.read"],
        "store.write_s": trace.op_busy_s["store.write"],
        "store.entries_read": c["store.entries_read"],
        "store.entries_written": c["store.entries_written"],
        "executors.batches": c["executors.batches"],
        "executors.busy_s": busy["executors"],
        "executors.retries": c["executors.retries"],
        "executors.respawns": c["executors.spawns"],
        "jobs.queue_wait_ms": median_ms(j["queue_wait_s"] for j in jobs),
        "jobs.exec_ms": median_ms(j["exec_s"] for j in jobs),
        "jobs.result_ms": median_ms(trace.durations("jobs.result")),
        "server.requests_per_job": requests_per_job,
        "server.non2xx": non2xx,
    }


def traced_report(
    traced: Sequence[dict[str, Any]], plain_run_s: Sequence[float]
) -> tuple[dict[str, float], dict[str, Any]]:
    """Per-layer metrics and trace checks of a traced run.

    Each traced pass carries its ``layers`` metrics, its layers'
    ``self_s`` and its ``run_s``; ``plain_run_s`` are the untraced
    passes' ``run_s``.  Metrics are medians over passes, and the
    tracing overhead is the difference of the two ``run_s`` medians.
    """
    metrics = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    traced_s = statistics.median(p["run_s"] for p in traced)
    plain_s = statistics.median(plain_run_s)
    metrics["trace.overhead_s"] = traced_s - plain_s
    layers = sorted({layer for p in traced for layer in p["self_s"]})
    info = {
        "untraced_run_s": plain_s,
        "traced_run_s": traced_s,
        "self_sum_le_run_s": all(
            sum(p["self_s"].values()) <= p["run_s"] for p in traced),
        "self_share": {
            layer: statistics.median(
                p["self_s"].get(layer, 0.0) / p["run_s"] for p in traced)
            for layer in layers
        },
    }
    return metrics, info
