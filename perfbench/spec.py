"""What the benchmark measures: workloads, their job documents, metrics.

This module is the single source of the names the benchmark uses.
``run.py --write-benchmark-json`` renders ``BENCHMARK.json`` from it,
and the self-test checks that the committed file still matches.

Every job is a scenario document (the TOML-grid schema of
``python -m repro sweep --config``, as JSON) built from the
benchmark's ``--seed`` argument; the program under test receives only
these documents.
"""

from __future__ import annotations

from typing import Any

#: Seed whose job results are pinned by sha256 in ``pins.json``.
DEFAULT_SEED = 0

#: Seconds one run measures (``BENCHMARK.json`` ``run_seconds``).
RUN_SECONDS = 36

#: Setup-only interpreter launches per batch run, half before and half
#: after the process that does the work (whose own set-up is one more
#: sample); ``setup_s`` is their median.
SETUP_SAMPLES = 6

# -- acceptance ---------------------------------------------------------------

ACCEPTANCE = {
    "cores": [4, 8],
    "allocators": ["hydra", "singlecore"],
    "utilization": {"start": 0.1, "stop": 0.9, "step": 0.2},
    "tasksets_per_point": 1,
}

#: Jobs in a batch workload's stream.  Each timed pass runs the next
#: job, so a run's median averages over inputs as well as over noise;
#: a run ends early if it reaches the end of the stream.
BATCH_STREAM = {"acceptance": 200, "detection": 200}

# -- detection ----------------------------------------------------------------

DETECTION = {
    "cores": [2, 4],
    "allocators": ["hydra", "adaptive[exact-rta]"],
    "policies": ["release-after", "start-after"],
    "utilization": {"start": 0.3, "stop": 0.7, "step": 0.4},
    "tasksets_per_point": 2,
    "sim_trials": 10,
    "sim_duration_ms": 3_000.0,
}

# -- service ------------------------------------------------------------------

SERVICE = {
    "cores": [2],
    "tasksets_per_point": 2,
    #: Job ``k`` (1-based) of a family sweeps the first ``k`` points of
    #: ``start, start + step, …``: it reads ``k - 1`` points from the
    #: store and computes one.  Job latency grows with ``k``, so the
    #: latencies cluster by ``k``; with 15 jobs a family the median and
    #: p90 fall inside a cluster (the 7.5th and 13.5th job of a family)
    #: rather than on the edge between two, where they would jump
    #: between the clusters from run to run.
    "utilization_start": 0.1,
    "utilization_step": 0.05,
    "families": 7,
    "jobs_per_family": 15,
    #: Scenario points already in the store, from unrelated seeds.
    "prefill_entries": 3000,
    "poll_interval_s": 0.002,
    "workers": 2,
    "executor": "subprocess-workers",
}

WORKLOAD_WHY = {
    "acceptance": (
        "Fig. 2 jobs, HYDRA vs SingleCore, 4+8 cores, U 0.1-0.9 step 0.2, "
        "1 task set/point, serial, no store: RT partitioning and admission "
        "dominate, so one exact RTA would show here"
    ),
    "detection": (
        "detection-latency jobs, hydra vs adaptive[exact-rta], 2 policies, "
        "2+4 cores, U 0.3+0.7, 2 task sets, 10 attacks, 3 s horizon: "
        "simulation dominates, a sim fast path shows here"
    ),
    "service": (
        "repro serve, 2 subprocess workers, 3000-entry store, 1 "
        "closed-loop client, 105 jobs in 7 prefix-growing families, 2 ms "
        "polls: store, engine, jobs, server, dispatch dominate"
    ),
}

WORKLOADS = tuple(WORKLOAD_WHY)

# -- metrics ------------------------------------------------------------------

#: ``(name, unit, better, bound)``.  The timings are wall clock
#: divided by the wall clock of the reference loop of
#: :func:`common.reference_s` timed next to them, in the same process
#: (unit ``refloop``: multiples of that loop).  The host changes CPU
#: speed by up to ~1.5x in phases of tens of seconds; that moves raw
#: wall clock by more than any useful bound from run to run, and the
#: ratio by a few percent.  ``run_norm`` is the mean of a run's timed passes
#: (one job on the batch workloads, the whole job stream on
#: ``service``), ``job_p50_norm`` and ``job_p90_norm`` are quantiles
#: over every job.  The raw wall clock (``run_s``, ``job_p50_ms``,
#: ``job_p90_ms`` and the loop's ``reference_ms``) is printed in every
#: run's info line.  ``setup_s`` is raw wall clock, the median of
#: several set-ups spread over the run.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_norm", "refloop", "lower", 0.25),
    ("job_p50_norm", "refloop", "lower", 0.25),
    ("job_p90_norm", "refloop", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: ``(name, unit, better, workload it should move, end-to-end metric
#: it should move there)``.
PER_LAYER = (
    ("workloads.busy_s", "s", "lower", "acceptance", "run_norm"),
    ("workloads.tasksets", "count", "higher", "acceptance", "run_norm"),
    ("partition.calls", "count", "higher", "acceptance", "run_norm"),
    ("partition.self_s", "s", "lower", "acceptance", "run_norm"),
    ("partition.fail_ratio", "ratio", "lower", "acceptance", "run_norm"),
    ("analysis.probes", "count", "lower", "acceptance", "run_norm"),
    ("analysis.busy_s", "s", "lower", "acceptance", "run_norm"),
    ("analysis.admit_ratio", "ratio", "higher", "acceptance", "run_norm"),
    ("allocators.calls", "count", "higher", "acceptance", "run_norm"),
    ("allocators.self_s", "s", "lower", "acceptance", "run_norm"),
    ("allocators.schedulable_ratio", "ratio", "higher", "acceptance",
     "run_norm"),
    ("sim.calls", "count", "higher", "detection", "run_norm"),
    ("sim.busy_s", "s", "lower", "detection", "run_norm, peak_rss_mb"),
    ("sim.jobs", "count", "higher", "detection", "run_norm, peak_rss_mb"),
    ("sim.jobs_per_s", "1/s", "higher", "detection", "run_norm"),
    ("detection.queries", "count", "higher", "detection", "run_norm"),
    ("detection.busy_s", "s", "lower", "detection", "run_norm"),
    ("detection.censored_ratio", "ratio", "lower", "detection", "run_norm"),
    ("engine.sweeps", "count", "higher", "service", "job_p50_norm"),
    ("engine.self_s", "s", "lower", "service", "job_p50_norm"),
    ("engine.points_computed", "count", "lower", "service", "job_p50_norm"),
    ("engine.points_cached", "count", "higher", "service", "job_p50_norm"),
    ("engine.hit_ratio", "ratio", "higher", "service", "job_p50_norm"),
    ("store.opens", "count", "lower", "service", "job_p50_norm, job_p90_norm"),
    ("store.open_s", "s", "lower", "service", "job_p50_norm, job_p90_norm"),
    ("store.read_s", "s", "lower", "service", "job_p50_norm, job_p90_norm"),
    ("store.write_s", "s", "lower", "service", "job_p50_norm, job_p90_norm"),
    ("store.entries_read", "count", "higher", "service",
     "job_p50_norm, job_p90_norm"),
    ("store.entries_written", "count", "higher", "service",
     "job_p50_norm, job_p90_norm"),
    ("executors.batches", "count", "higher", "service", "job_p90_norm"),
    ("executors.busy_s", "s", "lower", "service", "job_p90_norm"),
    ("executors.retries", "count", "lower", "service",
     "job_p90_norm, failed (attempted/failed counts)"),
    ("executors.respawns", "count", "lower", "service",
     "job_p90_norm, failed (attempted/failed counts)"),
    ("jobs.queue_wait_ms", "ms", "lower", "service", "job_p50_norm"),
    ("jobs.exec_ms", "ms", "lower", "service", "job_p50_norm"),
    ("jobs.result_ms", "ms", "lower", "service", "job_p50_norm"),
    ("server.requests_per_job", "count", "lower", "service", "job_p50_norm"),
    ("server.non2xx", "count", "lower", "service",
     "job_p50_norm, failed (attempted/failed counts)"),
    ("trace.overhead_s", "s", "lower", "all", "traced minus untraced run_s"),
)

# -- job documents ------------------------------------------------------------


def _grid(cores: list[int], **axes: list[str]) -> dict[str, Any]:
    grid: dict[str, Any] = {
        "cores": list(cores),
        "heuristic": ["best-fit"],
        "ordering": ["utilization"],
        "admission": ["rta"],
    }
    grid.update({key: list(value) for key, value in axes.items()})
    return grid


def batch_jobs(workload: str, seed: int) -> list[dict[str, Any]]:
    """The job stream of batch ``workload``."""
    build = acceptance_job if workload == "acceptance" else detection_job
    return [build(seed, index) for index in range(BATCH_STREAM[workload])]


def batch_seed(seed: int, index: int) -> int:
    """Sweep seed of the ``index``-th job of a batch workload's stream."""
    return 1_000 * seed + index


def acceptance_job(seed: int, index: int = 0) -> dict[str, Any]:
    """Job ``index`` of the ``acceptance`` workload's stream."""
    cfg = ACCEPTANCE
    return {
        "spec": {
            "sweep": {
                "name": "perfbench-acceptance",
                "seed": batch_seed(seed, index),
                "tasksets_per_point": cfg["tasksets_per_point"],
                "utilization": dict(cfg["utilization"]),
            },
            "grid": _grid(cfg["cores"], allocator=cfg["allocators"]),
        },
        "scale": "default",
    }


def detection_job(seed: int, index: int = 0) -> dict[str, Any]:
    """Job ``index`` of the ``detection`` workload's stream."""
    cfg = DETECTION
    return {
        "spec": {
            "sweep": {
                "name": "perfbench-detection",
                "kind": "detection-latency",
                "seed": batch_seed(seed, index),
                "tasksets_per_point": cfg["tasksets_per_point"],
                "sim_trials": cfg["sim_trials"],
                "sim_duration": cfg["sim_duration_ms"],
                "utilization": dict(cfg["utilization"]),
            },
            "grid": _grid(
                cfg["cores"],
                allocator=cfg["allocators"],
                policy=cfg["policies"],
            ),
        },
        "scale": "default",
    }


def _service_doc(name: str, seed: int, points: int) -> dict[str, Any]:
    cfg = SERVICE
    start = cfg["utilization_start"]
    step = cfg["utilization_step"]
    return {
        "spec": {
            "sweep": {
                "name": name,
                "seed": seed,
                "tasksets_per_point": cfg["tasksets_per_point"],
                "utilization": {
                    "start": start,
                    "stop": round(start + (points - 1) * step, 6),
                    "step": step,
                },
            },
            "grid": _grid(cfg["cores"]),
        },
        "scale": "default",
    }


def service_jobs(seed: int) -> list[dict[str, Any]]:
    """The ``service`` job stream, in submission order.

    Families are submitted one after another; within a family job
    ``k`` extends job ``k - 1``'s utilisation range by one point.
    """
    cfg = SERVICE
    return [
        _service_doc(f"perfbench-service-{family}", 1_000 * seed + family,
                     points)
        for family in range(cfg["families"])
        for points in range(1, cfg["jobs_per_family"] + 1)
    ]


def service_warmup_job(seed: int) -> dict[str, Any]:
    """A one-point job, submitted during set-up so that the server has
    spawned its workers before the timed stream starts."""
    return _service_doc("perfbench-warmup", 2_000_000 + seed, 1)


def service_prefill_seeds(seed: int) -> range:
    """Unrelated sweep seeds whose points pre-fill the service store."""
    base = 1_000_000 + 10 * SERVICE["prefill_entries"] * (seed % 10)
    return range(base, base + SERVICE["prefill_entries"])


def inputs(workload: str) -> dict[str, Any]:
    """The input size of ``workload``, as recorded with every run."""
    return {
        "acceptance": ACCEPTANCE,
        "detection": DETECTION,
        "service": SERVICE,
    }[workload]


def benchmark_json() -> dict[str, Any]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOAD_WHY.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _workload, _moves in PER_LAYER
        ],
    }
