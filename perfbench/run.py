"""End-to-end benchmark of the HYDRA design-space explorer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {acceptance,detection,service} \\
        --seed N --seconds S --trace {0,1}

The program is driven only through its public entry points: the batch
workloads run one scenario job through :class:`repro.jobs.JobRunner`
in a child process (``batch_child.py``), the ``service`` workload
talks HTTP to ``python -m repro serve`` (``service.py``).  Every job's
``ExperimentResult`` JSON is checked: against the sha256 pinned in
``pins.json`` for the default seed, against every other pass of the
same job, and for ``service`` against the same document run
in-process and serially.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``spec.py``; with
``--trace 1`` half of the time runs untraced and half with the layer
wrappers of ``layertrace.py`` installed, and the metrics are the
per-layer ones plus the tracing overhead.  The line before it records
the seed, ``nproc``, the Python and numpy versions, the input size and
checks made by the traced run.  Scratch files, including the merged
spans of a traced run, go to ``.perfbench/`` in the checkout.

``--write-benchmark-json`` regenerates ``BENCHMARK.json`` from
``spec.py``; ``--pin`` rewrites ``pins.json`` for the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import spec

from common import (
    HERE,
    PINS,
    ROOT,
    SCRATCH,
    SRC,
    BenchmarkError,
    check_digests,
    child_env,
    reference_digests,
)
from summary import percentile, wall_clock


# -- batch workloads ----------------------------------------------------------


def _spawn_child(
    document_path: Path, seconds: float, setup_only: bool,
    trace_dir: Path | None = None,
) -> subprocess.Popen:
    command = [sys.executable, str(HERE / "batch_child.py"),
               str(document_path), "--seconds", f"{seconds:.3f}"]
    if setup_only:
        command.append("--setup-only")
    if trace_dir is not None:
        command += ["--trace", str(trace_dir)]
    return subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        env=child_env(),
    )


def _ready(child: subprocess.Popen, launched: float) -> float:
    line = child.stdout.readline()
    if not line or not json.loads(line).get("ready"):
        child.kill()
        child.wait()
        raise BenchmarkError("batch child failed during set-up")
    return time.perf_counter() - launched


def run_batch_child(
    document_path: Path, seconds: float, trace_dir: Path | None = None
) -> dict[str, Any]:
    """One working child: its set-up time, passes and peak memory."""
    launched = time.perf_counter()
    child = _spawn_child(document_path, seconds, False, trace_dir)
    try:
        setup = _ready(child, launched)
        passes, done, repeat = [], None, None
        for line in child.stdout:
            message = json.loads(line)
            if "pass" in message:
                passes.append(message)
            elif "repeat" in message:
                repeat = message["repeat"]
            elif message.get("done"):
                done = message
        code = child.wait(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if code != 0 or done is None or not passes:
        raise BenchmarkError(f"batch child exited with code {code}")
    return {"setup_s": setup, "passes": passes, "repeat": repeat,
            "peak_rss_mb": done["peak_rss_mb"], "pid": child.pid}


def measure_setup(document_path: Path, samples: int) -> list[float]:
    """Set-up times of ``samples`` fresh interpreters."""
    times = []
    for _ in range(samples):
        launched = time.perf_counter()
        child = _spawn_child(document_path, 0.0, True)
        try:
            times.append(_ready(child, launched))
            child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    return times


def run_batch(
    workload: str, seed: int, seconds: float, trace: bool, scratch: Path
) -> dict[str, Any]:
    """Run ``acceptance`` or ``detection``; returns the result record."""
    from summary import PassTrace, layer_metrics, load_span_files, traced_report

    document_path = scratch / "jobs.json"
    document_path.write_text(json.dumps(spec.batch_jobs(workload, seed)))
    info: dict[str, Any] = {}
    if not trace:
        # Half of the set-up samples before the working child and half
        # after it, so that they span the run like the passes do.
        began = time.perf_counter()
        before = spec.SETUP_SAMPLES // 2
        setup = measure_setup(document_path, before)
        after = spec.SETUP_SAMPLES - before
        reserve = after * statistics.median(setup)
        child = run_batch_child(
            document_path, seconds - (time.perf_counter() - began) - reserve)
        setup += [child["setup_s"], *measure_setup(document_path, after)]
        runs = [child]
    else:
        trace_dir = scratch / "trace"
        plain = run_batch_child(document_path, seconds / 2)
        traced = run_batch_child(document_path, seconds / 2, trace_dir)
        runs = [plain, traced]

    failed = 0
    for run in runs:
        digests = [p["sha256"] for p in run["passes"]]
        pinned = check_digests(workload, seed, digests)
        failed += sum(
            p["state"] != "done" or not ok or run["repeat"] != digests[0]
            for p, ok in zip(run["passes"], pinned)
        )
    passes = [p for run in runs for p in run["passes"]]
    info["passes"] = len(passes)

    if not trace:
        times = [p["run_s"] for p in passes]
        ratios = [p["run_s"] / p["ref_s"] for p in passes]
        metrics = {
            "setup_s": statistics.median(setup),
            "run_norm": statistics.mean(ratios),
            "job_p50_norm": statistics.median(ratios),
            "job_p90_norm": percentile(ratios, 0.9),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        info["jobs"] = len(times)
        info["wall_clock"] = wall_clock(
            times, times, [p["ref_s"] for p in passes])
        return {"attempted": len(passes), "failed": failed,
                "metrics": metrics, "info": info}

    documents = load_span_files(trace_dir)
    records, spans = [], []
    for p in traced["passes"]:
        pass_trace = PassTrace(documents, traced["pid"], (p["start"], p["end"]))
        pass_trace.assign_jobs([(p["job"], p["start"], p["end"])])
        spans.extend(pass_trace.export())
        records.append({
            "layers": layer_metrics(pass_trace, [p], requests_per_job=0.0,
                                    non2xx=0),
            "self_s": dict(pass_trace.self_s),
            "run_s": p["run_s"],
        })
    metrics, trace_info = traced_report(
        records, [p["run_s"] for p in plain["passes"]])
    info.update(trace_info)
    (scratch / "spans.json").write_text(json.dumps(spans))
    return {"attempted": len(passes), "failed": failed,
            "metrics": metrics, "info": info}


# -- entry point --------------------------------------------------------------

def _environment(workload: str, seed: int) -> dict[str, Any]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "inputs": spec.inputs(workload),
    }


def _pin() -> int:
    pins = {
        workload: reference_digests(spec.batch_jobs(workload,
                                                    spec.DEFAULT_SEED))
        for workload in ("acceptance", "detection")
    }
    pins["service"] = reference_digests(spec.service_jobs(spec.DEFAULT_SEED))
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run one workload and print its result line."""
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the HYDRA design-space "
                    "explorer.")
    parser.add_argument("--workload", choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    # A parent that ignores SIGINT (a background job of a shell) would
    # pass that on to the server, which is stopped with SIGINT; a
    # handler of our own is reset to the default in every child.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.pin:
        return _pin()
    if args.workload is None:
        parser.error("--workload is required")

    scratch = SCRATCH / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        if args.workload == "service":
            from service import run_service

            outcome = run_service(args.seed, args.seconds, bool(args.trace),
                                  scratch)
        else:
            outcome = run_batch(args.workload, args.seed, args.seconds,
                                bool(args.trace), scratch)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    units = {name: unit for name, unit, *_ in spec.END_TO_END}
    units.update({name: unit for name, unit, *_ in spec.PER_LAYER})
    info = {**_environment(args.workload, args.seed), **outcome["info"]}
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in outcome["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
