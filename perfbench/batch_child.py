"""The process that does the work of a batch workload.

``python3 perfbench/batch_child.py JOBS.json --seconds S [--trace DIR]
[--setup-only]`` imports ``repro``, resolves the first job document
of the stream in ``JOBS.json`` through the job layer's registries and
prints ``{"ready": true}``: the parent times set-up up to that line.
It then runs one small warm-up job (so lazy imports do not land in the
first timed pass) and runs the stream's jobs in order, one per timed
pass, each through :meth:`repro.jobs.JobRunner.run` on a fresh runner
without a store followed by :meth:`~repro.jobs.JobRunner.result`,
while the next pass is expected to fit in ``S`` seconds.  Every pass
prints one JSON line with its wall clock, the mean of the reference
loop (:func:`common.reference_s`) timed just before and just after it,
and the sha256 of the job's ``ExperimentResult`` JSON.  Last, untimed,
the first job runs once more so the parent can check that it
reproduces its bytes, and a final line reports the process's peak
resident memory.  With ``--trace DIR`` the layer wrappers are
installed first and the spans are written to ``DIR`` at the end.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from common import reference_s, result_digest


def _emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def _warmup_document(document: dict) -> dict:
    """The job document shrunk to one point and one task set."""
    spec = json.loads(json.dumps(document["spec"]))
    sweep = spec["sweep"]
    sweep["seed"] = sweep["seed"] + 1_000_003
    sweep["tasksets_per_point"] = 1
    start = sweep["utilization"]["start"]
    sweep["utilization"] = {"start": start, "stop": start,
                            "step": sweep["utilization"]["step"]}
    return {**document, "spec": spec}


def _run(request) -> tuple:
    from repro.jobs import JobRunner

    runner = JobRunner()
    job = runner.run(request)
    return job, runner.result(job.id)


def main(argv: list[str] | None = None) -> int:
    """Set up, then run timed passes over a stream of job documents."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("jobs", type=Path)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    documents = json.loads(args.jobs.read_text())
    tracer = None
    if args.trace is not None:
        import layertrace

        tracer = layertrace.install(layertrace.Tracer())
    from repro.jobs import JobRequest

    requests = [JobRequest.from_dict(document) for document in documents]
    requests[0].build()  # resolves every registry the jobs need
    _emit({"ready": True})
    if args.setup_only:
        return 0

    _run(JobRequest.from_dict(_warmup_document(documents[0])))
    began = time.perf_counter()
    ref_before = reference_s()
    for index, request in enumerate(requests):
        start = time.perf_counter()
        job, result = _run(request)
        end = time.perf_counter()
        ref_after = reference_s()
        _emit({
            "pass": index,
            "start": start,
            "end": end,
            "run_s": end - start,
            "ref_s": (ref_before + ref_after) / 2,
            "job": job.id,
            "state": job.state,
            "sha256": result_digest(result),
            "queue_wait_s": job.started - job.created,
            "exec_s": job.finished - job.started,
        })
        ref_before = ref_after
        elapsed = end - began
        if elapsed + elapsed / (index + 1) > args.seconds:
            break
    if tracer is not None:
        tracer.dump(args.trace)
    _emit({"repeat": result_digest(_run(requests[0])[1])})
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _emit({"done": True, "peak_rss_mb": peak_kib / 1024.0})
    return 0


if __name__ == "__main__":
    sys.exit(main())
