"""Paths, errors and result checks shared by the benchmark's modules."""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
PINS = HERE / "pins.json"


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong result)."""


def child_env(trace_dir: Path | None = None) -> dict[str, str]:
    """Environment for processes running ``repro`` from this checkout."""
    import layertrace

    env = dict(os.environ)
    env.pop(layertrace.TRACE_DIR_ENV, None)
    env.pop("REPRO_SCALE", None)
    paths = [str(SRC), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    if trace_dir is not None:
        env[layertrace.TRACE_DIR_ENV] = str(trace_dir)
    return env


def reference_s() -> float:
    """Wall clock of the benchmark's fixed reference loop (~12 ms).

    The host switches CPU speed by up to ~1.5x in phases lasting tens
    of seconds, which moves every wall-clock time of a run together.
    The loop is timed next to each pass (same process, same moment), and
    the ``*_norm`` metrics divide the pass's wall clock by it, so they
    keep what the program does and drop what the host does.  Like the
    program, the loop mixes interpreted code (dicts, ints, strings,
    sorting) with numpy calls on small arrays, about half the time
    each: on a job repeated for 100 s, its ratio varied 2.7% between
    12 s windows against 3.5% for a pure-Python loop and 14-19% for
    raw wall clock.  It is part of the benchmark, so no change to the
    program can speed it up.
    """
    import numpy

    start = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(15_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
        total += (i * 7) % 13
    words = sorted(str(i * 7919 % 5_003) for i in range(5_000))
    grid = numpy.arange(64, dtype=float)
    for i in range(750):
        total += int(numpy.maximum(numpy.ceil((grid + i) / 7.0) * 3.0,
                                   grid).sum())
    if total < 0 or not words:  # keeps the work observable
        raise AssertionError
    return time.perf_counter() - start


def load_pins() -> dict[str, list[str]]:
    """Pinned result digests per workload, for :data:`spec.DEFAULT_SEED`."""
    if not PINS.exists():
        return {}
    return json.loads(PINS.read_text())


def check_digests(
    workload: str, seed: int, digests: list[str]
) -> list[bool]:
    """Whether each digest of a job stream equals its pin.

    Only the default seed has pins; for any other seed every digest
    passes here and is checked against its reference by the caller.
    """
    pins = load_pins().get(workload) if seed == spec.DEFAULT_SEED else None
    if pins is None:
        return [True] * len(digests)
    return [index < len(pins) and digest == pins[index]
            for index, digest in enumerate(digests)]


def result_digest(result: Any) -> str:
    """sha256 of an ``ExperimentResult`` as the service serialises it."""
    body = json.dumps(result.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(body).hexdigest()


def reference_digests(documents: list[dict[str, Any]]) -> list[str]:
    """Digest of each document's result, run in-process, serially and
    without a store."""
    from repro.jobs import JobRequest, JobRunner

    runner = JobRunner()
    digests = []
    for document in documents:
        job = runner.run(JobRequest.from_dict(document))
        digests.append(result_digest(runner.result(job.id)))
    return digests
