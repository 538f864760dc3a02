"""The ``service`` workload: a closed-loop client against ``repro serve``.

Per run (one invocation of the benchmark):

1. The job stream of :func:`spec.service_jobs` is run in-process,
   serially and without a store; the sha256 of each job's
   ``ExperimentResult`` JSON is the reference the served bytes must
   equal (and, for the default seed, equals ``pins.json``).
2. A store pre-filled with scenario points of unrelated seeds is built
   once, through :class:`repro.experiments.store.ResultStore`.
3. Passes repeat while the next one is expected to fit in the run's
   seconds.  A pass copies the pre-filled store, starts
   ``python -m repro serve --executor subprocess-workers --workers 2``
   on an ephemeral port (in its own session), waits for ``/healthz``
   and for a one-point warm-up job that makes the server spawn its
   workers (all of this is ``setup_s``), then submits the job stream
   one job at a time: ``POST /jobs``, ``GET /jobs/{id}`` every
   :data:`spec.SERVICE` ``poll_interval_s`` until the job is terminal,
   ``GET /jobs/{id}/result``.  A job's latency runs from the POST until
   its result bytes are received and checked; the reference loop of
   :func:`common.reference_s` runs before each family and after the
   last, at once in the client and in a helper process (so on both
   cores, see :class:`Reference`), and the ``*_norm`` metrics divide
   each job's latency by the mean of the two loops around its family.
   The pass's makespan is the sum of its families' spans (first POST
   to last result, so the loops are not in it); each span is
   normalised the same way.  The pass ends by interrupting the server; any process of
   its session still alive afterwards fails the pass and is killed.

A traced run alternates untraced passes with passes whose server is
started through ``serve_traced.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import spec
from common import (
    HERE,
    ROOT,
    BenchmarkError,
    check_digests,
    child_env,
    reference_digests,
    reference_s,
)
from summary import (
    PassTrace,
    layer_metrics,
    load_span_files,
    percentile,
    traced_report,
    wall_clock,
)

_LISTENING = re.compile(r"serving sweep jobs on [^:\s]+:(\d+)")
_TERMINAL = {"done", "failed", "cancelled"}
_JOB_TIMEOUT_S = 60.0


def build_prefill(seed: int, directory: Path) -> int:
    """Fill a store with points of unrelated seeds; returns the count.

    The points have the shape of the service jobs' sweeps.  Their
    payloads are the real payloads of one unrelated sweep, copied: the
    jobs never read these keys, so only their number and size matter.
    """
    from repro.experiments.config import get_scale
    from repro.experiments.parallel import execute_point
    from repro.experiments.store import ResultStore
    from repro.jobs import JobRequest

    cfg = spec.SERVICE
    seeds = spec.service_prefill_seeds(seed)
    points = cfg["jobs_per_family"]
    document = spec.service_jobs(seed)[points - 1]
    experiment, scale = JobRequest.from_dict(document).build()
    (template,) = experiment.sweeps(scale or get_scale("default"))
    template = dataclasses.replace(template, seed=seeds[0])
    payloads = [execute_point(template, i) for i in range(points)]
    entries = []
    for index in range(cfg["prefill_entries"]):
        sweep = dataclasses.replace(template, seed=seeds[index // points])
        entries.append((sweep.key_payload(index % points),
                        payloads[index % points]))
    return ResultStore(directory).put_many(template.kind, entries)


# -- one server ---------------------------------------------------------------


def _session_pids(session: int) -> list[int]:
    """Live (non-zombie) processes of ``session``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == session and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def _peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Server:
    """One ``repro serve`` process and the workers it spawns."""

    def __init__(self, store: Path, trace_dir: Path | None) -> None:
        """Start serving ``store``; traced when ``trace_dir`` is set."""
        cfg = spec.SERVICE
        args = ["serve", "--host", "127.0.0.1", "--port", "0",
                "--cache-dir", str(store), "--executor", cfg["executor"],
                "--workers", str(cfg["workers"])]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"), *args]
        env = child_env(trace_dir)
        env["REPRO_LOG"] = "info"
        self.log: list[str] = []
        self._port: int | None = None
        self._listening = threading.Event()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._read_log, daemon=True)
        self._reader.start()

    def _read_log(self) -> None:
        for line in self.proc.stderr:
            self.log.append(line)
            match = _LISTENING.search(line)
            if match:
                self._port = int(match.group(1))
                self._listening.set()
        self._listening.set()

    def wait_listening(self, timeout: float) -> int:
        """The bound port, once the server logs it."""
        if not self._listening.wait(timeout) or self._port is None:
            raise BenchmarkError("server did not start:\n" + "".join(self.log))
        return self._port

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server plus its workers."""
        return sum(_peak_rss_mb(pid) for pid in _session_pids(self.proc.pid))

    def stop(self) -> list[int]:
        """Interrupt the server and wait for its session to end; returns
        the pids that survived (then killed)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        deadline = time.monotonic() + 5.0
        survivors = _session_pids(self.proc.pid)
        while survivors and time.monotonic() < deadline:
            time.sleep(0.05)
            survivors = _session_pids(self.proc.pid)
        if survivors:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            while _session_pids(self.proc.pid) and time.monotonic() < (
                    deadline + 5.0):
                time.sleep(0.05)
        self._reader.join(timeout=5)
        return survivors


# -- the client ---------------------------------------------------------------


class Client:
    """A closed-loop HTTP client, one connection at a time."""

    def __init__(self, port: int) -> None:
        """A client of the server on ``127.0.0.1:port``."""
        self.port = port
        self.requests = 0
        self.non2xx = 0

    def call(self, method: str, path: str,
             body: dict[str, Any] | None = None) -> tuple[int, bytes]:
        """One request; returns ``(status, body bytes)``."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=30)
        try:
            payload = None if body is None else json.dumps(body).encode()
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = response.read()
        finally:
            connection.close()
        self.requests += 1
        if not 200 <= response.status < 300:
            self.non2xx += 1
        return response.status, data

    def run_job(self, document: dict[str, Any]) -> dict[str, Any]:
        """Submit, poll until terminal, fetch the result."""
        start = time.perf_counter()
        status, data = self.call("POST", "/jobs", document)
        if status not in (200, 202):
            return {"ok": False, "start": start, "end": time.perf_counter()}
        job = json.loads(data)
        deadline = start + _JOB_TIMEOUT_S
        while job["state"] not in _TERMINAL and time.perf_counter() < deadline:
            time.sleep(spec.SERVICE["poll_interval_s"])
            status, data = self.call("GET", f"/jobs/{job['id']}")
            if status != 200:
                break
            job = json.loads(data)
        if job["state"] != "done":
            return {"ok": False, "start": start, "end": time.perf_counter()}
        status, data = self.call("GET", f"/jobs/{job['id']}/result")
        digest = hashlib.sha256(data).hexdigest()
        return {
            "ok": status == 200, "digest": digest, "id": job["id"],
            "start": start, "end": time.perf_counter(),
            "queue_wait_s": job["started"] - job["created"],
            "exec_s": job["finished"] - job["started"],
        }

    def wait_healthy(self, timeout: float) -> None:
        """Poll ``/healthz`` until it answers 200."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            try:
                if self.call("GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise BenchmarkError("server never became healthy")


_HELPER = """
import sys
from common import reference_s
for _ in sys.stdin:
    print(reference_s(), flush=True)
"""


class Reference:
    """The reference loop, timed on both cores at once.

    The server and its workers use both cores, and the host slows each
    core on its own, so a loop timed in the client alone misses half of
    it.  A helper process times the loop while the client does, and the
    reference is the mean of the two.
    """

    def __init__(self) -> None:
        """Start the helper process."""
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _HELPER], cwd=ROOT, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.measure()  # imports numpy in both processes

    def measure(self) -> float:
        """Mean wall clock of the loop run in the client and the helper."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        own = reference_s()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchmarkError("reference helper exited")
        return (own + float(line)) / 2

    def close(self) -> None:
        """Stop the helper and wait for it."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_pass(
    seed: int,
    documents: list[dict[str, Any]],
    reference: list[str],
    prefill: Path,
    directory: Path,
    traced: bool,
    loop: Reference,
) -> dict[str, Any]:
    """One server lifetime: set-up, the job stream, teardown."""
    trace_dir = directory / "trace" if traced else None
    begin = time.perf_counter()
    store = directory / "store"
    shutil.copytree(prefill, store)
    server = Server(store, trace_dir)
    try:
        client = Client(server.wait_listening(30))
        client.wait_healthy(30)
        warmup = client.run_job(spec.service_warmup_job(seed))
        if not warmup["ok"]:
            raise BenchmarkError("warm-up job failed:\n" + "".join(server.log))
        setup_s = time.perf_counter() - begin
        client.requests = client.non2xx = 0
        family = spec.SERVICE["jobs_per_family"]
        refs, jobs, spans = [loop.measure()], [], []
        for first in range(0, len(documents), family):
            batch = [client.run_job(document)
                     for document in documents[first:first + family]]
            refs.append(loop.measure())
            jobs += batch
            spans.append(batch[-1]["end"] - batch[0]["start"])
        job_refs = [(refs[i // family] + refs[i // family + 1]) / 2
                    for i in range(len(jobs))]
        makespan = sum(spans)
        makespan_norm = sum(span / (before + after) * 2 for span, before,
                            after in zip(spans, refs, refs[1:]))
        peak_rss = server.peak_rss_mb()
    finally:
        survivors = server.stop()
    failed = sum(
        1 for job, want in zip(jobs, reference)
        if not job["ok"] or job["digest"] != want
    )
    if survivors:  # an orphaned worker would steal a core from the next run
        failed = len(jobs)
    record = {
        "setup_s": setup_s, "run_s": makespan, "peak_rss_mb": peak_rss,
        "latencies": [job["end"] - job["start"] for job in jobs],
        "run_norm": makespan_norm, "ref_s": statistics.mean(refs),
        "job_refs": job_refs,
        "failed": failed, "survivors": survivors, "traced": traced,
    }
    if traced:
        pass_trace = PassTrace(load_span_files(trace_dir), server.proc.pid,
                               (jobs[0]["start"], jobs[-1]["end"]))
        pass_trace.assign_jobs(
            [(job.get("id"), job["start"], job["end"]) for job in jobs])
        record["layers"] = layer_metrics(
            pass_trace,
            [job for job in jobs if job["ok"]],
            requests_per_job=client.requests / len(jobs),
            non2xx=client.non2xx,
        )
        record["self_s"] = dict(pass_trace.self_s)
        record["spans"] = pass_trace.export()
    shutil.rmtree(store, ignore_errors=True)
    return record


def run_service(
    seed: int, seconds: float, trace: bool, scratch: Path
) -> dict[str, Any]:
    """Run the ``service`` workload; returns the result record."""
    documents = spec.service_jobs(seed)
    reference = reference_digests(documents)
    pinned = all(check_digests("service", seed, reference))
    prefill = scratch / "prefill"
    prefill_entries = build_prefill(seed, prefill)

    passes: list[dict[str, Any]] = []
    began = time.perf_counter()
    loop = Reference()
    try:
        while True:
            traced = trace and len(passes) % 2 == 1
            passes.append(run_pass(seed, documents, reference, prefill,
                                   scratch / f"pass{len(passes)}", traced,
                                   loop))
            elapsed = time.perf_counter() - began
            enough = len(passes) >= (2 if trace else 1)  # one of each kind
            if enough and elapsed + elapsed / len(passes) > seconds:
                break
    finally:
        loop.close()

    attempted = sum(len(p["latencies"]) for p in passes)
    failed = attempted if not pinned else sum(p["failed"] for p in passes)
    info: dict[str, Any] = {
        "passes": len(passes),
        "jobs": attempted,
        "prefill_entries": prefill_entries,
        "poll_interval_s": spec.SERVICE["poll_interval_s"],
        "survivors": [pid for p in passes for pid in p["survivors"]],
    }

    if not trace:
        latencies = [t for p in passes for t in p["latencies"]]
        ratios = [t / ref for p in passes
                  for t, ref in zip(p["latencies"], p["job_refs"])]
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "run_norm": statistics.mean(p["run_norm"] for p in passes),
            "job_p50_norm": statistics.median(ratios),
            "job_p90_norm": percentile(ratios, 0.9),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        info["wall_clock"] = wall_clock(
            [p["run_s"] for p in passes], latencies,
            [p["ref_s"] for p in passes])
        return {"attempted": attempted, "failed": failed,
                "metrics": metrics, "info": info}

    traced_passes = [p for p in passes if p["traced"]]
    metrics, trace_info = traced_report(
        traced_passes, [p["run_s"] for p in passes if not p["traced"]])
    info.update(trace_info)
    compute = sum(
        p["self_s"].get(layer, 0.0)
        for p in traced_passes
        for layer in ("workloads", "partition", "analysis", "allocators",
                      "sim", "detection")
    )
    latency = sum(sum(p["latencies"]) for p in traced_passes)
    info["point_compute_share_of_latency"] = compute / latency
    (scratch / "spans.json").write_text(
        json.dumps([s for p in traced_passes for s in p["spans"]]))
    return {"attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info}
