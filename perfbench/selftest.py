"""Self-test of the benchmark, at the smallest run length.

``python3 perfbench/selftest.py`` (from the root of a checkout; about
a minute) checks that:

* ``BENCHMARK.json`` is what ``spec.py`` renders;
* every end-to-end metric is printed with its unit by ``--trace 0``
  and every per-layer metric by ``--trace 1``, on every workload, and
  every run is correct;
* the traced self times sum to no more than the traced ``run_s``;
* ``engine.hit_ratio`` is 0 on ``acceptance`` and ``detection`` and
  above 0 on ``service``;
* ``service`` leaves no process behind;
* without the program's sources the benchmark fails without printing
  a result.

It exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import spec
from common import HERE, ROOT, SCRATCH


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(spec.DEFAULT_SEED), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def main() -> int:
    """Run every check."""
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    _check(committed == spec.benchmark_json(),
           "BENCHMARK.json matches spec.py")

    names = {
        0: {name: unit for name, unit, *_ in spec.END_TO_END},
        1: {name: unit for name, unit, *_ in spec.PER_LAYER},
    }
    for workload in spec.WORKLOADS:
        for trace in (0, 1):
            info, result = _run(workload, trace)
            _check(set(result) == {"correct", "attempted", "failed",
                                   "metrics"},
                   f"{workload}/trace {trace}: result keys")
            _check(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload}/trace {trace}: correct, nothing failed")
            printed = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            _check(printed == names[trace],
                   f"{workload}/trace {trace}: every metric with its unit")
            _check(info["seed"] == spec.DEFAULT_SEED and info["nproc"]
                   and info["python"] and info["numpy"],
                   f"{workload}/trace {trace}: seed, nproc and versions")
            if trace == 0:
                continue
            _check(info["self_sum_le_run_s"],
                   f"{workload}: traced self times sum to <= run_s")
            hit_ratio = result["metrics"]["engine.hit_ratio"]["value"]
            _check(hit_ratio > 0 if workload == "service" else hit_ratio == 0,
                   f"{workload}: engine.hit_ratio = {hit_ratio:.3f}")
            if workload == "service":
                _check(not info["survivors"], "service: no surviving child")

    bare = SCRATCH / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [*spec.benchmark_json()["command"], "--workload", "acceptance",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    _check(out.returncode != 0 and not out.stdout.strip(),
           "without the sources: non-zero exit and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
