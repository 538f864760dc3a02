"""Launch ``python -m repro serve`` with the layer wrappers installed.

``python3 perfbench/serve_traced.py serve ARGS…`` behaves exactly like
``python -m repro serve ARGS…`` except that every layer boundary is
traced (see ``layertrace.py``) and that the ``subprocess-workers``
executor preloads ``trace_preload`` into its workers, so point compute
is traced there too.  Each process writes its spans to the directory
named by ``PERFBENCH_TRACE_DIR`` when it exits.
"""

from __future__ import annotations

import sys

import layertrace


def main(argv: list[str]) -> int:
    """Install tracing, then hand ``argv`` to the ``repro`` CLI."""
    if layertrace.install_from_env() is None:
        raise SystemExit(f"{layertrace.TRACE_DIR_ENV} is not set")
    from repro.cli import main as cli_main
    from repro.executors.subproc import SubprocessExecutor

    init = SubprocessExecutor.__init__

    def traced_init(self, *args, **kwargs) -> None:
        init(self, *args, **kwargs)
        self.preload = (*self.preload, "trace_preload")

    SubprocessExecutor.__init__ = traced_init
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
