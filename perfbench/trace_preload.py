"""Worker-side hook of a traced server.

``serve_traced.py`` makes each executor worker import this module
(``--preload trace_preload``); importing it installs the layer wrappers
of ``layertrace.py`` and writes the worker's spans to
``PERFBENCH_TRACE_DIR`` when the worker exits.
"""

import layertrace

layertrace.install_from_env()
