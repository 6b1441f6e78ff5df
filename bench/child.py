"""Run one confmix CLI command in this fresh process and report on it.

    python3 child.py RESULT_JSON TRACE_JSON|- RUN_ID -- CONFMIX_ARGS...

Writes RESULT_JSON with the exit code, the time spent importing
`confmix` and in `confmix.cli.main`, and the process's peak resident
memory. With a TRACE_JSON path the command runs under `tracing.Tracer`
and its spans are written there; with `-` nothing is patched.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def run(argv, trace_path=None, run_id="") -> dict:
    start = time.perf_counter()
    import confmix.cli
    imported = time.perf_counter()
    tracer = None
    if trace_path is not None:
        from tracing import Tracer
        tracer = Tracer(run_id)
        tracer.install()
    begin = time.perf_counter()
    try:
        code = confmix.cli.main(argv)
    except SystemExit as e:   # argparse usage errors
        code = e.code
    finally:
        end = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(trace_path)
    return {"code": code, "import_s": imported - start, "main_s": end - begin,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "confmix_file": confmix.__file__}


def main():
    result_path, trace_path, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: child.py RESULT_JSON TRACE_JSON|- RUN_ID -- CONFMIX_ARGS...")
    result = run(argv, None if trace_path == "-" else trace_path, run_id)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
