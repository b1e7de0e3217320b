"""Fleet worker: ``python3 worker.py CALIB_FILE TRACE_DIR|- <worker args>``.

Installs the benchmark's calibration slices (and, unless TRACE_DIR is
``-``, its span wrappers), then runs the unchanged ``ddt-explore
worker`` entry point (which calls ``serve_queue_worker``) with the
remaining arguments.  When it returns, it writes the slice totals to
CALIB_FILE as JSON and the spans under TRACE_DIR.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calib import Calibrator  # noqa: E402
from calib import install as install_calib  # noqa: E402


def main() -> int:
    calib_file, trace_dir, worker_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = None
    if trace_dir != "-":
        from tracer import Tracer, install

        tracer = Tracer(trace_dir, "fleet-worker")
        install(tracer)
    calibrator = Calibrator()
    install_calib(calibrator)
    from repro.tools.explore import worker_main

    try:
        return worker_main(worker_args)
    finally:
        with open(calib_file, "w", encoding="utf-8") as handle:
            json.dump(calibrator.summary(), handle)
        if tracer is not None:
            tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
