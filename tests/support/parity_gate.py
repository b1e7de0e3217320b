"""Content-parity gate for campaign smoke runs.

Usage::

    PYTHONPATH=src python tests/support/parity_gate.py SERIAL_OUT CANDIDATE_OUT APP...

For every ``APP``, compares the ``SimulationRecord.content_key()``
sequence of ``SERIAL_OUT/<app>/exploration_log.csv`` with the one under
``CANDIDATE_OUT`` (wall time excluded).  Exits 0 when every app matches;
otherwise exits 1 naming the first diverging app and both record counts.
"""

from __future__ import annotations

import os
import sys
from typing import Sequence

from repro.core.results import ExplorationLog


def content_keys(out_dir: str, app: str) -> list[tuple]:
    """The content keys of one app's exploration log under ``out_dir``."""
    log = ExplorationLog.read_csv(os.path.join(out_dir, app, "exploration_log.csv"))
    return [record.content_key() for record in log]


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) < 3:
        sys.stderr.write(
            "usage: parity_gate.py SERIAL_OUT CANDIDATE_OUT APP...\n"
        )
        return 2
    serial_out, candidate_out, *apps = args
    for app in apps:
        serial = content_keys(serial_out, app)
        candidate = content_keys(candidate_out, app)
        if serial != candidate:
            sys.stderr.write(
                f"{app}: {candidate_out} diverged from {serial_out}: "
                f"{len(serial)} vs {len(candidate)} records\n"
            )
            return 1
        print(f"{app}: parity ok, {len(serial)} records identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
