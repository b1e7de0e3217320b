"""One campaign process of the benchmark: set up, run, tear down.

``run.py`` starts this script once per repetition, so set-up time
includes interpreter start and imports.  The process builds the
workload's scheduler over a warm trace store and a cold result cache,
stamps the moment the first point could be dispatched, runs the
paper campaign, digests the results for the correctness gate, tears
down in lifecycle order and writes everything ``run.py`` needs as JSON.

With ``--setup-only`` the process stops after the set-up stamp: it
closes the scheduler, stops the fleet worker and exits without the
broker close, which is only measured on full repetitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: The benchmarked sweep: every case study's paper configurations on
#: these traces, each with the full DDT library.  The first is every
#: study's step-1 reference, so steps 1-3 run exactly as in the full
#: paper sweep, over fewer step-2 configurations (703 of 1129 points).
SWEEP_TRACES = ("BWY-I", "ANL", "Berry-I")
#: Seconds the teardown waits for the fleet worker to leave on its own;
#: running out counts as a failed repetition.
WORKER_EXIT_TIMEOUT_S = 20.0
#: Seconds set-up waits for the fleet worker to register at the broker.
WORKER_REGISTER_TIMEOUT_S = 60.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traces", required=True, help="warm trace store")
    parser.add_argument("--state", required=True, help="fresh per-repetition dir")
    parser.add_argument("--result", required=True, help="JSON output file")
    parser.add_argument("--trace-dir", default=None, help="trace spans here")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def prepare(traces: str) -> None:
    """Fill the trace store (and the bytecode caches) before timing."""
    from repro.net.tracestore import TraceStore

    import repro.core.broker  # noqa: F401  (compile before the timed runs)
    import repro.core.campaign  # noqa: F401
    import repro.tools.explore  # noqa: F401

    TraceStore(traces).ensure(SWEEP_TRACES)


def seeded_order(seed: int, names: list[str]) -> tuple[list[str], list[str]]:
    """Case-study order and step-1 submission order for ``seed``."""
    rng = random.Random(seed)
    studies = list(names)
    rng.shuffle(studies)
    step1 = list(names)
    rng.shuffle(step1)
    return studies, step1


def digest(result) -> dict:
    """What the correctness gate compares, per application."""
    apps = {}
    for name, refinement in result.refinements.items():
        records = list(refinement.step1.log) + list(refinement.step2.log)
        keys = sorted(repr(record.content_key()) for record in records)
        step3 = refinement.step3
        apps[name] = {
            "sha256": hashlib.sha256("\n".join(keys).encode()).hexdigest(),
            "table1": list(refinement.summary_row()[1:]),
            "fronts": {
                config: sorted(step3.pareto_optimal_combos(config))
                for config in sorted(step3.pareto_sets)
            },
        }
    return apps


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    tracer = None
    if args.trace_dir is not None:
        from tracer import Tracer, install

        tracer = Tracer(args.trace_dir, "coordinator")

    from repro.core.broker import BrokerClient, EmbeddedBroker, QueueTransport
    from repro.core.campaign import CampaignScheduler
    from repro.core.casestudies import CASE_STUDIES, case_study_names
    from repro.net.tracestore import TraceStore

    if tracer is not None:
        install(tracer)

    class SeededScheduler(CampaignScheduler):
        """The paper campaign with a seed-chosen step-1 submission order."""

        def __init__(self, step1: list[str], **kwargs) -> None:
            super().__init__(**kwargs)
            self._step1 = step1

        def step1_order(self) -> list[str]:
            return list(self._step1)

    out: dict = {"phases": {}}
    studies, step1 = seeded_order(args.seed, list(case_study_names()))
    kwargs = dict(
        studies=studies,
        step1=step1,
        configs={
            study.name: [c for c in study.configs if c.trace_name in SWEEP_TRACES]
            for study in CASE_STUDIES
        },
        cache=os.path.join(args.state, "cache"),
        trace_store=TraceStore(args.traces),
    )
    broker = worker = None
    if args.workload == "paper_serial":
        scheduler = SeededScheduler(workers=0, **kwargs)
    elif args.workload == "paper_fleet":
        broker = EmbeddedBroker(journal=os.path.join(args.state, "journal")).start()
        worker_args = [
            "--connect-broker", broker.address,
            "--local-cache", os.path.join(args.state, "worker-store"),
            "--quiet",
        ]
        worker_calib = os.path.join(args.state, "worker-calib.json")
        command = [
            sys.executable, os.path.join(HERE, "worker.py"),
            worker_calib, "-" if tracer is None else args.trace_dir,
        ]
        worker = subprocess.Popen(command + worker_args)
        out["port"] = int(broker.address.rsplit(":", 1)[1])
        client = BrokerClient(broker.address)
        deadline = time.monotonic() + WORKER_REGISTER_TIMEOUT_S
        while not client.call("fleet")["fleet"]["live"]:
            if time.monotonic() > deadline or worker.poll() is not None:
                raise RuntimeError("fleet worker never registered")
            time.sleep(0.005)
        scheduler = SeededScheduler(transport=QueueTransport(broker), **kwargs)
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")
    out["ready"] = time.monotonic()

    if args.setup_only:
        scheduler.close()
        if worker is not None:
            worker.terminate()
            worker.wait(WORKER_EXIT_TIMEOUT_S)
            client.close()
        with open(args.result, "w", encoding="utf-8") as handle:
            json.dump(out, handle)
        return 0

    from calib import Calibrator
    from calib import install as install_calib

    calibrator = Calibrator()
    install_calib(calibrator)
    started = time.monotonic()
    result = scheduler.run()
    out["campaign_s"] = time.monotonic() - started
    out["simulations"] = result.stats.simulations
    out["apps"] = digest(result)
    #: Slice totals of every simulating process (see calib.py).
    out["calib"] = [calibrator.summary()]
    out["requeues"] = 0
    if broker is not None:
        out["requeues"] = int(client.call("fleet")["fleet"]["requeues"])
        client.close()

    # Lifecycle order: the campaign's close lets the worker see that no
    # campaign is running and leave; only then may the broker go, or the
    # worker would ride the close out as a broker outage.
    out["teardown_start"] = time.monotonic()
    phases = out["phases"]
    mark = time.monotonic()
    scheduler.close()
    phases["scheduler_close_s"] = time.monotonic() - mark
    if worker is not None:
        mark = time.monotonic()
        try:
            out["worker_exit_code"] = worker.wait(WORKER_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait()
            out["worker_exit_code"] = "timeout"
        phases["worker_exit_s"] = time.monotonic() - mark
        if os.path.exists(worker_calib):
            with open(worker_calib, encoding="utf-8") as handle:
                out["calib"].append(json.load(handle))
        mark = time.monotonic()
        broker.close()
        phases["broker_close_s"] = time.monotonic() - mark
    if tracer is not None:
        tracer.dump()
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--prepare":
        prepare(sys.argv[2])
        sys.exit(0)
    sys.exit(main())
