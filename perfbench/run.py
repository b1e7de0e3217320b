"""Campaign benchmark: the paper sweep as one closed-loop request.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_serial --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory for the rationale):

* ``paper_serial`` -- ``CampaignScheduler(workers=0)``, all in-process;
* ``paper_fleet``  -- a standing journaled ``EmbeddedBroker`` reached
  through ``QueueTransport``, serving one ``ddt-explore worker
  --connect-broker`` subprocess at capacity 1.

Each repetition is a fresh ``campaign.py`` process over a warm trace
store and a cold result cache.  Campaign times are reported net of the
host's slow-down, measured by calibration slices interleaved with the
simulated points (``calib.py``); the raw medians go to the ``host:``
line.  With ``--trace 0`` the run executes
whole campaigns while the next one is expected to end within
``--seconds`` (at least one), with set-up-only repetitions before and
after them, and prints the end-to-end metrics as medians.  With
``--trace 1`` it runs an untraced and then a traced campaign and
prints the per-layer metrics plus the tracing overhead.  Every
campaign is checked against ``reference.json`` and for a clean
lifecycle (no worker left running, no port left listening).  The last
stdout line is the JSON result; ``--write-reference`` regenerates
``reference.json`` from one serial campaign instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
#: Scratch space inside the checkout (stores, journals, spans).
WORK = os.path.join(ROOT, ".perfbench_work")
#: One JSON record per run: metrics next to the host-noise context.
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("paper_serial", "paper_fleet")
#: Set-up-only repetitions, half before and half after the campaigns,
#: so the median ``setup_s`` (with each campaign's own set-up) spans the
#: whole run rather than its first seconds.
SETUP_ONLY_REPS = 6
#: Every child is killed once the run is this old, so the run exits
#: well within the 180 s a run may take.
RUN_DEADLINE_S = 170.0


# ----------------------------------------------------------------------
# host-noise context (recorded, never compared)
# ----------------------------------------------------------------------
def _steal_ticks() -> int:
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0
    except OSError:
        return 0


def _load1() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return -1.0


# ----------------------------------------------------------------------
# lifecycle checks
# ----------------------------------------------------------------------
def _processes_with(marker: bytes) -> list[int]:
    """Live processes whose environment carries ``marker``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if marker in handle.read().split(b"\0"):
                    found.append(int(entry))
        except OSError:
            continue  # exited meanwhile, or not ours to read
    return found


def _listening(port: int) -> bool:
    """Whether any socket still listens on TCP ``port``."""
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table, encoding="ascii") as handle:
                next(handle)
                for line in handle:
                    fields = line.split()
                    if fields[3] == "0A" and int(fields[1].rsplit(":", 1)[1], 16) == port:
                        return True
        except OSError:
            continue
    return False


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------
class Rep:
    """One ``campaign.py`` process and what it reported."""

    def __init__(self, workload, seed, traces, work, deadline, *, setup_only=False,
                 trace_dir=None):
        self.state = os.path.join(work, f"rep-{uuid.uuid4().hex[:8]}")
        os.makedirs(self.state)
        result_path = os.path.join(self.state, "result.json")
        token = uuid.uuid4().hex
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        env["PYTHONHASHSEED"] = "0"
        env["PERFBENCH_RUN"] = token
        command = [
            sys.executable, os.path.join(HERE, "campaign.py"),
            "--workload", workload, "--seed", str(seed), "--traces", traces,
            "--state", self.state, "--result", result_path,
        ]
        if setup_only:
            command.append("--setup-only")
        if trace_dir is not None:
            command += ["--trace-dir", trace_dir]
        self.log = os.path.join(self.state, "log.txt")
        with open(self.log, "wb") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        timer = threading.Timer(
            max(1.0, deadline - time.monotonic()), os.killpg, (proc.pid, signal.SIGKILL)
        )
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        reaped = time.monotonic()
        self.exit_code = proc.returncode = os.waitstatus_to_exitcode(status)
        self.wall_s = reaped - spawned
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.out: dict = {}
        if self.exit_code == 0 and os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as handle:
                self.out = json.load(handle)
        self.setup_s = self.out["ready"] - spawned if "ready" in self.out else None
        #: From ``run()`` returning until the process was reaped.
        self.teardown_s = (
            reaped - self.out["teardown_start"] if "teardown_start" in self.out else 0.0
        )
        self.problems: list[str] = []
        if not self.out:
            self.problems.append(f"campaign process exited {self.exit_code}")
        orphans = _processes_with(f"PERFBENCH_RUN={token}".encode())
        if orphans:
            self.problems.append(f"orphan processes {orphans}")
            for pid in orphans:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        if "port" in self.out and _listening(self.out["port"]):
            self.problems.append(f"port {self.out['port']} still listening")
        if self.out.get("worker_exit_code", 0) != 0:
            self.problems.append(f"worker exit {self.out['worker_exit_code']}")
        #: Host slow-down and times net of it (see calib.py).
        self.slowdown = self.cpu_slowdown = float("nan")
        self.net: dict[str, float] = {}
        if "campaign_s" in self.out:
            calib = self.out.get("calib", [])
            slices = sum(c["slices"] for c in calib)
            if slices < self.out["simulations"]:
                self.problems.append(
                    f"{slices} calibration slices for {self.out['simulations']} points"
                )
            else:
                from calib import REFERENCE_SLICE_S

                wall = sum(c["wall_s"] for c in calib)
                cpu = sum(c["cpu_s"] for c in calib)
                self.slowdown = wall / slices / REFERENCE_SLICE_S
                self.cpu_slowdown = cpu / slices / REFERENCE_SLICE_S
                self.net = {
                    "campaign_s": (self.out["campaign_s"] - wall) / self.slowdown,
                    "cpu_s": (self.cpu_s - cpu) / self.cpu_slowdown,
                    "wall_s": (self.wall_s - wall) / self.slowdown,
                }

    def check(self, reference: dict) -> tuple[int, int]:
        """Correctness gate: returns (points attempted, points failed)."""
        expected = reference["simulations"]
        if self.problems or "apps" not in self.out:
            return expected, expected
        failed = self.out["requeues"]
        for app, ref in reference["apps"].items():
            got = self.out["apps"].get(app)
            if got != ref:
                self.problems.append(f"{app} differs from the reference")
                failed += ref["table1"][1]
        if self.out["simulations"] != expected:
            self.problems.append(
                f"{self.out['simulations']} simulations, reference {expected}"
            )
        return expected, min(failed, expected)

    def log_tail(self) -> str:
        with open(self.log, encoding="utf-8", errors="replace") as handle:
            return handle.read()[-2000:]


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="paper_serial")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    # Terminated from outside: unwind so the current repetition's process
    # group is killed and reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "repro", "core", "campaign.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    context = {
        "nproc": os.cpu_count() or 1,
        "load1_start": _load1(),
        "steal_ticks": -_steal_ticks(),
    }
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        traces = os.path.join(work, "traces")
        prep = subprocess.run(
            [sys.executable, os.path.join(HERE, "campaign.py"), "--prepare", traces],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": SRC},
            timeout=RUN_DEADLINE_S / 4,
        )
        if prep.returncode != 0:
            print("perfbench: trace store preparation failed", file=sys.stderr)
            return 2

        def rep(**kwargs) -> Rep:
            r = Rep(args.workload, args.seed, traces, work, deadline, **kwargs)
            if r.problems:
                print(f"rep problems: {r.problems}\n{r.log_tail()}", file=sys.stderr)
            return r

        if args.write_reference:
            r = rep()
            if r.problems:
                return 1
            with open(REFERENCE, "w", encoding="utf-8") as handle:
                json.dump(
                    {"simulations": r.out["simulations"], "apps": r.out["apps"]},
                    handle, indent=1, sort_keys=True,
                )
                handle.write("\n")
            print(f"wrote {REFERENCE}: {r.out['simulations']} simulations")
            return 0

        with open(REFERENCE, encoding="utf-8") as handle:
            reference = json.load(handle)
        attempted = failed = 0
        correct = True

        def campaign(**kwargs) -> Rep:
            nonlocal attempted, failed, correct
            r = rep(**kwargs)
            a, f = r.check(reference)
            attempted += a
            failed += f
            correct = correct and not r.problems
            print(
                f"{args.workload} seed {args.seed}: wall {r.wall_s:.3f}s "
                f"campaign {r.out.get('campaign_s', float('nan')):.3f}s "
                f"teardown {r.teardown_s:.3f}s "
                f"cpu {r.cpu_s:.3f}s slowdown {r.slowdown:.3f} "
                f"(cpu {r.cpu_slowdown:.3f}) calibrated campaign "
                f"{r.net.get('campaign_s', float('nan')):.3f}s problems {r.problems}"
            )
            return r

        if args.trace:
            # The untraced baseline runs right before the traced campaign,
            # so the host drifts as little as it can between the two.
            untraced_s = campaign().net.get("campaign_s", 0.0)
            traced_dir = os.path.join(work, "spans")
            traced = campaign(trace_dir=traced_dir)
            metrics = per_layer(traced, traced_dir, untraced_s)
        else:
            setups = []

            def set_up(count: int) -> None:
                nonlocal correct
                for _ in range(count):
                    r = rep(setup_only=True)
                    correct = correct and not r.problems
                    if r.setup_s is not None:
                        setups.append(r.setup_s)

            set_up(SETUP_ONLY_REPS // 2)
            measured = time.monotonic()
            reps = []
            while True:
                r = campaign()
                reps.append(r)
                if r.problems:
                    break
                elapsed = time.monotonic() - measured
                if elapsed + r.wall_s > args.seconds or time.monotonic() + r.wall_s > deadline:
                    break
            set_up(SETUP_ONLY_REPS - SETUP_ONLY_REPS // 2)
            ok = [r for r in reps if not r.problems]
            setups += [r.setup_s for r in ok]
            metrics = {
                "setup_s": _median(setups),
                "campaign_s": _median([r.net["campaign_s"] for r in ok]),
                "cpu_s": _median([r.net["cpu_s"] for r in ok]),
                "peak_rss_mb": max([r.peak_rss_mb for r in ok], default=0.0),
                "simulations": _median([r.out["simulations"] for r in ok]),
                "wall_s": _median([r.net["wall_s"] for r in ok]),
            }
            context["campaigns"] = len(reps)
            context["slowdown"] = _median([r.slowdown for r in ok])
            context["raw"] = {
                "campaign_s": _median([r.out["campaign_s"] for r in ok]),
                "cpu_s": _median([r.cpu_s for r in ok]),
                "wall_s": _median([r.wall_s for r in ok]),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    context["load1_end"] = _load1()
    context["steal_s"] = (context.pop("steal_ticks") + _steal_ticks()) / os.sysconf(
        "SC_CLK_TCK"
    )
    context["run_wall_s"] = time.monotonic() - started
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "context": context, "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(
        os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"),
        "w", encoding="utf-8",
    ) as handle:
        json.dump(record, handle, indent=1)
    print(f"host: {json.dumps(context)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def per_layer(traced: Rep, traced_dir: str, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of the traced campaign plus the tracing overhead.

    ``trace.campaign_s`` is the traced campaign's calibrated
    ``campaign_s``; the overhead is that minus the calibrated
    ``campaign_s`` of the untraced campaign run just before it.
    """
    from tracer import load_dumps, summarize

    campaign_s = traced.out.get("campaign_s", 0.0)
    dumps = load_dumps(traced_dir) if os.path.isdir(traced_dir) else []
    metrics = summarize(dumps, max(campaign_s, 1e-9))
    phases = traced.out.get("phases", {})
    metrics["broker.worker_exit_s"] = phases.get("worker_exit_s", 0.0)
    metrics["broker.requeues"] = float(traced.out.get("requeues", 0))
    metrics["teardown.scheduler_close_s"] = phases.get("scheduler_close_s", 0.0)
    metrics["teardown.total_s"] = traced.teardown_s
    metrics["trace.campaign_s"] = traced.net.get("campaign_s", 0.0)
    metrics["trace.overhead_s"] = metrics["trace.campaign_s"] - untraced_s
    return metrics


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
