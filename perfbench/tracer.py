"""In-memory spans and counters around the repro layers' public calls.

Nothing here lives in ``src/``: :func:`install` wraps functions and
methods of the already-imported ``repro`` modules, so the program runs
unchanged when tracing is off.  A span is ``(id, parent, name, start,
end, attrs)``; parents come from a per-thread stack, so a span's self
time is its duration minus its direct children's.  Calls too frequent
for a span each (the DDT scan, the profiler's metric roll-up) only feed
counters.  Spans stay in memory until :meth:`Tracer.dump` writes one
JSON file per process; :func:`summarize` folds those files into the
per-layer metrics.

Processes: the coordinator installs the wrappers itself, and the fleet
worker is started by ``perfbench/worker.py``, which installs them before
entering the real worker loop.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time

__all__ = ["Tracer", "install", "summarize"]


class Tracer:
    """Span and counter store of one process."""

    def __init__(self, directory: str, role: str) -> None:
        self.directory = directory
        self.role = role
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, name: str, value: float) -> None:
        # Broker and transport threads count concurrently.
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def span(self, name, fn, args, kwargs, attrs=None, after=None):
        """Call ``fn`` inside a span; ``after(result, attrs)`` may tag it."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                attrs = after(result, attrs)
            return result
        finally:
            end = time.monotonic()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, attrs))

    def dump(self) -> None:
        """Write this process's spans and counters as one JSON file."""
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, f"{self.role}-{self.pid}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    # The run's scratch directory name: workload, seed, pid.
                    "run": os.path.basename(os.path.dirname(self.directory)),
                    "role": self.role,
                    "pid": self.pid,
                    "spans": self.spans,
                    "counters": self.counters,
                },
                handle,
            )


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _spanned(tracer, fn, name, attrs_of=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = attrs_of(*args, **kwargs) if attrs_of is not None else None
        return tracer.span(name, fn, args, kwargs, attrs, after)

    return wrapper


def _counted(tracer, fn, name):
    calls, seconds = f"{name}_calls", f"{name}_s"
    counters = tracer.counters
    clock = time.monotonic

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            counters[seconds] = counters.get(seconds, 0.0) + (clock() - start)
            counters[calls] = counters.get(calls, 0.0) + 1

    return wrapper


class _TimedPickle:
    """Stands in for ``pickle`` inside the frame helpers' module."""

    def __init__(self, tracer, real) -> None:
        self._tracer = tracer
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)

    def dumps(self, obj, *args, **kwargs):
        blob = self._real.dumps(obj, *args, **kwargs)
        self._tracer.add("transport.frames", 1)
        self._tracer.add("transport.frame_bytes", len(blob))
        return blob

    def loads(self, blob, *args, **kwargs):
        start = time.monotonic()
        try:
            return self._real.loads(blob, *args, **kwargs)
        finally:
            self._tracer.add("transport.frame_load_s", time.monotonic() - start)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported ``repro`` modules."""
    from repro.core import broker, engine, journal, simulate, taskgraph, transport
    from repro.ddt.base import DynamicDataType
    from repro.memory.profiler import MemoryProfiler
    from repro.net.tracestore import TraceStore

    def simulated(record, attrs):
        tracer.add("simulate.accesses", record.metrics.accesses)
        return attrs

    run_simulation = _spanned(
        tracer,
        simulate.run_simulation,
        "simulate",
        attrs_of=lambda app_cls, *_a, **_k: {"app": app_cls.name},
        after=simulated,
    )
    for module in (simulate, taskgraph, engine, broker, transport):
        module.run_simulation = run_simulation

    DynamicDataType.find = _counted(tracer, DynamicDataType.find, "ddt.find")
    MemoryProfiler.metrics = _counted(tracer, MemoryProfiler.metrics, "memory.metrics")

    original_get = TraceStore.get

    def trace_get(store, name):
        loads, generations = store.disk_loads, store.generations
        try:
            return tracer.span("net.trace_get", original_get, (store, name), {})
        finally:
            tracer.add("net.trace_loads", store.disk_loads - loads)
            tracer.add("net.trace_generations", store.generations - generations)

    TraceStore.get = trace_get

    for owner, attr, name in (
        (engine.SimulationCache, "put", "engine.cache_put"),
        (engine.SimulationCache, "flush", "engine.cache_flush"),
        (engine.WorkerRecordStore, "put", "engine.worker_store_put"),
        (engine.WorkerRecordStore, "flush", "engine.worker_store_flush"),
        (taskgraph.TaskGraph, "run", "taskgraph.run"),
        (broker.QueueTransport, "next_results", "transport.wait"),
        (journal.Journal, "compact", "journal.compact"),
        (broker.EmbeddedBroker, "close", "broker.close"),
    ):
        setattr(owner, attr, _spanned(tracer, getattr(owner, attr), name))

    def store_lookup(record, attrs):
        tracer.add("engine.worker_store_misses" if record is None else
                   "engine.worker_store_hits", 1)
        return attrs

    engine.WorkerRecordStore.get = _spanned(
        tracer, engine.WorkerRecordStore.get, "engine.worker_store_get",
        after=store_lookup,
    )
    broker.QueueTransport.submit_chunk = _spanned(
        tracer,
        broker.QueueTransport.submit_chunk,
        "transport.submit",
        attrs_of=lambda _self, token, chunk: {"token": token, "points": len(chunk)},
    )
    broker.BrokerClient.call = _spanned(
        tracer,
        broker.BrokerClient.call,
        "broker.call",
        attrs_of=lambda _self, op, **_fields: {"op": op},
    )

    send_frame = _spanned(tracer, transport.send_frame, "transport.send_frame")
    transport.send_frame = broker.send_frame = send_frame
    transport.pickle = _TimedPickle(tracer, transport.pickle)

    original_append = journal.Journal.append

    def append(log, entry, **kwargs):
        handle = getattr(log, "_log", None)
        before = handle.tell() if handle is not None else 0
        try:
            return tracer.span("journal.append", original_append, (log, entry), kwargs)
        finally:
            handle = getattr(log, "_log", None)
            if handle is not None:
                tracer.add("journal.bytes", max(0, handle.tell() - before))

    journal.Journal.append = append


# ----------------------------------------------------------------------
# per-layer summary
# ----------------------------------------------------------------------
APPS = ("Route", "URL", "IPchains", "DRR")
CALL_OPS = ("take_any", "push_result", "take", "heartbeat")


def _p(values, q):
    """The ``q``-th percentile (0-100) of ``values``; 0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def load_dumps(directory: str) -> list[dict]:
    dumps = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                dumps.append(json.load(handle))
    return dumps


def summarize(dumps: list[dict], campaign_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced campaign from its process dumps."""

    def spans(name, roles=None):
        return [
            (dump["role"], span)
            for dump in dumps
            if roles is None or dump["role"] in roles
            for span in dump["spans"]
            if span[2] == name
        ]

    def total(name, roles=None):
        return sum(span[4] - span[3] for _role, span in spans(name, roles))

    def counter(name, roles=None):
        return sum(
            dump["counters"].get(name, 0.0)
            for dump in dumps
            if roles is None or dump["role"] in roles
        )

    sims = spans("simulate")
    busy = sum(s[4] - s[3] for _r, s in sims)
    point_ms = {
        app: [1e3 * (s[4] - s[3]) for _r, s in sims if s[5]["app"] == app]
        for app in APPS
    }
    accesses = counter("simulate.accesses")
    find_s = counter("ddt.find_s")

    # Self time of the task graph: each run span minus its direct children.
    graph_self = 0.0
    for dump in dumps:
        children: dict[int, float] = {}
        for span in dump["spans"]:
            children[span[1]] = children.get(span[1], 0.0) + span[4] - span[3]
        for span in dump["spans"]:
            if span[2] == "taskgraph.run":
                graph_self += span[4] - span[3] - children.get(span[0], 0.0)

    submits = spans("transport.submit", {"coordinator"})
    submitted = sum(s[5]["points"] for _r, s in submits)
    calls = spans("broker.call")
    worker_busy = sum(s[4] - s[3] for r, s in sims if r == "fleet-worker")

    metrics = {
        "simulate.points": float(len(sims)),
        "simulate.busy_s": busy,
        **{
            f"simulate.point_ms.{app.lower()}": _p(point_ms[app], 50)
            for app in APPS
        },
        "simulate.point_ms_p90": _p(
            [v for values in point_ms.values() for v in values], 90
        ),
        "simulate.ns_per_access": 1e9 * busy / accesses if accesses else 0.0,
        "ddt.find_calls": counter("ddt.find_calls"),
        "ddt.find_s": find_s,
        "ddt.find_share": find_s / busy if busy else 0.0,
        "memory.metrics_s": counter("memory.metrics_s"),
        "net.trace_loads": counter("net.trace_loads"),
        "net.trace_load_s": total("net.trace_get"),
        "net.trace_generations": counter("net.trace_generations"),
        "engine.cache_put_s": total("engine.cache_put", {"coordinator"}),
        "engine.cache_flush_s": total("engine.cache_flush", {"coordinator"}),
        "engine.worker_store_get_s": total("engine.worker_store_get"),
        "engine.worker_store_put_s": total("engine.worker_store_put"),
        "engine.worker_store_flush_s": total("engine.worker_store_flush"),
        "engine.worker_store_hits": counter("engine.worker_store_hits"),
        "engine.worker_store_misses": counter("engine.worker_store_misses"),
        "taskgraph.chunks": float(len(submits)),
        "taskgraph.points_per_chunk": submitted / len(submits) if submits else 0.0,
        "taskgraph.self_s": graph_self,
        "transport.submit_s": total("transport.submit", {"coordinator"}),
        "transport.wait_s": total("transport.wait", {"coordinator"}),
        "transport.frames": counter("transport.frames"),
        "transport.frame_bytes": counter("transport.frame_bytes"),
        "transport.frame_s": total("transport.send_frame")
        + counter("transport.frame_load_s"),
        **{
            f"broker.call_ms.{op}": _p(
                [1e3 * (s[4] - s[3]) for _r, s in calls if s[5]["op"] == op], 50
            )
            for op in CALL_OPS
        },
        "broker.lease_wait_s": sum(
            s[4] - s[3]
            for r, s in calls
            if r == "fleet-worker" and s[5]["op"] == "take_any"
        ),
        "broker.worker_busy_frac": worker_busy / campaign_s,
        "journal.appends": float(len(spans("journal.append"))),
        "journal.bytes": counter("journal.bytes"),
        "journal.append_s": total("journal.append"),
        "journal.compactions": float(len(spans("journal.compact"))),
        "journal.compact_s": total("journal.compact"),
        "broker.close_s": total("broker.close"),
    }
    return metrics
