"""Spans and counters recorded around each layer's public functions.

The benchmark traces the program from the outside: :func:`install`
replaces public functions and methods of ``repro.march``,
``repro.engine``/``repro.bist``, ``repro.sweep``, ``repro.distrib`` and
``repro.serve`` with wrappers that record a span (name, start, end,
parent, thread, run id) and update counters, so no file under
``src/repro`` changes.  Spans stay in memory and are written once, by
:meth:`Tracer.dump`, when the process is done.  Every process of a traced
workload (the benchmark itself, cold-scale passes, distrib workers, the
service) installs the same wrappers, and all of them stamp spans with
``time.monotonic()``, which is one system-wide clock on Linux, so spans
from different processes share a time axis.

Untraced runs never import this module's :func:`install`, so the
end-to-end metrics carry no tracing cost.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """In-memory span and counter store of one process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: (span id, parent id, name, start, end, thread ident)
        self.spans: List[Tuple[int, int, str, float, float, int]] = []
        #: name -> [(time, value)]: counter increments and samples
        #: (one value per occurrence, e.g. one queue wait), timestamped so
        #: a report can keep only those inside its timed window.
        self.events: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Tuple[int, int, str, float]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return span_id, parent, name, time.monotonic()

    def end(self, token: Tuple[int, int, str, float]) -> float:
        span_id, parent, name, start = token
        finish = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        self.spans.append((span_id, parent, name, start, finish,
                           threading.get_ident()))
        return finish - start

    def count(self, name: str, value: float = 1) -> None:
        """Record one counter increment or one sample of ``name``."""
        self.events[name].append((time.monotonic(), value))

    def document(self) -> dict:
        """Every span and event, in the form :meth:`dump` writes."""
        return {"run_id": self.run_id, "spans": list(self.spans),
                "events": dict(self.events)}

    def dump(self, path: str) -> None:
        """Write :meth:`document` as JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.document(), handle)


#: The process's tracer while wrappers are installed (``None`` untraced).
TRACER: Optional[Tracer] = None
#: (owner, attribute, original value) of every installed wrapper.
_ORIGINALS: List[Tuple[object, str, object]] = []


def _wrap(owner, attr: str, span: str,
          when: Optional[Callable[..., bool]] = None,
          after: Optional[Callable[..., None]] = None) -> None:
    """Replace ``owner.attr`` by a span-recording wrapper.

    ``when(*args)`` (optional) decides per call whether the call is
    traced at all — used to time only the cache-miss path of memoised
    methods.  ``after(result, args, kwargs, seconds)`` runs after a traced
    call returns.  Classmethods and generator functions are handled; a
    generator's span stays open until it is exhausted or closed.
    """
    raw = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    _ORIGINALS.append((owner, attr, raw))
    is_classmethod = isinstance(raw, classmethod)
    func = raw.__func__ if is_classmethod else raw

    if inspect.isgeneratorfunction(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            token = TRACER.begin(span)
            try:
                yield from func(*args, **kwargs)
            finally:
                TRACER.end(token)
    else:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args):
                return func(*args, **kwargs)
            token = TRACER.begin(span)
            try:
                result = func(*args, **kwargs)
            finally:
                seconds = TRACER.end(token)
            if after is not None:
                after(result, args, kwargs, seconds)
            return result

    setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)


def _uncached(attribute: str) -> Callable[..., bool]:
    """``when`` predicate: trace only calls that will fill ``attribute``."""
    return lambda self, *rest: getattr(self, attribute, None) is None


def _counter(name: str) -> Callable[..., None]:
    return lambda result, args, kwargs, seconds: TRACER.count(name)


def install(run_id: str) -> Tracer:
    """Install every layer wrapper in this process; returns the tracer."""
    global TRACER
    if TRACER is not None:
        raise RuntimeError("layer wrappers are already installed")
    TRACER = Tracer(run_id)

    from repro.bist.controller import BistController
    from repro.distrib import coordinator as distrib_coordinator
    from repro.distrib.ledger import LeaseLedger
    from repro.distrib.worker import DistribWorker
    from repro.engine.fault_campaign import VectorizedFaultCampaign
    from repro.engine.grid import BatchedGridEngine
    from repro.engine.power_campaign import VectorizedPowerCampaign
    from repro.engine.vectorized import VectorizedEngine
    from repro.faults.backend import ReferenceFaultBackend
    from repro.march.execution import OperationTrace, SegmentWalk
    from repro.march.ordering import AddressOrder, PseudoRandomOrder
    from repro.serve.cache import ResultCache
    from repro.serve.client import ServeClient
    from repro.sweep import merge as sweep_merge
    from repro.sweep import runner as sweep_runner
    from repro.sweep.journal import RunJournal

    # -- march: order expansion, trace compile, segment walks ---------
    _wrap(AddressOrder, "coordinate_arrays", "march.order",
          when=_uncached("_coordinate_arrays_cache"),
          after=_counter("march.orders_built"))
    _wrap(AddressOrder, "rank_array", "march.order",
          when=_uncached("_rank_array_cache"))
    _wrap(AddressOrder, "is_wordline_sequential", "march.order",
          when=_uncached("_wordline_sequential_cache"))
    _wrap(PseudoRandomOrder, "__init__", "march.order")
    _wrap(OperationTrace, "__init__", "march.trace",
          after=_counter("march.traces_compiled"))

    def segments(result, args, kwargs, seconds):
        TRACER.count("march.segments", result.segment_count)

    _wrap(SegmentWalk, "compile", "march.segwalk", after=segments)

    # -- engine + bist: kernel passes, comparators, fault simulation --
    def kernel_units(result, args, kwargs, seconds):
        units = len(args[1])
        TRACER.count("engine.kernel_calls")
        TRACER.count("engine.units", units)
        if units > 2:  # more than one case's two modes share the pass
            TRACER.count("engine.stacked_units", units)

    _wrap(VectorizedEngine, "run_aggregates_batch", "engine.kernel",
          after=kernel_units)
    _wrap(VectorizedEngine, "run_aggregates", "engine.kernel")
    _wrap(VectorizedPowerCampaign, "comparator_outcomes", "bist.comparator")
    _wrap(BistController, "measure_batch", "bist.measure")
    _wrap(BistController, "run", "bist.measure")

    def injections(result, args, kwargs, seconds):
        TRACER.count("engine.injections", len(args[3]))

    _wrap(VectorizedFaultCampaign, "simulate_many", "engine.fault",
          after=injections)
    _wrap(ReferenceFaultBackend, "simulate_many", "engine.fault",
          after=injections)
    _wrap(sweep_runner, "run_campaign", "engine.fault")
    _wrap(BatchedGridEngine, "completions", "engine.grid")

    # -- sweep: runner, record assembly, journal, merge ---------------
    _wrap(sweep_runner.SweepRunner, "run", "sweep.run")
    _wrap(sweep_runner, "execute_case", "sweep.case")
    _wrap(sweep_runner, "prr_record", "sweep.record")
    _wrap(sweep_runner, "power_record", "sweep.record")

    claims: Dict[str, float] = {}

    def appended(result, args, kwargs, seconds):
        TRACER.count("sweep.journal_appends")
        claimed = claims.pop("pending", None)
        if claimed is not None:  # first record of a freshly claimed lease
            TRACER.count("distrib.lease_setup_s", time.monotonic() - claimed)

    _wrap(RunJournal, "append", "sweep.journal_append", after=appended)
    for name in ("open", "write_header", "close", "load"):
        _wrap(RunJournal, name, "sweep.journal")
    _wrap(sweep_merge, "merge_journals", "sweep.merge")
    _wrap(distrib_coordinator, "merge_journals", "sweep.merge")

    # -- distrib: ledger I/O, leases, worker loop ----------------------
    def claimed(result, args, kwargs, seconds):
        if result is not None:
            TRACER.count("distrib.leases")
            claims["pending"] = time.monotonic()

    for name in ("initialise", "load_manifest", "load_grid", "lease_ids",
                 "read_lease", "leases", "heartbeat", "complete",
                 "release_expired", "status"):
        _wrap(LeaseLedger, name, "distrib.ledger")
    _wrap(LeaseLedger, "claim", "distrib.ledger", after=claimed)

    def lease_done(result, args, kwargs, seconds):
        if result:
            TRACER.count("distrib.busy_s", seconds)

    _wrap(DistribWorker, "run_once", "distrib.lease", after=lease_done)
    _wrap(DistribWorker, "run", "distrib.worker")

    # -- serve: cache reads/writes, wave start (queue wait) ------------
    missed: Dict[str, float] = {}

    def cache_read(result, args, kwargs, seconds):
        TRACER.count("serve.cache_get_ms", seconds * 1e3)
        if result is None:
            missed.setdefault(args[1], time.monotonic() - seconds)

    def cache_write(result, args, kwargs, seconds):
        TRACER.count("serve.cache_store_ms", seconds * 1e3)
        missed.pop(args[1], None)

    _wrap(ServeClient, "submit", "serve.request")
    _wrap(ResultCache, "get", "serve.cache_get", after=cache_read)
    _wrap(ResultCache, "store", "serve.cache_store", after=cache_write)

    original_init = BatchedGridEngine.__init__

    @functools.wraps(original_init)
    def wave_start(self, cases, worker_state=None):
        now = time.monotonic()
        for case in cases:
            digest = sweep_runner.fingerprint_digest(
                sweep_runner.case_fingerprint(case))
            arrived = missed.pop(digest, None)
            if arrived is not None:
                TRACER.count("serve.queue_ms", (now - arrived) * 1e3)
        original_init(self, cases, worker_state=worker_state)

    _ORIGINALS.append((BatchedGridEngine, "__init__", original_init))
    BatchedGridEngine.__init__ = wave_start
    return TRACER


def uninstall() -> Tracer:
    """Restore every wrapped function; returns the finished tracer."""
    global TRACER
    while _ORIGINALS:
        owner, attr, original = _ORIGINALS.pop()
        setattr(owner, attr, original)
    tracer, TRACER = TRACER, None
    return tracer


# ----------------------------------------------------------------------
# Analysis of dumped spans
# ----------------------------------------------------------------------
#: (start, end) intervals on the ``time.monotonic()`` axis.
Windows = List[Tuple[float, float]]


def _inside(moment: float, windows: Optional[Windows]) -> bool:
    return windows is None or any(low <= moment <= high
                                  for low, high in windows)


def layer_of(name: str) -> str:
    """The layer a span belongs to (``bist.*`` reports with the engine)."""
    prefix = name.split(".", 1)[0]
    return "engine" if prefix == "bist" else prefix


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(documents: List[dict], windows: Optional[Windows] = None
               ) -> Dict[str, float]:
    """Self time per span name over the dumped documents of one run.

    A span's self time is its duration minus the part of it that its own
    child spans (same process, linked by parent id) cover.  With
    ``windows``, only spans that start inside one of them count.
    """
    seconds: Dict[str, float] = defaultdict(float)
    for document in documents:
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span_id, parent, name, start, end, thread in document["spans"]:
            if parent:
                children[parent].append((start, end))
        for span_id, parent, name, start, end, thread in document["spans"]:
            if not _inside(start, windows):
                continue
            covered = _union_length(
                [(max(start, s), min(end, e)) for s, e in children[span_id]
                 if min(end, e) > max(start, s)])
            seconds[name] += (end - start) - covered
    return dict(seconds)


def covered_seconds(documents: List[dict], windows: Windows) -> float:
    """Seconds of ``windows`` covered by at least one span of any process."""
    return sum(_union_length([(max(low, start), min(high, end))
                              for document in documents
                              for _, _, _, start, end, _ in document["spans"]
                              if min(high, end) > max(low, start)])
               for low, high in windows)


def events(documents: List[dict], windows: Optional[Windows] = None
           ) -> Dict[str, List[float]]:
    """Every event value per name, optionally only inside ``windows``."""
    values: Dict[str, List[float]] = defaultdict(list)
    for document in documents:
        for name, entries in document["events"].items():
            values[name].extend(value for moment, value in entries
                                if _inside(moment, windows))
    return values


def totals(documents: List[dict], windows: Optional[Windows] = None
           ) -> Counter:
    """Counter totals per name, optionally only inside ``windows``."""
    return Counter({name: sum(values)
                    for name, values in events(documents, windows).items()})


def spans_named(documents: List[dict], name: str) -> List[Tuple[float, float]]:
    return [(start, end) for document in documents
            for _, _, span, start, end, _ in document["spans"]
            if span == name]
