"""The kernel-wide observability switchboard.

One :class:`Observability` instance per kernel, installed as
``kernel.obs`` by :func:`enable`.  Everything hangs off it: the event
bus, the metrics registry, and the ktrace ring buffer.  The design rule
is the paper's own pay-per-use claim applied to the observer itself:

* **Disabled** (``kernel.obs is None``, the default): every
  instrumentation site in the trap spine is guarded by a single
  attribute load and ``is None`` test — the same order of cost as the
  emulation-vector lookup that makes uninterposed calls free.
* **Enabled**: metrics are updated on every trap, and :class:`Event`
  objects are built only when someone is listening — a bus subscriber,
  a ktrace'd process, or the ``trace_all`` firehose.

``benchmarks/bench_obs_overhead.py`` measures both sides of that claim.
"""

import itertools

from repro.kernel.ktrace import KtraceBuffer
from repro.obs.events import Event, EventBus
from repro.obs.metrics import MetricsRegistry, layer_keys
from repro.obs.spans import SpanAssembler


class Observability:
    """Event bus + metrics registry + ktrace buffer for one kernel."""

    def __init__(self, kernel, ktrace_capacity=4096, metrics=True,
                 trace_all=False, spans=False):
        self.kernel = kernel
        self.bus = EventBus()
        self.metrics = MetricsRegistry()
        #: when False, the trap spine skips counter/histogram updates
        self.metrics_on = metrics
        self.ktrace = KtraceBuffer(ktrace_capacity)
        #: trace every process, ignoring per-process ktrace flags
        self.trace_all = trace_all
        #: the causal span assembler, or None when span tracing is off
        self.spans = SpanAssembler() if spans else None
        self._seq = itertools.count(1)
        #: (layer, name) -> its layer_keys, for layer_usec
        self._layer_keys = {}

    # -- emission (called from the instrumented kernel paths) ------------

    def wants(self, proc):
        """True when an event about *proc* would reach any consumer.

        The trap path asks this once per call so that event objects are
        never built just to be dropped.
        """
        return (bool(self.bus._subs) or self.trace_all
                or proc.ktrace_on or self.spans is not None)

    def emit(self, kind, proc, name="", detail="", link_pid=0):
        """Build an event about *proc* and route it to spans + ring + bus.

        *link_pid* names the other process the event causally involves,
        when the emission site knows one: the child pid on ``proc.fork``,
        the waker's pid on ``pipe.wakeup``.  The span assembler (when
        installed) consumes it — and runs *first*, so the span/cause ids
        it stamps onto the event are already present in the record the
        ring buffer keeps and the bus publishes.
        """
        event = Event(next(self._seq), self.kernel.clock.usec(),
                      proc.pid, proc.comm, kind, name, detail)
        if self.spans is not None:
            self.spans.observe(event, link_pid)
        if self.trace_all or proc.ktrace_on:
            self.ktrace.append(event)
        if self.bus._subs:
            self.bus.publish(event)
        return event

    # -- span tracing ----------------------------------------------------

    def enable_spans(self):
        """Install a span assembler (idempotent); returns the assembler."""
        if self.spans is None:
            self.spans = SpanAssembler()
        return self.spans

    def disable_spans(self):
        """Stop span assembly; returns the detached assembler (or None).

        The detached assembler keeps its collected spans and edges for
        export or critical-path analysis.
        """
        spans = self.spans
        self.spans = None
        return spans

    def layer_usec(self, layer, name, usec):
        """Attribute *usec* of host time inside an agent handler to a layer.

        Recorded at both aggregation levels: ``("layer.usec", layer)``
        and ``("layer.usec", layer, name)``, plus the call counter
        ``("agent.call", layer, name)``.  Host (wall-clock) time is used
        because agent handlers burn real CPU the virtual clock never
        sees — this is the same quantity ``bench_ablation_layers``
        measures from the outside.
        """
        if not self.metrics_on:
            return
        keys = self._layer_keys.get((layer, name))
        if keys is None:
            keys = self._layer_keys[(layer, name)] = layer_keys((layer,), name)
        self.metrics.update(keys[0], keys[1], usec)

    # -- convenience reads ----------------------------------------------

    def snapshot(self):
        """The metrics registry snapshot plus ktrace buffer statistics.

        Also exports the kernel fast-path counters (name cache hit/miss
        rates, fast-dispatch traps) so one snapshot answers both "what
        did the workload do" and "what did the kernel's caches do".
        The fast-path counters are plain attributes kept hot-path-cheap;
        they are merely *reported* through the registry snapshot here.
        """
        snap = self.metrics.snapshot()
        snap["ktrace"] = {
            "buffered": len(self.ktrace),
            "dropped": self.ktrace.dropped,
            "total": self.ktrace.total,
            "capacity": self.ktrace.capacity,
        }
        kernel = self.kernel
        cache = kernel.namecache
        snap["namecache"] = (cache.stats() if cache is not None
                             else {"enabled": False})
        snap["fastpath"] = {
            "flags": kernel.fastpaths.describe(),
            "trap_total": kernel.trap_total,
            "trap_fast_total": kernel.trap_fast_total,
            "trap_compiled_total": kernel.trap_compiled_total,
            "down_compiled_total": kernel.down_compiled_total,
        }
        snap["spans"] = (self.spans.counts() if self.spans is not None
                         else {"enabled": False})
        recorder = kernel.recorder
        snap["recorder"] = (recorder.stats() if recorder is not None
                            else {"enabled": False})
        return snap


def enable(kernel, ktrace_capacity=4096, metrics=True, trace_all=False,
           spans=False):
    """Switch observability on for *kernel*; returns the instance.

    Idempotent: an already-enabled kernel keeps its instance (the
    capacity and flags of the existing instance win, except *spans*,
    which is additive: asking for spans on an enabled kernel installs
    an assembler via :meth:`Observability.enable_spans`).
    """
    if kernel.obs is None:
        kernel.obs = Observability(kernel, ktrace_capacity=ktrace_capacity,
                                   metrics=metrics, trace_all=trace_all,
                                   spans=spans)
    elif spans:
        kernel.obs.enable_spans()
    return kernel.obs


def enable_from_spec(kernel, spec):
    """Enable observability from a ``Kernel(obs=...)`` spec string.

    *spec* is a comma-separated feature list: ``"metrics"`` (counters
    and histograms only), ``"trace"`` (plus trace_all into the ring
    buffer), ``"spans"`` (plus causal span assembly), ``"record"``
    (plus a :class:`~repro.obs.recorder.Recorder` in record mode
    installed as ``kernel.recorder`` — read its ``decisions`` after the
    run to write an ``.rrlog``), ``"profile"`` (plus a
    :class:`~repro.obs.profile.Profiler` installed as
    ``kernel.profiler``).  ``True`` means ``"metrics"``; features
    compose (``"trace,spans"``).  Unknown feature names raise
    ``ValueError`` so typos fail loudly at boot.
    """
    if spec is True:
        spec = "metrics"
    features = {part.strip() for part in spec.split(",") if part.strip()}
    unknown = features - {"metrics", "trace", "spans", "record", "profile"}
    if unknown:
        raise ValueError("unknown obs feature(s): %s"
                         % ", ".join(sorted(unknown)))
    obs = enable(kernel, trace_all="trace" in features,
                 spans="spans" in features)
    if "record" in features and kernel.recorder is None:
        from repro.obs.recorder import Recorder

        Recorder().attach(kernel)
    if "profile" in features and kernel.profiler is None:
        from repro.obs.profile import Profiler

        Profiler().attach(kernel)
    return obs


def disable(kernel):
    """Switch observability off; returns the detached instance (or None).

    After this the trap spine is back to the single ``is None`` check —
    the detached instance keeps its collected data for inspection.
    """
    obs = kernel.obs
    kernel.obs = None
    return obs


def is_enabled(kernel):
    """True when *kernel* currently has observability installed."""
    return kernel.obs is not None
