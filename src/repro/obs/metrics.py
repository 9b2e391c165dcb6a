"""Counters and latency histograms for per-syscall / per-layer cost.

The registry is the in-band, runtime version of the paper's cost
attribution: counters keyed by tuples like ``("trap", "open")`` and
histograms of virtual-clock (or host wall-clock) microseconds keyed by
``("trap.vusec", "open")`` or ``("layer.usec", "symbolic")``.  Keys are
plain tuples whose first element names the metric and whose remaining
elements are labels (syscall name, pid, toolkit layer), so consumers can
slice with :meth:`MetricsRegistry.group` without a query language.

Well-known keys emitted by the kernel instrumentation are documented in
``docs/OBSERVABILITY.md``.
"""

import threading
from bisect import bisect_left

#: histogram bucket upper bounds in microseconds (powers of two); one
#: overflow bucket is kept beyond the last bound
BUCKET_BOUNDS = tuple(2 ** i for i in range(21))


def layer_keys(layers, name):
    """The metric keys that attribute one call *name* to each of *layers*.

    Returns ``(counters, observed)`` for :meth:`MetricsRegistry.update`:
    the ``("agent.call", layer, name)`` counters and the
    ``("layer.usec", layer)`` / ``("layer.usec", layer, name)``
    histograms, in the order of *layers*.  A compiled chain resolves
    them once for the layers it collapses (see
    :mod:`repro.kernel.compile`), and
    :meth:`~repro.obs.core.Observability.layer_usec` caches them per
    layer and call.
    """
    counters = tuple(("agent.call", layer, name) for layer in layers)
    observed = tuple(key for layer in layers
                     for key in (("layer.usec", layer),
                                 ("layer.usec", layer, name)))
    return counters, observed


class Histogram:
    """A fixed-bucket latency histogram over microsecond observations."""

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self):
        self.counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, usec):
        """Record one observation of *usec* microseconds."""
        # The first bound >= usec; past the last bound, the overflow.
        self.counts[bisect_left(BUCKET_BOUNDS, usec)] += 1
        self.count += 1
        self.total += usec
        if self.min is None or usec < self.min:
            self.min = usec
        if self.max is None or usec > self.max:
            self.max = usec

    def mean(self):
        """The mean observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def merged(self, other):
        """A new histogram combining this one with *other*."""
        out = Histogram()
        out.counts = [a + b for a, b in zip(self.counts, other.counts)]
        out.count = self.count + other.count
        out.total = self.total + other.total
        mins = [m for m in (self.min, other.min) if m is not None]
        maxs = [m for m in (self.max, other.max) if m is not None]
        out.min = min(mins) if mins else None
        out.max = max(maxs) if maxs else None
        return out

    def snapshot(self):
        """The histogram as a plain dict (for the exporters)."""
        buckets = {}
        for bound, count in zip(BUCKET_BOUNDS, self.counts):
            if count:
                buckets["le_%d" % bound] = count
        if self.counts[-1]:
            buckets["overflow"] = self.counts[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean(),
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Tuple-keyed counters and histograms, safe across kernel threads.

    Simulated processes run on host threads, so updates take a small
    internal lock; the lock is a leaf (the registry never calls out),
    which keeps it safe to update from under the kernel lock and from
    the lock-free trap path alike.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.counters = {}
        self.histograms = {}

    # -- updates ---------------------------------------------------------

    def inc(self, key, n=1):
        """Add *n* to the counter at *key* (a tuple)."""
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + n

    def observe(self, key, usec):
        """Record *usec* in the histogram at *key* (a tuple)."""
        with self._lock:
            hist = self.histograms.get(key)
            if hist is None:
                hist = self.histograms[key] = Histogram()
            hist.observe(usec)

    def update(self, counters=(), observed=(), usec=0):
        """Add one to each counter key in *counters* and record *usec* in
        each histogram key in *observed*, taking the lock once.

        The per-call batch of the instrumented paths: a trap's three
        counters, or every layer a compiled chain collapses.
        """
        with self._lock:
            counts = self.counters
            for key in counters:
                counts[key] = counts.get(key, 0) + 1
            histograms = self.histograms
            for key in observed:
                hist = histograms.get(key)
                if hist is None:
                    hist = histograms[key] = Histogram()
                hist.observe(usec)

    # -- reads -----------------------------------------------------------

    def counter(self, key, default=0):
        """The counter value at *key* (or *default*)."""
        with self._lock:
            return self.counters.get(key, default)

    def histogram(self, key):
        """The histogram at *key* (or ``None``)."""
        with self._lock:
            return self.histograms.get(key)

    def group(self, metric):
        """Counters under *metric*, keyed by their remaining labels.

        A single remaining label is unwrapped (``("calls", "open")``
        appears as ``"open"``); multiple labels stay a tuple.
        """
        out = {}
        with self._lock:
            for key, value in self.counters.items():
                if key and key[0] == metric:
                    rest = key[1:]
                    out[rest[0] if len(rest) == 1 else rest] = value
        return out

    def histogram_group(self, metric, label_len=None):
        """Histograms under *metric*, keyed by their remaining labels.

        *label_len* restricts to keys with exactly that many labels
        (useful when a metric is recorded at several aggregation
        levels, like ``("layer.usec", layer)`` and
        ``("layer.usec", layer, name)``).
        """
        out = {}
        with self._lock:
            for key, hist in self.histograms.items():
                if not key or key[0] != metric:
                    continue
                rest = key[1:]
                if label_len is not None and len(rest) != label_len:
                    continue
                out[rest[0] if len(rest) == 1 else rest] = hist
        return out

    def snapshot(self):
        """Every counter and histogram as one plain, JSON-able dict.

        Tuple keys are joined with ``|`` (``("trap", "open")`` becomes
        ``"trap|open"``).
        """
        with self._lock:
            counters = {
                "|".join(str(part) for part in key): value
                for key, value in self.counters.items()
            }
            histograms = {
                "|".join(str(part) for part in key): hist.snapshot()
                for key, hist in self.histograms.items()
            }
        return {"counters": counters, "histograms": histograms}

    def clear(self):
        """Drop every counter and histogram."""
        with self._lock:
            self.counters.clear()
            self.histograms.clear()
