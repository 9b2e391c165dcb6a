"""Tests for the observability metrics registry and histograms."""

from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import BUCKET_BOUNDS, Histogram, MetricsRegistry


def test_histogram_observations():
    hist = Histogram()
    for usec in (1, 2, 3, 100, 5000):
        hist.observe(usec)
    assert hist.count == 5
    assert hist.total == 5106
    assert hist.min == 1
    assert hist.max == 5000
    assert abs(hist.mean() - 5106 / 5) < 1e-9


def test_histogram_empty_mean_is_zero():
    assert Histogram().mean() == 0.0


def test_histogram_buckets_are_powers_of_two():
    hist = Histogram()
    hist.observe(1)      # le_1
    hist.observe(2)      # le_2
    hist.observe(3)      # le_4
    hist.observe(2 ** 25)  # beyond the last bound: overflow
    snap = hist.snapshot()
    assert snap["buckets"]["le_1"] == 1
    assert snap["buckets"]["le_2"] == 1
    assert snap["buckets"]["le_4"] == 1
    assert snap["buckets"]["overflow"] == 1
    assert snap["count"] == 4


def test_histogram_merged():
    a, b = Histogram(), Histogram()
    a.observe(1)
    a.observe(10)
    b.observe(100)
    merged = a.merged(b)
    assert merged.count == 3
    assert merged.min == 1
    assert merged.max == 100
    assert merged.total == 111
    # The originals are untouched.
    assert a.count == 2 and b.count == 1


def test_registry_counters():
    reg = MetricsRegistry()
    reg.inc(("trap", "open"))
    reg.inc(("trap", "open"), 2)
    reg.inc(("trap", "read"))
    assert reg.counter(("trap", "open")) == 3
    assert reg.counter(("trap", "read")) == 1
    assert reg.counter(("trap", "close")) == 0
    assert reg.counter(("trap", "close"), default=-1) == -1


def test_registry_group_unwraps_single_label():
    reg = MetricsRegistry()
    reg.inc(("trap", "open"), 3)
    reg.inc(("trap", "read"), 1)
    reg.inc(("trap.error", "open", "ENOENT"), 2)
    assert reg.group("trap") == {"open": 3, "read": 1}
    # Two remaining labels stay a tuple.
    assert reg.group("trap.error") == {("open", "ENOENT"): 2}


def test_registry_histogram_group_label_len():
    reg = MetricsRegistry()
    reg.observe(("layer.usec", "symbolic"), 10)
    reg.observe(("layer.usec", "symbolic", "open"), 10)
    all_keys = reg.histogram_group("layer.usec")
    assert set(all_keys) == {"symbolic", ("symbolic", "open")}
    only_layer = reg.histogram_group("layer.usec", label_len=1)
    assert set(only_layer) == {"symbolic"}


def test_registry_snapshot_is_jsonable():
    import json

    reg = MetricsRegistry()
    reg.inc(("trap", "open"))
    reg.observe(("trap.vusec", "open"), 100)
    snap = reg.snapshot()
    assert snap["counters"] == {"trap|open": 1}
    assert snap["histograms"]["trap.vusec|open"]["count"] == 1
    json.dumps(snap)  # must not raise


def test_registry_clear():
    reg = MetricsRegistry()
    reg.inc(("trap", "open"))
    reg.observe(("trap.vusec", "open"), 1)
    reg.clear()
    assert reg.snapshot() == {"counters": {}, "histograms": {}}


def test_bucket_bounds_shape():
    assert BUCKET_BOUNDS[0] == 1
    assert all(b == 2 * a for a, b in zip(BUCKET_BOUNDS, BUCKET_BOUNDS[1:]))


def _linear_bucket(usec):
    """The bucket index by a scan of the bounds: the first bound at or
    above *usec*, else the overflow bucket."""
    index = 0
    for bound in BUCKET_BOUNDS:
        if usec <= bound:
            break
        index += 1
    return index


def _bucket_of(usec):
    hist = Histogram()
    hist.observe(usec)
    return hist.counts.index(1)


_EDGES = [0, 0.5] + [edge for bound in BUCKET_BOUNDS
                     for edge in (bound - 1, bound - 0.001, bound,
                                  bound + 0.001, bound + 1)]


@given(st.one_of(
    st.sampled_from(_EDGES),
    st.integers(min_value=0, max_value=2 ** 40),
    st.floats(min_value=0, max_value=2.0 ** 40, allow_nan=False),
    st.floats(min_value=2.0 ** 20, allow_nan=False, allow_infinity=True)))
def test_bucket_index_matches_linear_scan(usec):
    assert _bucket_of(usec) == _linear_bucket(usec)


def test_bucket_edges_match_linear_scan():
    for usec in _EDGES:
        assert _bucket_of(usec) == _linear_bucket(usec), usec


def test_registry_update_batches_counters_and_histograms():
    reg = MetricsRegistry()
    reg.update((("a",), ("b", "x")), (("h",), ("h", "x")), 3)
    reg.update((("a",),), (("h",),), 5)
    assert reg.counter(("a",)) == 2
    assert reg.counter(("b", "x")) == 1
    assert reg.histogram(("h",)).count == 2
    assert reg.histogram(("h",)).total == 8
    assert reg.histogram(("h", "x")).count == 1
