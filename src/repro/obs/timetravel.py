"""Time-travel debugging drivers: record, replay, compare, bisect.

This module glues the chaos harness (:mod:`repro.workloads.chaos`) to
the :class:`~repro.obs.recorder.Recorder`: one function records a
seeded scenario into a decision log, one re-executes the log and checks
bit-for-bit fidelity, and one bisects over the recorded fault-site
firings to name the first injection without which the outcome changes.

The fidelity criterion is deliberately external to the recorder: a
replay is *bit-identical* when the full observability event stream
(every ``Event.to_tuple()`` published on the bus, recorder meta events
filtered out) and the scenario report (outcome, status, fault counts,
invariant walk) are equal to the recording's.  The recorder enforces
the total order; these drivers check that enforcing it reproduces the
world.
"""

from repro.obs import events as ev
from repro.obs.recorder import RECORD, REPLAY, Recorder
from repro.workloads.chaos import run_scenario

#: events about the recorder itself — emitted by whichever mode is
#: running, so they are filtered before record/replay streams are
#: compared (both modes emit exactly one at attach, keeping the
#: sequence numbers of every real event aligned)
META_EVENT_KINDS = frozenset(
    {ev.RECORD_START, ev.RECORD_STOP, ev.REPLAY_DIVERGE})


def scenario_meta(seed, policy="fail-open", mechanism="wrapper",
                  workload="files", agent_rate=0.05, site_rate=0.01):
    """The ``.rrlog`` meta block naming a scenario (string values)."""
    return {
        "seed": str(seed),
        "policy": policy,
        "mechanism": mechanism,
        "workload": workload,
        "agent_rate": repr(float(agent_rate)),
        "site_rate": repr(float(site_rate)),
    }


def scenario_kwargs(meta):
    """Parse an ``.rrlog`` meta block back into run_scenario arguments."""
    try:
        return {
            "seed": int(meta["seed"]),
            "policy": meta["policy"],
            "mechanism": meta["mechanism"],
            "workload": meta["workload"],
            "agent_rate": float(meta["agent_rate"]),
            "site_rate": float(meta["site_rate"]),
        }
    except KeyError as err:
        raise ValueError("rrlog meta is missing key %s" % (err,))


class RunResult:
    """One recorded or replayed scenario: report + recorder + events."""

    def __init__(self, report, recorder, events, meta):
        self.report = report
        self.recorder = recorder
        #: the filtered event stream (tuples, recorder meta events out)
        self.events = events
        self.meta = meta
        #: traps that took a compiled entry chain, and downcalls that
        #: took a compiled downcall chain (the route counters)
        self.compiled = 0
        self.down = 0

    @property
    def decisions(self):
        return self.recorder.decisions

    def signature(self):
        """The outcome fingerprint bisection compares across replays."""
        report = self.report
        return (report.outcome, report.status, report.passed,
                tuple(sorted(report.violations)))


def _drive(recorder, meta, timeout):
    """Run the scenario named by *meta* with *recorder* installed."""
    events = []
    kernels = []

    def on_boot(kernel):
        kernels.append(kernel)
        kernel.obs.bus.subscribe(lambda e: events.append(e.to_tuple()))
        recorder.attach(kernel)

    report = run_scenario(timeout=timeout, obs="metrics",
                          on_boot=on_boot, **scenario_kwargs(meta))
    filtered = [t for t in events if t[4] not in META_EVENT_KINDS]
    result = RunResult(report, recorder, filtered, dict(meta))
    result.compiled = kernels[0].trap_compiled_total
    result.down = kernels[0].down_compiled_total
    return result


def record_run(seed, policy="fail-open", mechanism="wrapper",
               workload="files", agent_rate=0.05, site_rate=0.01,
               timeout=60.0):
    """Record one seeded scenario; returns a :class:`RunResult`.

    ``result.decisions`` plus ``result.meta`` are everything
    :func:`repro.obs.rrlog.write_file` needs to persist the run.
    """
    meta = scenario_meta(seed, policy, mechanism, workload,
                         agent_rate, site_rate)
    return _drive(Recorder(mode=RECORD), meta, timeout)


def replay_run(meta, decisions, flip_fault=None, strict=True,
               timeout=60.0, stall_seconds=10.0):
    """Re-execute a recorded scenario; returns a :class:`RunResult`.

    With *strict* (the default) a :class:`ReplayDivergence` detected
    during the run is raised after the world has drained — the recorder
    goes passive at the moment of divergence so threads free-run to
    completion instead of deadlocking, and the structured exception
    surfaces here.  *flip_fault* passes the bisect probe through (a
    flip is deliberate, never a divergence, and never strict-raised).
    """
    recorder = Recorder(mode=REPLAY, log=decisions, flip_fault=flip_fault,
                        stall_seconds=stall_seconds)
    result = _drive(recorder, meta, timeout)
    if strict and flip_fault is None:
        recorder.raise_divergence()
    return result


def compare_runs(recorded, replayed):
    """Differences between a recording and its replay (empty = faithful).

    Compares the filtered event streams element by element, then the
    scenario reports — the determinism proof the tests and the CI
    replay-smoke job assert on.
    """
    differences = []
    a, b = recorded.events, replayed.events
    if len(a) != len(b):
        differences.append("event count: recorded %d, replayed %d"
                           % (len(a), len(b)))
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            differences.append("event %d: recorded %r, replayed %r"
                               % (i, x, y))
            break
    ra, rb = recorded.report.to_dict(), replayed.report.to_dict()
    for key in sorted(set(ra) | set(rb)):
        if ra.get(key) != rb.get(key):
            differences.append("report[%r]: recorded %r, replayed %r"
                               % (key, ra.get(key), rb.get(key)))
    residual = len(replayed.recorder.decisions) - replayed.recorder.position
    if replayed.recorder.divergence is None and residual:
        differences.append("%d recorded decision(s) never consumed"
                           % residual)
    return differences


def verify_roundtrip(seed, policy="fail-open", mechanism="wrapper",
                     workload="files", agent_rate=0.05, site_rate=0.01,
                     timeout=60.0):
    """Record a scenario, replay it, and demand bit-identity.

    Returns ``(recorded, replayed)`` on success; raises
    :class:`ReplayDivergence` (replay departed mid-run) or
    :class:`AssertionError` (streams or reports differ) otherwise.
    """
    recorded = record_run(seed, policy, mechanism, workload,
                          agent_rate, site_rate, timeout=timeout)
    replayed = replay_run(recorded.meta, recorded.decisions,
                          timeout=timeout)
    differences = compare_runs(recorded, replayed)
    if differences:
        raise AssertionError("replay not bit-identical:\n  "
                             + "\n  ".join(differences))
    return recorded, replayed


class BisectResult:
    """Which recorded fault-site firing first changes the outcome."""

    def __init__(self, index, decision, position, baseline, flipped):
        #: 0-based index among ``F`` decisions, or -1 when no flip
        #: changed anything
        self.index = index
        #: the flipped :class:`~repro.obs.rrlog.Decision` (None at -1)
        self.decision = decision
        #: its position in the full decision log (-1 when not found)
        self.position = position
        self.baseline = baseline
        self.flipped = flipped

    @property
    def found(self):
        return self.index >= 0

    def __repr__(self):
        if not self.found:
            return "<BisectResult no fault changes the outcome>"
        return ("<BisectResult fault #%d (%s) at decision %d: %r -> %r>"
                % (self.index, self.decision.value, self.position,
                   self.baseline, self.flipped))


def bisect_run(meta, decisions, timeout=60.0, progress=None):
    """Find the first fault injection the recorded failure depends on.

    Replays the log once faithfully to establish the baseline outcome
    signature, then replays once per recorded ``F`` decision with that
    firing suppressed (``flip_fault=i``): the first flip whose outcome
    signature differs from the baseline is the earliest injection the
    failure needs.  Linear in the fault count — fault streams are short
    even when decision logs are long.  *progress*, when given, is
    called with a one-line status string per replay.
    """
    fault_positions = [i for i, d in enumerate(decisions) if d.kind == "F"]
    baseline = replay_run(meta, decisions, strict=False, timeout=timeout)
    base_sig = baseline.signature()
    if progress is not None:
        progress("baseline replay: %r over %d fault firing(s)"
                 % (base_sig, len(fault_positions)))
    for index, position in enumerate(fault_positions):
        flipped = replay_run(meta, decisions, flip_fault=index,
                             strict=False, timeout=timeout)
        flip_sig = flipped.signature()
        if progress is not None:
            progress("flip %d (%s): %r" % (index, decisions[position].value,
                                           flip_sig))
        if flip_sig != base_sig:
            return BisectResult(index, decisions[position], position,
                                base_sig, flip_sig)
    return BisectResult(-1, None, -1, base_sig, base_sig)
