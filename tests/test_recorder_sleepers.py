"""Record/replay with many sleeping processes: the make workload.

make forks 64 children, and most of the 65 processes spend the run
asleep in ``wait4`` or on a pipe, so the recorder's sleep-queue
handoffs carry the run.  Two properties are pinned here:

* record mode wakes the sleep queue only for a sleeper that was
  refused the turn token, so its handoffs stay a small fraction of the
  traps instead of one (or more) per trap;
* a recording of make replays to the same outcome and the same obs
  event stream, consuming every decision, under a plain and a
  three-deep agent stack.
"""

import pytest

from repro.kernel.proc import WEXITSTATUS
from repro.obs.recorder import RECORD, REPLAY, Recorder
from repro.obs.timetravel import META_EVENT_KINDS
from tests.matrix_support import matrix, run_workload

MAKE = matrix.WORKLOADS["make"]


def _run_make(stack, recorder, events=None):
    """Run make under *stack* with *recorder* attached; returns
    ``(kernel, wait status)``."""
    def prepare(kernel):
        if events is not None:
            kernel.obs.bus.subscribe(lambda e: events.append(e.to_tuple()))
        recorder.attach(kernel)

    return run_workload("make", stack, prepare, obs="metrics")


def test_record_wakes_only_refused_sleepers():
    recorder = Recorder(mode=RECORD)
    counts = {"notify": 0, "noop": 0}
    notify, release_grant = recorder._notify_sleepers, recorder.release_grant

    def counted_notify():
        counts["notify"] += 1
        return notify()

    def counted_release_grant(proc):
        counts["noop"] += 1
        return release_grant(proc)

    recorder._notify_sleepers = counted_notify
    recorder.release_grant = counted_release_grant
    kernel, status = _run_make("deep", recorder)
    assert WEXITSTATUS(status) == 0
    traps = kernel.trap_total
    assert traps > 800
    # waking the queue at every release would cost one notification per
    # top-level turn, and each woken sleeper a no-op grant
    assert counts["notify"] < traps / 4, (counts, traps)
    assert counts["noop"] < traps / 4, (counts, traps)


@pytest.mark.parametrize("stack", ["timex", "deep"])
def test_make_replays_bit_identical(stack):
    recorded_events, replayed_events = [], []
    recorder = Recorder(mode=RECORD)
    kernel, status = _run_make(stack, recorder, recorded_events)
    digest = matrix.output_digest(kernel, MAKE.directory)
    assert WEXITSTATUS(status) == 0
    assert kernel.fork_total >= 64

    replayer = Recorder(mode=REPLAY, log=recorder.decisions)
    kernel, replayed_status = _run_make(stack, replayer, replayed_events)
    replayer.raise_divergence()
    assert replayed_status == status
    assert matrix.output_digest(kernel, MAKE.directory) == digest

    def real(events):
        return [e for e in events if e[4] not in META_EVENT_KINDS]

    assert real(replayed_events) == real(recorded_events)
    assert len(real(recorded_events)) > 1000
    assert replayer.position == len(recorder.decisions)
