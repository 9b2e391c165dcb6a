"""Tests for the host threads simulated processes run on
(repro.kernel.proc.HostThreads).

A kernel reuses a parked host thread for each new process and starts
a thread only when none is parked, so a workload starts about as many
threads as it has processes alive at once.  These tests pin that
count on the benchmark's make, that no thread outlives a run (or,
without a run, the idle timeout), that a worker lets go of the
process it ran, and that a stuck process still fails the join by pid.
"""

import gc
import sys
import threading
import time
import weakref

import pytest

from repro.kernel import proc as procmod
from repro.kernel.proc import WEXITSTATUS
from repro.kernel.sysent import number_of
from repro.kernel.trap import UserContext
from repro.workloads import boot_world
from tests.matrix_support import run_workload

NR = {n: number_of(n) for n in ("fork", "wait", "getpid")}


def _new_threads(before):
    return set(threading.enumerate()) - before


def _settle(before, seconds):
    deadline = time.monotonic() + seconds
    while _new_threads(before) and time.monotonic() < deadline:
        time.sleep(0.01)
    return _new_threads(before)


@pytest.mark.parametrize("stack", ["none", "deep"])
def test_make_reuses_host_threads(stack):
    kernel, status = run_workload("make", stack)
    assert WEXITSTATUS(status) == 0
    assert kernel.fork_total == 64
    # 65 processes, at most 5 of them alive at once
    assert 1 <= kernel.host_threads.started <= 8


def test_run_leaves_no_thread_behind():
    before = set(threading.enumerate())
    world = boot_world()
    status = world.run("/bin/sh", ["sh", "-c", "echo a | cat | wc; true"])
    assert WEXITSTATUS(status) == 0
    assert world.host_threads.started >= 3  # the pipeline ran at once
    assert _new_threads(before) == set()


def test_run_entry_leaves_no_thread_behind():
    before = set(threading.enumerate())
    world = boot_world()

    def main(ctx):
        for _ in range(3):
            ctx.trap(NR["fork"], lambda child: 0)
            ctx.trap(NR["wait"])
        return 0

    assert WEXITSTATUS(world.run_entry(main)) == 0
    assert _new_threads(before) == set()
    # a second run on the same kernel starts its threads afresh
    assert WEXITSTATUS(world.run_entry(main)) == 0
    assert _new_threads(before) == set()


def test_unjoined_world_threads_exit_after_the_idle_timeout(monkeypatch):
    # A world that forks from the host and never runs (as the Table 3-5
    # benchmark does) has no join to retire its threads.
    monkeypatch.setattr(procmod, "IDLE_SECONDS", 0.05)
    before = set(threading.enumerate())
    world = boot_world()
    ctx = UserContext(world, world._create_initial_process())
    for _ in range(3):
        ctx.trap(NR["fork"], lambda child: 0)
        ctx.trap(NR["wait"])
    assert _settle(before, 10) == set()
    # a fork after every thread timed out starts a new one
    started = world.host_threads.started
    ctx.trap(NR["fork"], lambda child: 0)
    ctx.trap(NR["wait"])
    assert world.host_threads.started == started + 1
    assert _settle(before, 10) == set()


def test_hand_offs_racing_the_idle_timeout_all_run(monkeypatch):
    # With a timeout near the fork/wait period and a short switch
    # interval, parked threads time out while forks hand them work, and
    # more processes run at once than there are CPUs; every child must
    # still run exactly once and exit.
    monkeypatch.setattr(procmod, "IDLE_SECONDS", 0.0005)
    before = set(threading.enumerate())
    world = boot_world()
    ctx = UserContext(world, world._create_initial_process())
    ran = []

    def child(i):
        def entry(child_ctx):
            child_ctx.trap(NR["getpid"])
            ran.append(i)
            return 0
        return entry

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for batch in range(40):
            for i in range(batch * 6, batch * 6 + 6):
                ctx.trap(NR["fork"], child(i))
            for _ in range(6):
                ctx.trap(NR["wait"])
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == list(range(240))
    assert _settle(before, 10) == set()


def test_parked_thread_drops_the_finished_process():
    world = boot_world()
    ctx = UserContext(world, world._create_initial_process())

    class Entry:
        def __call__(self, child):
            return 0

    entry = Entry()
    gone = weakref.ref(entry)
    ctx.trap(NR["fork"], entry)
    del entry
    ctx.trap(NR["wait"])
    deadline = time.monotonic() + 10
    while not world.host_threads._idle and time.monotonic() < deadline:
        time.sleep(0.001)
    assert world.host_threads._idle
    gc.collect()
    assert gone() is None, "the parked thread still holds the child's entry"
    world.host_threads.retire()


def test_stuck_process_fails_the_join_by_pid():
    world = boot_world()
    release = threading.Event()
    stuck = []

    def child(ctx):
        # blocks on the host, outside any kernel sleep
        stuck.append(ctx.proc)
        release.wait(30)
        return 0

    def main(ctx):
        ctx.trap(NR["fork"], child)
        return 0

    with pytest.raises(RuntimeError,
                       match=r"simulated process pid2 did not exit"):
        world.run_entry(main, timeout=0.2)
    handle = stuck[0].thread
    assert handle.name == "pid2"
    assert handle.is_alive()
    release.set()
    handle.join(10)
    assert not handle.is_alive()
    world.host_threads.retire()
