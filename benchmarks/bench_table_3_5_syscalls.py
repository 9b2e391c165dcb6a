"""Table 3-5: per-system-call cost without and with a pass-through agent.

Paper (25 MHz i486; pathnames have 6 components in a UFS filesystem;
the agent is time_symbolic, which decodes each call and takes the
default action):

    operation                 no agent   with agent   overhead
    getpid()                     25         165          140
    gettimeofday()               47         201          154
    fstat()                     128         320          192
    read() 1K of data           370         512          142
    stat()                      892        1056          164
    fork(), wait(), _exit()    9400       19400        10000
    execve()                   9600       19900        10300

Shape targets: the interception overhead is roughly constant across the
cheap calls (so its *relative* cost is huge for getpid and modest for
stat/read), while fork and execve under an agent cost several times
their cheap-call overhead (bookkeeping and the toolkit's execve
reimplementation).

The table is printed in microseconds, but the shape is checked on
Python calls per operation, counted on every thread by a profile hook
(the unit of perfbench's ``calls.*`` metrics).  On this substrate a
cheap call's interception overhead is under a microsecond, below the
host clock's run-to-run noise; the call count does not vary.
"""

import itertools
import sys
import threading
from contextlib import nullcontext

from repro.agents.time_symbolic import TimeSymbolic
from repro.bench.timing import usec_per_call
from repro.kernel.ofile import O_CREAT, O_RDONLY, O_TRUNC, O_WRONLY, SEEK_SET
from repro.kernel.sysent import number_of
from repro.kernel.trap import UserContext
from repro.workloads import boot_world

NR = {
    name: number_of(name)
    for name in (
        "getpid", "gettimeofday", "fstat", "read", "lseek", "stat",
        "open", "write", "close", "fork", "wait", "execve",
    )
}

#: a 6-component pathname in the (simulated) UFS filesystem, as measured
SIX_COMPONENT_PATH = "/usr/lib/scribe/bench/data/measured.txt"


def _setup_context(with_agent):
    kernel = boot_world()
    kernel.mkdir_p("/usr/lib/scribe/bench/data")
    kernel.write_file(SIX_COMPONENT_PATH, b"x" * 4096)
    proc = kernel._create_initial_process()
    ctx = UserContext(kernel, proc)
    if with_agent:
        agent = TimeSymbolic()
        agent.attach(ctx)
    read_fd = ctx.htg(NR["open"], SIX_COMPONENT_PATH, O_RDONLY, 0)
    return kernel, ctx, read_fd


#: the row measured to difference out execve()
_FORK_EXEC = "fork(), execve(), wait()"


def _operations(ctx, fd):
    """[(row, one iteration, traps per iteration, timing batch)]."""
    trap = ctx.trap

    def read_1k():
        trap(NR["lseek"], fd, 0, SEEK_SET)
        trap(NR["read"], fd, 1024)

    def fork_wait_exit():
        trap(NR["fork"], None)  # the child just _exits
        trap(NR["wait"])

    def fork_exec_wait():
        trap(NR["fork"], lambda cctx: cctx.trap(NR["execve"], "/bin/true", ["true"], {}))
        trap(NR["wait"])

    cheap, forks = {"calls": 1500}, {"calls": 60, "repeats": 3}
    return [
        ("getpid()", lambda: trap(NR["getpid"]), 1, cheap),
        ("gettimeofday()", lambda: trap(NR["gettimeofday"]), 1, cheap),
        ("fstat()", lambda: trap(NR["fstat"], fd), 1, cheap),
        ("read() 1K of data", read_1k, 2, cheap),
        ("stat()", lambda: trap(NR["stat"], SIX_COMPONENT_PATH), 1, cheap),
        ("fork(), wait(), _exit()", fork_wait_exit, 1, forks),
        (_FORK_EXEC, fork_exec_wait, 1, forks),
    ]


class _CallCounter:
    """Python calls on every thread while installed: a profile hook on
    the current thread and on every thread started meanwhile."""

    def __init__(self):
        self._calls = itertools.count()

    def _hook(self, frame, event, arg):
        if event == "call":
            next(self._calls)

    def __enter__(self):
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        threading.setprofile(None)
        return False

    def per_call(self, fn, iterations=20):
        """Calls per invocation of *fn*, after one warm-up invocation
        (first-use row builds, the first host thread)."""
        fn()
        start = next(self._calls)
        for _ in range(iterations):
            fn()
        return (next(self._calls) - start - 1) / iterations


def measure(with_agent, counted=False):
    """{row: cost} for one column of the table: microseconds per call,
    or with *counted* the Python calls per call on every thread.

    execve() is the fork+execve+wait row less the fork+wait+_exit row.
    """
    counter = _CallCounter() if counted else nullcontext()
    # Counting starts before the world boots, so that every host thread
    # the world starts carries the hook.
    with counter:
        kernel, ctx, fd = _setup_context(with_agent)
        results = {}
        for row, op, traps, batch in _operations(ctx, fd):
            cost = (counter.per_call(op) if counted
                    else usec_per_call(op, **batch))
            results[row] = cost / traps
    results["execve()"] = max(
        0.0, results.pop(_FORK_EXEC) - results["fork(), wait(), _exit()"]
    )
    return results


def rows(counted=False):
    """(operation, without, with, overhead) rows, in microseconds or,
    with *counted*, in Python calls."""
    without = measure(with_agent=False, counted=counted)
    with_agent = measure(with_agent=True, counted=counted)
    return [
        (op, without[op], with_agent[op], with_agent[op] - without[op])
        for op in without
    ]


def print_table():
    for title, counted in (("usec", False), ("Python calls", True)):
        print("Table 3-5: per-system-call costs (%s)" % title)
        print("%-26s %10s %10s %10s"
              % ("operation", "no agent", "agent", "overhead"))
        for op, base, agented, overhead in rows(counted):
            print("%-26s %10.1f %10.1f %10.1f" % (op, base, agented, overhead))


def test_syscall_costs(benchmark):
    usec, table = benchmark.pedantic(
        lambda: (rows(), rows(counted=True)), rounds=1, iterations=1)
    by_op = {row[0]: row for row in table}
    cheap_ops = ["getpid()", "gettimeofday()", "fstat()", "read() 1K of data"]
    overheads = [by_op[op][3] for op in cheap_ops]
    # Interception overhead is positive and same-order across cheap calls.
    assert all(o > 0 for o in overheads), overheads
    assert max(overheads) < 12 * min(o for o in overheads if o > 0)
    # Relative cost is far larger for getpid than for stat.
    getpid_ratio = by_op["getpid()"][2] / by_op["getpid()"][1]
    stat_ratio = by_op["stat()"][2] / by_op["stat()"][1]
    assert getpid_ratio > stat_ratio
    # The toolkit's reimplemented execve costs many times a cheap call's
    # interception overhead (the paper's fork/execve "roughly doubling").
    assert by_op["execve()"][3] > 4 * by_op["getpid()"][3]
    assert by_op["fork(), wait(), _exit()"][1] > 10 * by_op["getpid()"][1]
    for (op, base, agented, overhead), counts in zip(usec, table):
        benchmark.extra_info[op] = {
            "no_agent": round(base, 2),
            "agent": round(agented, 2),
            "overhead": round(overhead, 2),
            "calls": [round(value, 1) for value in counts[1:]],
        }


if __name__ == "__main__":
    print_table()
