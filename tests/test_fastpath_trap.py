"""Tests for the dispatch table's kernel rows (repro.kernel.compile).

An uninterposed number's row enters the kernel directly; obs is the
one observer that keeps a trap off it.  These tests pin down the
table's life cycle (rows built on first use, one shared empty-vector
table, a fresh table on ``task_set_emulation``, the shared one again
after ``execve``) and the exact behavioural parity
with the seed slow path (EINVAL wording, signal delivery, error
propagation).
"""

import pytest

from repro.kernel import Kernel
from repro.kernel import signals as sig
from repro.kernel.errno import EBADF, EINVAL, SyscallError
from repro.kernel.proc import WEXITSTATUS
from repro.kernel.sysent import number_of
from repro.kernel.compile import _EMPTY, _TOWER, dispatch_table

NR_GETPID = number_of("getpid")
NR_CLOSE = number_of("close")
NR_SET_EMUL = number_of("task_set_emulation")
NR_SIGVEC = number_of("sigvec")
NR_KILL = number_of("kill")


def run(kernel, entry):
    return WEXITSTATUS(kernel.run_entry(entry))


def test_fast_path_counts_traps():
    k = Kernel()

    def main(ctx):
        for _ in range(5):
            ctx.trap(NR_GETPID)
        return 0

    assert run(k, main) == 0
    assert k.trap_fast_total >= 5
    assert k.trap_fast_total <= k.trap_total


def test_disabled_config_never_fast():
    k = Kernel(fastpaths="none")

    def main(ctx):
        ctx.trap(NR_GETPID)
        assert ctx.proc.dispatch is _TOWER
        return 0

    assert run(k, main) == 0
    assert k.trap_fast_total == 0
    assert k.trap_total >= 1


def test_uninterposed_processes_share_one_table():
    k = Kernel()
    tables = []

    def main(ctx):
        ctx.trap(NR_GETPID)
        tables.append(ctx.proc.dispatch)
        return 0

    assert run(k, main) == 0
    assert run(k, main) == 0
    assert tables[0] is tables[1], "empty-vector tables must be shared"


def test_task_set_emulation_invalidates_table():
    k = Kernel()

    def main(ctx):
        ctx.trap(NR_GETPID)
        full = ctx.proc.dispatch
        assert full is _EMPTY and NR_GETPID in full

        hits = []

        def handler(handler_ctx, number, args):
            hits.append(number)
            return 4242

        ctx.trap(NR_SET_EMUL, [NR_GETPID], handler)
        table = ctx.proc.dispatch
        assert table is not full              # a fresh table
        assert NR_GETPID not in table         # rows are built on use
        before = k.trap_fast_total
        assert ctx.trap(NR_GETPID) == 4242    # redirected, not fast
        assert hits == [NR_GETPID]
        assert k.trap_fast_total == before
        assert NR_GETPID in table

        ctx.trap(NR_SET_EMUL, [NR_GETPID], None)  # remove redirection
        assert ctx.proc.dispatch is full      # empty vector: shared again
        before = k.trap_fast_total
        assert isinstance(ctx.trap(NR_GETPID), int)
        assert k.trap_fast_total == before + 1
        return 0

    assert run(k, main) == 0


def test_interposed_process_still_fast_on_other_numbers():
    k = Kernel()

    def main(ctx):
        ctx.trap(NR_SET_EMUL, [NR_CLOSE], lambda c, n, a: 0)
        before = k.trap_fast_total
        ctx.trap(NR_GETPID)
        assert k.trap_fast_total == before + 1
        return 0

    assert run(k, main) == 0


def test_execve_resets_table():
    from repro.workloads import boot_world

    world = boot_world()
    seen = []

    def probe(ctx, argv, envp):
        # The exec that started this image cleared the emulation vector,
        # so the process must be on the shared empty-vector table.
        seen.append(ctx.proc.dispatch)
        ctx.trap(NR_GETPID)
        seen.append(ctx.proc.dispatch)
        return 0

    world.register_program("probe", probe)
    world.install_binary("/bin/probe", "probe")
    assert WEXITSTATUS(world.run("/bin/probe", ["probe"])) == 0
    assert seen[0] is _EMPTY
    assert seen[1] is _EMPTY


def test_ktrace_flag_keeps_the_kernel_row():
    k = Kernel()

    def main(ctx):
        ctx.trap(NR_GETPID)
        # ktrace installs obs in real flows; the flag alone records
        # nothing, so it must not change the route.
        ctx.proc.ktrace_on = True
        assert k.obs is None
        before = k.trap_fast_total
        ctx.trap(NR_GETPID)
        assert k.trap_fast_total == before + 1
        return 0

    assert run(k, main) == 0


def test_observed_trap_takes_the_fast_row():
    """An observed uninterposed trap takes the kernel row, and obs still
    counts it."""
    from repro import obs

    k = Kernel()
    obs.enable(k)
    counts = []

    def main(ctx):
        before = k.trap_fast_total
        ctx.trap(NR_GETPID)
        counts.append(k.trap_fast_total - before)
        return 0

    assert run(k, main) == 0
    assert counts == [1]
    assert k.obs.metrics.counter(("trap", "getpid")) == 1
    assert k.obs.metrics.counter(("trap.kernel", "getpid")) == 1


def test_einval_message_parity():
    fast = Kernel()
    slow = Kernel(fastpaths="none")
    messages = {}

    def probe(kernel, label):
        def main(ctx):
            try:
                ctx.trap(NR_GETPID, 1, 2, 3, 4, 5)
            except SyscallError as err:
                messages[label] = (err.errno, str(err))
                return 0
            return 1

        assert run(kernel, main) == 0

    probe(fast, "fast")
    probe(slow, "slow")
    assert messages["fast"] == messages["slow"]
    assert messages["fast"][0] == EINVAL


def test_error_parity_on_fast_path():
    fast = Kernel()
    slow = Kernel(fastpaths="none")

    def probe(kernel):
        out = {}

        def main(ctx):
            try:
                ctx.trap(NR_CLOSE, 99)
            except SyscallError as err:
                out["errno"] = err.errno
            return 0

        assert run(kernel, main) == 0
        return out["errno"]

    assert probe(fast) == probe(slow) == EBADF
    assert fast.trap_fast_total >= 1  # errors still count as fast traps


def test_signals_delivered_after_fast_syscall():
    k = Kernel()
    delivered = []

    def main(ctx):
        ctx.trap(NR_SIGVEC, sig.SIGUSR1, lambda s: delivered.append(s), 0)
        ctx.trap(NR_KILL, ctx.proc.pid, sig.SIGUSR1)
        # The kill itself ran on the fast path; its pending signal must
        # have been delivered at that same trap boundary.
        assert delivered == [sig.SIGUSR1]
        return 0

    assert run(k, main) == 0
    assert k.trap_fast_total >= 1


def test_build_fast_dispatch_respects_flag():
    on = Kernel()
    off = Kernel(fastpaths="none")

    def main_on(ctx):
        table = dispatch_table(on, ctx.proc.emulation_vector)
        assert table is _EMPTY
        before = on.trap_fast_total
        table[NR_GETPID](ctx, ())
        assert on.trap_fast_total == before + 1
        return 0

    def main_off(ctx):
        assert dispatch_table(off, ctx.proc.emulation_vector) is _TOWER
        return 0

    assert run(on, main_on) == 0
    assert run(off, main_off) == 0


def test_fork_child_starts_with_lazy_table():
    from repro.workloads import boot_world

    world = boot_world()
    status = world.run("/bin/sh", ["sh", "-c", "echo hi > /tmp/x"])
    assert WEXITSTATUS(status) == 0
    # Children forked along the way all dispatched through the shared
    # fast table; nothing downgraded the kernel to the slow path.
    assert world.trap_fast_total > 0
