"""Tests for the toolkit boilerplate: attach, chaining, reexec, loader."""

import pytest

from repro.kernel import signals as sig
from repro.kernel.errno import ENOENT, ENOEXEC, SyscallError
from repro.kernel.ofile import F_SETFD, FD_CLOEXEC, O_RDONLY
from repro.kernel.proc import WEXITSTATUS
from repro.kernel.sysent import number_of
from repro.toolkit import run_under_agent
from repro.toolkit.boilerplate import Agent
from repro.toolkit.symbolic import SymbolicSyscall

NR_GETPID = number_of("getpid")
NR_GETTIMEOFDAY = number_of("gettimeofday")
NR_OPEN = number_of("open")
NR_FCNTL = number_of("fcntl")
NR_SIGVEC = number_of("sigvec")
NR_KILL = number_of("kill")
NR_TASK_GET_SIGNALS = number_of("task_get_signals")


class CountingAgent(Agent):
    """Counts interceptions of getpid, passing the call through."""

    def __init__(self):
        super().__init__()
        self.count = 0

    def init(self, agentargv):
        self.register_interest(NR_GETPID)

    def handle_syscall(self, number, args):
        self.count += 1
        return self.syscall_down_numeric(number, args)


def test_attach_and_intercept(world):
    agent = CountingAgent()

    def main(ctx):
        agent.attach(ctx)
        pid = ctx.trap(NR_GETPID)
        assert pid == ctx.proc.pid
        return 0

    assert WEXITSTATUS(world.run_entry(main)) == 0
    assert agent.count == 1


def test_unregister_interest(world):
    agent = CountingAgent()

    def main(ctx):
        agent.attach(ctx)
        ctx.trap(NR_GETPID)
        agent.unregister_interest([NR_GETPID])
        ctx.trap(NR_GETPID)
        return 0

    world.run_entry(main)
    assert agent.count == 1


def test_register_range(world):
    hits = []

    class RangeAgent(Agent):
        def init(self, agentargv):
            self.register_interest_range(20, 25)

        def handle_syscall(self, number, args):
            hits.append(number)
            return self.syscall_down_numeric(number, args)

    def main(ctx):
        RangeAgent().attach(ctx)
        ctx.trap(NR_GETPID)  # 20: in range
        ctx.trap(number_of("getuid"))  # 24: in range
        ctx.trap(number_of("getpgrp"))  # 81: out of range
        return 0

    world.run_entry(main)
    assert hits == [20, 24]


def test_agent_stacking_chains_downcalls(world):
    """Two stacked agents: the upper's downcall goes to the lower."""

    class Adder(Agent):
        def __init__(self, amount):
            super().__init__()
            self.amount = amount

        def init(self, agentargv):
            self.register_interest(NR_GETPID)

        def handle_syscall(self, number, args):
            return self.syscall_down_numeric(number, args) + self.amount

    def main(ctx):
        lower = Adder(1)
        upper = Adder(10)
        lower.attach(ctx)
        upper.attach(ctx)
        assert ctx.trap(NR_GETPID) == ctx.proc.pid + 11
        # htg bypasses both.
        assert ctx.htg(NR_GETPID) == ctx.proc.pid
        return 0

    assert WEXITSTATUS(world.run_entry(main)) == 0


def test_reexec_preserves_interception(world):
    agent = CountingAgent()
    status = run_under_agent(world, agent, "/bin/sh", ["sh", "-c", "echo alive"])
    assert WEXITSTATUS(status) == 0
    assert "alive" in world.console.take_output().decode()


def test_reexec_validates_before_teardown(world):
    """A failed exec must leave descriptors and handlers intact."""

    def main(ctx):
        agent = CountingAgent()
        agent.attach(ctx)
        fd = ctx.trap(NR_OPEN, "/etc/passwd", O_RDONLY, 0)
        ctx.trap(NR_FCNTL, fd, F_SETFD, FD_CLOEXEC)
        handler = lambda s: None  # noqa: E731
        ctx.trap(NR_SIGVEC, sig.SIGTERM, handler, 0)
        try:
            agent.reexec("/no/such/binary", ["x"], {})
        except SyscallError as err:
            assert err.errno == ENOENT
        # Descriptor still open (teardown did not begin).
        assert ctx.trap(number_of("read"), fd, 1) == b"r"
        assert ctx.proc.dispositions[sig.SIGTERM].handler is handler
        return 0

    assert WEXITSTATUS(world.run_entry(main)) == 0


def test_reexec_closes_cloexec_and_resets_handlers(world):
    state = {}

    def checker(ctx, argv, envp):
        from repro.kernel.errno import EBADF

        try:
            ctx.trap(number_of("read"), 3, 1)
            state["fd3"] = "open"
        except SyscallError as err:
            state["fd3"] = "closed" if err.errno == EBADF else "?"
        state["term"] = ctx.proc.dispositions[sig.SIGTERM].handler
        state["usr1"] = ctx.proc.dispositions[sig.SIGUSR1].handler
        state["vector_size"] = len(ctx.proc.emulation_vector)
        return 0

    world.register_program("reexec-checker", checker)
    world.install_binary("/bin/reexec-checker", "reexec-checker")

    def main(ctx):
        agent = CountingAgent()
        agent.attach(ctx)
        fd = ctx.trap(NR_OPEN, "/etc/passwd", O_RDONLY, 0)
        assert fd == 3
        ctx.trap(NR_FCNTL, fd, F_SETFD, FD_CLOEXEC)
        ctx.trap(NR_SIGVEC, sig.SIGTERM, lambda s: None, 0)
        ctx.trap(NR_SIGVEC, sig.SIGUSR1, sig.SIG_IGN, 0)
        agent.reexec("/bin/reexec-checker", ["reexec-checker"], {})

    world.run_entry(main)
    assert state["fd3"] == "closed"
    assert state["term"] == sig.SIG_DFL
    assert state["usr1"] == sig.SIG_IGN
    assert state["vector_size"] == 1  # the agent survived


class SigvecCounter(SymbolicSyscall):
    """Counts the sigvec calls that reach it, passing them through."""

    def __init__(self):
        super().__init__()
        self.sigvecs = 0

    def sys_sigvec(self, signum, handler, mask=0):
        self.sigvecs += 1
        return super().sys_sigvec(signum, handler, mask)


def test_reexec_resets_only_non_default_dispositions(world):
    """The toolkit exec asks the kernel which dispositions are not
    SIG_DFL and resets only those: one sigvec per caught handler, two
    per ignored signal (reset, then ignored again), none for the rest —
    with what an agent below sees, and what the new image finds, as
    before."""
    state = {}

    def checker(ctx, argv, envp):
        proc = ctx.proc
        state["handlers"] = {signum: proc.dispositions[signum].handler
                             for signum in (sig.SIGTERM, sig.SIGHUP,
                                            sig.SIGUSR1, sig.SIGUSR2)}
        state["pending"] = proc.pending
        return 0

    world.register_program("reexec-checker", checker)
    world.install_binary("/bin/reexec-checker", "reexec-checker")
    below = SigvecCounter()

    def main(ctx):
        below.attach(ctx)
        agent = SymbolicSyscall()
        agent.attach(ctx)
        ctx.trap(NR_SIGVEC, sig.SIGTERM, lambda s: None, 0)
        ctx.trap(NR_SIGVEC, sig.SIGHUP, lambda s: None, 0)
        ctx.trap(NR_SIGVEC, sig.SIGUSR1, sig.SIG_IGN, 0)
        ctx.trap(NR_SIGVEC, sig.SIGUSR2, sig.SIG_IGN, 0)
        # An ignored signal stays pending until its disposition changes.
        ctx.trap(NR_KILL, ctx.proc.pid, sig.SIGUSR2)
        assert ctx.proc.pending & sig.sigmask(sig.SIGUSR2)
        below.sigvecs = 0
        agent.reexec("/bin/reexec-checker", ["reexec-checker"], {})

    world.run_entry(main)
    assert state["handlers"] == {sig.SIGTERM: sig.SIG_DFL,
                                 sig.SIGHUP: sig.SIG_DFL,
                                 sig.SIGUSR1: sig.SIG_IGN,
                                 sig.SIGUSR2: sig.SIG_IGN}
    assert not state["pending"] & sig.sigmask(sig.SIGUSR2)
    assert below.sigvecs == 2 * 2 + 2


def test_task_get_signals_lists_non_default_dispositions(world):
    seen = {}

    def main(ctx):
        seen["fresh"] = ctx.trap(NR_TASK_GET_SIGNALS)
        handler = lambda s: None  # noqa: E731
        ctx.trap(NR_SIGVEC, sig.SIGUSR1, sig.SIG_IGN, 0)
        ctx.trap(NR_SIGVEC, sig.SIGHUP, handler, 0)
        seen["set"] = ctx.trap(NR_TASK_GET_SIGNALS)
        seen["handler"] = handler
        return 0

    world.run_entry(main)
    assert seen["fresh"] == []
    assert seen["set"] == [(sig.SIGHUP, seen["handler"]),
                           (sig.SIGUSR1, sig.SIG_IGN)]


def test_run_under_agent_returns_client_status(world):
    status = run_under_agent(
        world, CountingAgent(), "/bin/sh", ["sh", "-c", "exit 9"]
    )
    assert WEXITSTATUS(status) == 9


def test_signal_up_delivers_to_application(world):
    delivered = []

    class Redirector(Agent):
        def init(self, agentargv):
            self.register_signal_interest()

        def handle_signal(self, signum, action):
            delivered.append(("agent", signum))
            self.signal_up(signum)

    def main(ctx):
        Redirector().attach(ctx)
        ctx.trap(NR_SIGVEC, sig.SIGUSR1,
                 lambda s: delivered.append(("app", s)), 0)
        ctx.trap(NR_KILL, ctx.proc.pid, sig.SIGUSR1)
        return 0

    world.run_entry(main)
    assert delivered == [("agent", sig.SIGUSR1), ("app", sig.SIGUSR1)]


def test_default_agent_forwards_signals(world):
    hit = []

    class PassThrough(Agent):
        def init(self, agentargv):
            self.register_signal_interest()

    def main(ctx):
        PassThrough().attach(ctx)
        ctx.trap(NR_SIGVEC, sig.SIGUSR2, lambda s: hit.append(s), 0)
        ctx.trap(NR_KILL, ctx.proc.pid, sig.SIGUSR2)
        return 0

    world.run_entry(main)
    assert hit == [sig.SIGUSR2]


def test_ctx_binding_follows_processes(world):
    """One agent instance serves parent and child with correct contexts."""

    pids_seen = []

    class PidRecorder(Agent):
        def init(self, agentargv):
            self.register_interest(NR_GETPID)

        def handle_syscall(self, number, args):
            pids_seen.append(self.ctx.proc.pid)
            return self.syscall_down_numeric(number, args)

    agent = PidRecorder()

    def main(ctx):
        agent.attach(ctx)
        me = ctx.trap(NR_GETPID)

        def child(cctx):
            return 0 if cctx.trap(NR_GETPID) != me else 1

        ctx.trap(number_of("fork"), agent.wrap_fork_entry(child))
        _, status = ctx.trap(number_of("wait"))
        return WEXITSTATUS(status)

    assert WEXITSTATUS(world.run_entry(main)) == 0
    assert len(set(pids_seen)) == 2
