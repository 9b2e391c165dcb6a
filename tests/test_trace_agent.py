"""Tests for the trace agent (paper Section 3.3.2)."""

import pytest

from repro.agents.trace import TraceSymbolicSyscall
from repro.kernel.proc import WEXITSTATUS
from repro.toolkit import run_under_agent


@pytest.fixture
def traced(world):
    def run(command):
        status = run_under_agent(
            world,
            TraceSymbolicSyscall("/tmp/trace.out"),
            "/bin/sh",
            ["sh", "-c", command],
        )
        return status, world.read_file("/tmp/trace.out").decode()

    return run


def test_calls_logged_with_arguments_and_results(traced):
    status, log = traced("echo hello > /tmp/t.txt")
    assert WEXITSTATUS(status) == 0
    assert "open('/tmp/t.txt'" in log.replace('"', "'")
    assert "-> 3" in log  # the returned descriptor
    assert "write(1, [6 bytes])" in log
    assert "exit(0)" in log


def test_two_lines_per_call(traced):
    status, log = traced("true")
    lines = log.splitlines()
    pre = [l for l in lines if l.endswith("...")]
    post = [l for l in lines if "->" in l]
    # Every completed call has both a pre and a post line (execve has no
    # post line: it does not return; fork's children add start markers).
    assert len(pre) >= len(post) > 0


def test_errors_logged_symbolically(traced):
    status, log = traced("cat /tmp/no-such-file; true")
    assert "-> ENOENT" in log


def test_children_traced_with_pids(traced):
    status, log = traced("echo via child")
    assert "(child of fork starts)" in log
    pids = {line.split("]")[0] for line in log.splitlines() if line.startswith("[")}
    assert len(pids) >= 2


def test_signals_logged(world):
    from repro.kernel import signals as sig
    from repro.kernel.sysent import number_of

    agent = TraceSymbolicSyscall("/tmp/trace.out")

    def main(ctx):
        agent.attach(ctx)
        ctx.trap(number_of("sigvec"), sig.SIGUSR1, lambda s: None, 0)
        ctx.trap(number_of("kill"), ctx.proc.pid, sig.SIGUSR1)
        return 0

    world.run_entry(main)
    log = world.read_file("/tmp/trace.out").decode()
    assert "signal SIGUSR1 received" in log
    assert "sigvec(SIGUSR1" in log
    assert "kill(" in log


def test_trace_survives_exec(traced):
    status, log = traced("sh -c 'echo inner'")
    assert "execve(" in log
    # calls from the exec'd inner shell are still traced
    assert log.count("execve(") >= 2


def test_log_to_stderr(world):
    status = run_under_agent(
        world, TraceSymbolicSyscall("-"), "/bin/true", ["true"]
    )
    out = world.console.take_output().decode()
    assert "exit(0)" in out


def test_log_fd_parked_high(world):
    agent = TraceSymbolicSyscall("/tmp/trace.out")
    status = run_under_agent(
        world, agent, "/bin/sh", ["sh", "-c", "echo x > /tmp/a; cat /tmp/a"]
    )
    assert WEXITSTATUS(status) == 0
    assert agent.log_fd >= 48
    # The application's own descriptor numbering was unaffected: its
    # first open still got fd 3 (visible in the trace).
    log = world.read_file("/tmp/trace.out").decode()
    assert "-> 3" in log


def test_workload_output_unchanged_under_trace(world):
    from repro.workloads import boot_world

    bare = boot_world()
    bare.run("/bin/sh", ["sh", "-c", "ls /bin | wc"])
    expected = bare.console.take_output()

    run_under_agent(
        world, TraceSymbolicSyscall("/tmp/trace.out"), "/bin/sh",
        ["sh", "-c", "ls /bin | wc"],
    )
    assert world.console.take_output() == expected


#: a call number with no table entry, so no ``sys_*`` body: it fails
#: with ENOSYS below the agent, before any ``_pre`` line is written
_UNKNOWN = 987


def _trap_unknown(ctx):
    from repro.kernel.errno import ENOSYS, SyscallError

    try:
        ctx.trap(_UNKNOWN)
    except SyscallError as err:
        return 0 if err.errno == ENOSYS else 1
    return 1


def _result_lines(log):
    return [line for line in log.splitlines() if "-> ENOSYS" in line]


def test_failed_call_after_traced_exec_reports_no_stale_label(world):
    from repro.kernel.sysent import number_of

    agent = TraceSymbolicSyscall("/tmp/trace.out")
    world.register_program("unknown-caller",
                           lambda ctx, argv, envp: _trap_unknown(ctx))
    world.install_binary("/bin/unknown-caller", "unknown-caller")

    def main(ctx):
        agent.attach(ctx)
        agent.register_interest(_UNKNOWN)
        ctx.trap(number_of("execve"), "/bin/unknown-caller",
                 ["unknown-caller"], {})

    assert WEXITSTATUS(world.run_entry(main)) == 0
    log = world.read_file("/tmp/trace.out").decode()
    assert "execve('/bin/unknown-caller'" in log
    # The execve unwound without a result line; the failed call that
    # followed must not be reported as its result.
    assert _result_lines(log) == []


def test_failed_call_on_a_reused_host_thread_reports_no_stale_label(world):
    import time

    from repro.kernel.sysent import number_of

    agent = TraceSymbolicSyscall("/tmp/trace.out")
    pool = world.host_threads

    def main(ctx):
        agent.attach(ctx)
        agent.register_interest(_UNKNOWN)
        # The first child's traced exit unwinds on its host thread...
        ctx.trap(number_of("fork"), lambda child: 0)
        ctx.trap(number_of("wait"))
        deadline = time.monotonic() + 10
        while not pool._idle and time.monotonic() < deadline:
            time.sleep(0.001)
        started = pool.started
        # ...and the second child runs on that same thread.
        ctx.trap(number_of("fork"), _trap_unknown)
        _, status = ctx.trap(number_of("wait"))
        assert pool.started == started
        return WEXITSTATUS(status)

    assert WEXITSTATUS(world.run_entry(main)) == 0
    log = world.read_file("/tmp/trace.out").decode()
    assert log.count("exit(0) ...") >= 2
    assert _result_lines(log) == []
