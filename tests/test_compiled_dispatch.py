"""Tests for compiled agent-stack dispatch (repro.kernel.compile).

A compiled chain may only fire when it is observably identical to the
layer tower it replaces: no guard (entry chains), no profiler, and no
staleness (vector or ``_down`` change since the build).  Obs and the
recorder never change the route.  These tests pin the table's life
cycle, the around rows of agents that override ``handle_syscall`` and
their decode rows, every stand-down condition, exact behavioural
parity (errnos, EINVAL wording, signal delivery, machine crashes), the
vectored ``readv``/``writev`` downcalls, and — via a hypothesis
lockstep machine, DFSTrace, trace logs and monitor reports of the
benchmark's workloads, and record/replay across routes — that
compiled-on and compiled-off worlds are indistinguishable.
"""

import re

import pytest

from repro.kernel import Kernel
from repro.kernel import signals as sig
from repro.kernel.compile import _EMPTY, _TOWER, build_compiled_dispatch
from repro.kernel.errno import EINVAL, SyscallError
from repro.kernel.faultsite import MachineCrash
from repro.kernel.ofile import O_CREAT, O_RDONLY, O_TRUNC, O_WRONLY
from repro.kernel.proc import WEXITSTATUS
from repro.kernel.sysent import number_of
from repro.kernel.trap import UserContext
from repro.obs.recorder import RECORD, REPLAY, Recorder
from repro.toolkit.pathnames import PathSymbolicSyscall
from repro.toolkit.symbolic import SymbolicSyscall
from tests.matrix_support import matrix, run_workload

NR = {n: number_of(n) for n in (
    "getpid", "open", "close", "read", "write", "readv", "writev",
    "unlink", "rename", "mkdir", "rmdir", "stat", "lseek",
    "task_set_emulation", "sigvec", "kill", "exit", "pipe",
)}

#: every fast path except table dispatch — the tower baseline
TOWER = "namecache,zero_copy"


def run(kernel, entry):
    return WEXITSTATUS(kernel.run_entry(entry))


def _attached(kernel, agent_cls=SymbolicSyscall):
    """A persistent interposed context: agent attached, not exec'd."""
    proc = kernel._create_initial_process()
    ctx = UserContext(kernel, proc)
    agent = agent_cls()
    agent.attach(ctx, [])
    return ctx, agent


# -- life cycle ------------------------------------------------------------


def test_compiled_fires_for_transparent_agent():
    k = Kernel()
    ctx, _ = _attached(k)
    pid = ctx.trap(NR["getpid"])
    for _ in range(4):
        assert ctx.trap(NR["getpid"]) == pid
    assert k.trap_compiled_total >= 5
    assert NR["getpid"] in ctx.proc.dispatch


def test_disabled_flag_uses_sentinel():
    k = Kernel(fastpaths=TOWER)
    ctx, _ = _attached(k)
    assert isinstance(ctx.trap(NR["getpid"]), int)
    assert ctx.proc.dispatch is _TOWER
    assert k.trap_compiled_total == 0
    assert k.down_compiled_total == 0


def _trace_agent():
    from repro.agents.trace import TraceSymbolicSyscall

    return TraceSymbolicSyscall("/tmp/t.trace")


def _monitor_agent():
    from repro.agents.monitor import MonitorAgent

    return MonitorAgent("/tmp/m.out")


@pytest.mark.parametrize("factory", [_trace_agent, _monitor_agent],
                         ids=["trace", "monitor"])
def test_around_agent_entry_traps_compile(factory):
    """Trace and the monitor override handle_syscall: their entry rows
    enter the override directly (the around grade), and their log
    writes and forwards take flattened downcall chains."""
    k = Kernel()
    ctx, agent = _attached(k, factory)
    before = k.trap_compiled_total
    pid = ctx.trap(NR["getpid"])
    assert pid == ctx.proc.pid
    assert ctx.trap(NR["getpid"]) == pid
    assert k.trap_compiled_total == before + 2
    assert k.down_compiled_total > 0
    # The override's super() took the compiled decode, not the numeric
    # layer's register vector.
    assert agent._decode[NR["getpid"]].func != agent._numeric.handle_syscall


def test_around_row_stands_down_under_guard_and_profiler():
    from repro.obs.profile import disable_profile, enable_profile

    guarded = Kernel(guard="fail-open")
    ctx, _ = _attached(guarded, _trace_agent)
    assert ctx.trap(NR["getpid"]) == ctx.proc.pid
    assert guarded.trap_compiled_total == 0

    k = Kernel()
    ctx, _ = _attached(k, _trace_agent)
    ctx.trap(NR["getpid"])
    before = k.trap_compiled_total
    prof = enable_profile(k, interval_usec=100)
    ctx.trap(NR["getpid"])
    assert k.trap_compiled_total == before
    # The tower keeps the agent frame the row would skip.
    assert any("agent:symbolic" in line for line in prof.collapsed())
    disable_profile(k)
    ctx.trap(NR["getpid"])
    assert k.trap_compiled_total == before + 1


def test_around_row_evicts_on_down_mutation():
    k = Kernel()
    ctx, _ = _attached(k, _trace_agent)
    ctx.trap(NR["getpid"])
    old = ctx.proc.dispatch
    assert NR["getpid"] in old
    SymbolicSyscall().attach(ctx, [])   # a _down mutation: new epoch
    before = k.trap_compiled_total
    # The stale around row takes the tower once and evicts itself.
    assert old[NR["getpid"]](ctx, ()) == ctx.proc.pid
    assert k.trap_compiled_total == before
    assert NR["getpid"] not in old


def test_decode_without_trap_fast_enters_the_numeric_layer(monkeypatch):
    from repro.toolkit.numeric import NumericSyscall

    entered = []
    original = NumericSyscall.handle_syscall

    def spy(self, number, args):
        entered.append(number)
        return original(self, number, args)

    monkeypatch.setattr(NumericSyscall, "handle_syscall", spy)
    for fastpaths, expected in ((TOWER, [NR["getpid"]]), (None, [])):
        k = Kernel() if fastpaths is None else Kernel(fastpaths=fastpaths)
        ctx, _ = _attached(k, _trace_agent)
        del entered[:]
        assert ctx.trap(NR["getpid"]) == ctx.proc.pid
        assert entered == expected


def test_task_set_emulation_invalidates_table():
    k = Kernel()
    ctx, _ = _attached(k)
    ctx.trap(NR["getpid"])
    old = ctx.proc.dispatch
    assert NR["getpid"] in old

    def handler(handler_ctx, number, args):
        return 4242

    ctx.trap(NR["task_set_emulation"], [NR["getpid"]], handler)
    table = ctx.proc.dispatch
    assert table is not old                    # a fresh table
    assert NR["getpid"] not in table           # rows are built on use
    before = k.trap_compiled_total
    assert ctx.trap(NR["getpid"]) == 4242      # opaque handler wins
    assert NR["getpid"] in table
    assert k.trap_compiled_total == before     # lambda is not boilerplate


def test_execve_resets_table():
    from repro.workloads import boot_world

    world = boot_world()
    seen = []

    def probe(ctx, argv, envp):
        seen.append(ctx.proc.dispatch)
        return 0

    world.register_program("probe", probe)
    world.install_binary("/bin/probe", "probe")
    assert WEXITSTATUS(world.run("/bin/probe", ["probe"])) == 0
    assert seen[0] is _EMPTY  # native exec dropped it with the vector


def test_build_respects_flag():
    on = Kernel()
    off = Kernel(fastpaths=TOWER)
    ctx, _ = _attached(on)
    row = build_compiled_dispatch(ctx.proc.dispatch, NR["getpid"])
    row(ctx, ())
    assert on.trap_compiled_total == 1
    ctx_off, _ = _attached(off)
    assert ctx_off.proc.dispatch is _TOWER
    row = build_compiled_dispatch(ctx_off.proc.dispatch, NR["getpid"])
    assert row(ctx_off, ()) == ctx_off.proc.pid
    assert off.trap_compiled_total == 0


def test_down_epoch_retires_stale_chains():
    k = Kernel()
    ctx, first = _attached(k)
    ctx.trap(NR["getpid"])
    assert k.trap_compiled_total >= 1
    old = ctx.proc.dispatch
    # Stacking a second agent re-registers the numbers: the vector
    # change gives this proc a fresh table, and the _down mutation bumps
    # the global epoch so chains baked elsewhere also stand down.
    second = SymbolicSyscall()
    second.attach(ctx, [])
    assert ctx.proc.dispatch is not old
    before = k.trap_compiled_total
    # A process still on the old table takes the tower once and evicts
    # the stale row.
    assert old[NR["getpid"]](ctx, ()) == ctx.proc.pid
    assert k.trap_compiled_total == before
    assert NR["getpid"] not in old
    pid = ctx.trap(NR["getpid"])
    assert isinstance(pid, int)
    # The restacked chain compiles too (both layers are transparent).
    assert k.trap_compiled_total == before + 1


class _CountingDowncalls(SymbolicSyscall):
    """Overrides the downcall entry point, which syscall_down must keep
    calling."""

    def __init__(self):
        super().__init__()
        self.downs = 0

    def syscall_down_numeric(self, number, args):
        self.downs += 1
        return super().syscall_down_numeric(number, args)


def test_syscall_down_numeric_override_keeps_its_downcalls():
    k = Kernel()
    ctx, agent = _attached(k, _CountingDowncalls)
    assert ctx.trap(NR["getpid"]) == ctx.proc.pid
    assert agent.syscall_down("getpid") == ctx.proc.pid
    assert agent.downs == 2
    assert k.trap_compiled_total == 1


# -- stand-down matrix -----------------------------------------------------


def test_observed_trap_takes_the_chain():
    """Observing never changes the route: an observed interposed trap
    and its downcalls take their compiled rows, and obs still counts
    the trap, the downcall and the collapsed layer."""
    from repro import obs

    k = Kernel()
    obs.enable(k)
    ctx, agent = _attached(k)
    before = k.trap_compiled_total
    ctx.trap(NR["getpid"])
    assert k.trap_compiled_total == before + 1
    metrics = k.obs.metrics
    assert metrics.counter(("trap", "getpid")) == 1
    assert metrics.counter(("trap.agent", "getpid")) == 1
    assert metrics.counter(("htg", "getpid")) == 1
    assert metrics.counter(("agent.call", agent.OBS_LAYER, "getpid")) == 1
    assert metrics.histogram(("layer.usec", agent.OBS_LAYER)).count >= 1
    before = k.down_compiled_total
    agent.syscall_down("getpid")
    assert k.down_compiled_total == before + 1
    assert metrics.counter(("htg", "getpid")) == 2


def test_ktrace_flag_keeps_the_chain():
    # Without obs the ktrace flag records nothing, so the route stays.
    k = Kernel()
    ctx, _ = _attached(k)
    ctx.trap(NR["getpid"])
    before = k.trap_compiled_total
    ctx.proc.ktrace_on = True
    assert k.obs is None
    ctx.trap(NR["getpid"])
    assert k.trap_compiled_total == before + 1


def _dfstrace_run(workload, stack, fastpaths):
    """Run *workload* under *stack* with DFSTrace on; returns the
    collector and how many traps and downcalls took a row or chain."""
    from repro.kernel import dfstrace

    boot = {} if fastpaths is None else {"fastpaths": fastpaths}
    kernel, status = run_workload(workload, stack, dfstrace.enable, **boot)
    assert WEXITSTATUS(status) == 0
    routed = (kernel.trap_fast_total + kernel.trap_compiled_total
              + kernel.down_compiled_total)
    return kernel.dfstrace, routed


@pytest.mark.parametrize("stack", matrix.STACKS)
def test_dfstrace_format_identical_across_routes(stack):
    """DFSTrace records in kernel_entry, which every route shares, so the
    default config's rows leave the tower's trace byte for byte."""
    rows, routed = _dfstrace_run("format", stack, None)
    tower, tower_routed = _dfstrace_run("format", stack, TOWER)
    assert routed > 0
    assert tower_routed == 0
    assert rows.records
    assert rows.to_text() == tower.to_text()


@pytest.mark.parametrize("stack", matrix.STACKS)
def test_dfstrace_make_identical_per_process_across_routes(stack):
    """make's processes interleave by host scheduling, which moves the
    timestamps even between two runs of one config: compare each
    process's record sequence without the time field."""
    def per_pid(trace):
        seen = {}
        for record in trace.records:
            seen.setdefault(record.pid, []).append(
                (record.opcode, record.error, record.detail))
        return seen

    rows, routed = _dfstrace_run("make", stack, None)
    tower, tower_routed = _dfstrace_run("make", stack, TOWER)
    assert routed > 0
    assert tower_routed == 0
    assert len(per_pid(rows)) > 60
    assert per_pid(rows) == per_pid(tower)


def test_guard_stands_down():
    k = Kernel(guard="fail-open")
    ctx, _ = _attached(k)
    assert isinstance(ctx.trap(NR["getpid"]), int)
    assert k.trap_compiled_total == 0


# -- behavioural parity ----------------------------------------------------


def _interposed_outcome(fastpaths, name, *args, agent_cls=SymbolicSyscall):
    k = Kernel() if fastpaths is None else Kernel(fastpaths=fastpaths)
    ctx, _ = _attached(k, agent_cls)
    try:
        return ("ok", ctx.trap(NR[name], *args))
    except SyscallError as err:
        return ("err", err.errno, str(err))
    except TypeError as err:
        # The tower's symbolic layer crashes on over-arity (the method
        # call itself fails); the compiled chain must crash identically.
        return ("crash", str(err))


@pytest.mark.parametrize("name,args", [
    ("getpid", (1, 2, 3, 4, 5)),   # over-arity: the tower's TypeError
    ("close", (99,)),              # EBADF through the descriptor layer
    ("stat", ("/missing",)),       # ENOENT through the pathname layer
    ("mkdir", ("/made",)),         # default mode filled by the layer
])
def test_outcome_parity(name, args):
    compiled = _interposed_outcome(None, name, *args)
    tower = _interposed_outcome(TOWER, name, *args)
    if name == "stat" and compiled[0] == "ok":
        pytest.fail("stat of /missing should fail")
    if name == "mkdir":
        assert compiled[0] == tower[0] == "ok"
        return
    assert compiled == tower


def test_over_arity_crash_parity():
    # Argument counts outside the sys_* signature's band are exactly
    # where the tower raises TypeError; the compiled fill must bail to
    # the original handler before any terminal work so the crash is
    # byte-identical.
    compiled = _interposed_outcome(None, "getpid", 1, 2, 3, 4, 5)
    tower = _interposed_outcome(TOWER, "getpid", 1, 2, 3, 4, 5)
    assert compiled == tower
    assert compiled[0] == "crash"


@pytest.mark.parametrize("name,args", [
    ("getpid", (1, 2, 3, 4, 5)),   # over-arity: the tower's TypeError
    ("close", (99,)),              # EBADF, errno-only as the tower's
    ("stat", ("/missing",)),       # ENOENT, the kernel's message dropped
    ("mkdir", ("/made",)),         # default mode filled by the decode
    ("pipe", ()),                  # a two-register result
])
def test_around_outcome_parity(name, args):
    """Through the trace agent's around row and its decode row, results,
    errnos and the over-arity crash are the tower's."""
    compiled = _interposed_outcome(None, name, *args, agent_cls=_trace_agent)
    tower = _interposed_outcome(TOWER, name, *args, agent_cls=_trace_agent)
    assert compiled == tower
    if name == "getpid":
        assert compiled[0] == "crash"


def _observed_accounting(fastpaths):
    """Counters and histogram counts after a mix of calls through two
    stacked agents with obs on, including errors and an over-arity
    call."""
    k = Kernel(obs="metrics") if fastpaths is None else \
        Kernel(obs="metrics", fastpaths=fastpaths)
    ctx, _ = _attached(k, PathSymbolicSyscall)
    SymbolicSyscall().attach(ctx, [])
    calls = [("getpid",), ("mkdir", "/made"), ("stat", "/made"),
             ("stat", "/missing"), ("close", 99), ("getpid", 1, 2, 3, 4, 5)]
    for name, *args in calls:
        try:
            ctx.trap(NR[name], *args)
        except (SyscallError, TypeError):
            pass
    return _obs_facts(k), k.trap_compiled_total


def test_observed_accounting_parity():
    """A staged chain records each collapsed layer's agent.call and
    layer.usec exactly as the tower's entries do, on errors too, and
    nothing of its own when an argument count sends it to the tower."""
    facts, compiled = _observed_accounting(None)
    tower_facts, _ = _observed_accounting(TOWER)
    assert compiled > 0
    assert facts == tower_facts
    assert facts[0]["agent.call|symbolic|getpid"] == 2


def test_kernel_einval_is_errno_only_both_ways():
    # The kernel's messageful EINVAL (empty iovec) is consumed by the
    # numeric layer on its way back up; the compiled normalization must
    # strip it identically.
    outcomes = {}
    for flags in (None, TOWER):
        k = Kernel() if flags is None else Kernel(fastpaths=flags)
        k.write_file("/e.txt", b"payload")
        ctx, _ = _attached(k)
        fd = ctx.trap(NR["open"], "/e.txt", O_RDONLY)
        try:
            ctx.trap(NR["readv"], fd, [])
        except SyscallError as err:
            outcomes[flags] = (err.errno, str(err))
        ctx.trap(NR["close"], fd)
    assert outcomes[None] == outcomes[TOWER]
    assert outcomes[None][0] == EINVAL
    assert "iovec" not in outcomes[None][1]


def test_signals_delivered_after_compiled_trap():
    k = Kernel()
    delivered = []

    def main(ctx):
        agent = SymbolicSyscall()
        agent.attach(ctx, [])
        ctx.trap(NR["sigvec"], sig.SIGUSR1,
                 lambda s: delivered.append(s), 0)
        before = k.trap_compiled_total
        ctx.trap(NR["kill"], ctx.proc.pid, sig.SIGUSR1)
        assert k.trap_compiled_total > before
        assert delivered == [sig.SIGUSR1]
        return 0

    assert run(k, main) == 0


@pytest.mark.parametrize("flags", [None, "none"], ids=["default", "none"])
def test_downcall_after_crash_raises_and_spares_the_volume(flags):
    # Every surviving thread dies at its next kernel entry: an agent's
    # forwarded unlink after the machine halted must not reach the
    # halted volume, whichever route the downcall takes.
    k = Kernel() if flags is None else Kernel(fastpaths=flags)
    k.write_file("/victim", b"survives")
    ctx, agent = _attached(k)
    ctx.trap(NR["getpid"])         # the dispatch tables are warm
    agent.syscall_down("getpid")
    before = k.down_compiled_total
    k.crash()
    with pytest.raises(MachineCrash):
        agent.syscall_down("unlink", "/victim")
    if flags is None:
        assert k.down_compiled_total == before + 1  # the compiled route
    assert k.read_file("/victim") == b"survives"


# -- readv / writev through agent stacks (satellite) -----------------------


def _vector_io_run(fastpaths, agents_factory):
    from repro.workloads import boot_world
    from tests.test_agent_stacks import run_stacked

    world = (boot_world() if fastpaths is None
             else boot_world(fastpaths=fastpaths))
    world.write_file("/data.bin", b"abcdefghijklmnopqrstuvwxyz")
    outcome = {}

    def vectored(ctx, argv, envp):
        fd = ctx.trap(NR["open"], "/out.bin",
                      O_WRONLY | O_CREAT | O_TRUNC, 0o644)
        outcome["wrote"] = ctx.trap(
            NR["writev"], fd, [b"alpha ", b"beta ", b"gamma"])
        ctx.trap(NR["close"], fd)
        rfd = ctx.trap(NR["open"], "/data.bin", O_RDONLY)
        outcome["buffers"] = ctx.trap(NR["readv"], rfd, [5, 5, 100, 5])
        ctx.trap(NR["close"], rfd)
        return 0

    world.register_program("vectored", vectored)
    world.install_binary("/bin/vectored", "vectored")
    status = run_stacked(world, agents_factory(), "/bin/vectored",
                         ["vectored"])
    outcome["status"] = WEXITSTATUS(status)
    outcome["out"] = world.read_file("/out.bin")
    return outcome


def _trace_stack():
    from repro.agents.trace import TraceSymbolicSyscall

    return [TraceSymbolicSyscall(log_path="/dev/null")]


def _union_txn_stack():
    from repro.agents.txn import TxnAgent
    from repro.agents.union_dirs import UnionAgent

    return [UnionAgent(), TxnAgent(scratch_dir="/tmp/vec.txn",
                                   outcome="commit")]


@pytest.mark.parametrize("factory", [_trace_stack, _union_txn_stack],
                         ids=["trace", "union+txn"])
def test_vector_io_identical_compiled_on_off(factory):
    compiled = _vector_io_run(None, factory)
    tower = _vector_io_run(TOWER, factory)
    assert compiled == tower
    assert compiled["status"] == 0
    assert compiled["wrote"] == 16
    assert compiled["out"] == b"alpha beta gamma"
    # Short-read cutoff: the 100-byte fragment drains the file, so the
    # trailing fragment is never attempted.
    assert compiled["buffers"] == [b"abcde", b"fghij",
                                   b"klmnopqrstuvwxyz"]


# -- hypothesis lockstep (satellite) ---------------------------------------

try:
    from hypothesis import HealthCheck, settings
    from hypothesis.stateful import RuleBasedStateMachine, rule
    import hypothesis.strategies as strat

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the image
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    _NAMES = strat.sampled_from(["a", "b", "dir1", "deep"])
    _PARENTS = strat.sampled_from(["/", "/dir1", "/dir1/deep"])
    _PATHS = strat.builds(
        lambda parent, name: parent.rstrip("/") + "/" + name,
        _PARENTS, _NAMES)

    class CompiledEquivalence(RuleBasedStateMachine):
        """Random syscall sequences against two interposed kernels —
        compiled dispatch on vs off — in lock step; every outcome,
        errno, and counter-visible piece of state must match.
        """

        def __init__(self):
            super().__init__()
            self.contexts = []
            for flags in (None, TOWER):
                kernel = (Kernel() if flags is None
                          else Kernel(fastpaths=flags))
                ctx, _ = _attached(kernel, PathSymbolicSyscall)
                self.contexts.append(ctx)

        def _both(self, name, *args):
            outcomes = []
            for ctx in self.contexts:
                try:
                    value = ctx.trap(NR[name], *args)
                    if name == "stat":
                        value = (value.st_ino, value.st_mode,
                                 value.st_nlink, value.st_size)
                    outcomes.append(("ok", value))
                except SyscallError as err:
                    outcomes.append(("err", err.errno))
            assert outcomes[0] == outcomes[1], (
                "%s%r diverged: compiled=%r tower=%r"
                % (name, args, outcomes[0], outcomes[1]))
            return outcomes[0]

        @rule(path=_PATHS)
        def creat(self, path):
            outcomes = []
            for ctx in self.contexts:
                try:
                    fd = ctx.trap(NR["open"], path,
                                  O_WRONLY | O_CREAT | O_TRUNC, 0o644)
                    ctx.trap(NR["close"], fd)
                    outcomes.append(("ok", fd))
                except SyscallError as err:
                    outcomes.append(("err", err.errno))
            assert outcomes[0] == outcomes[1], outcomes

        @rule(path=_PATHS)
        def mkdir(self, path):
            self._both("mkdir", path, 0o755)

        @rule(path=_PATHS)
        def mkdir_default_mode(self, path):
            # Exercises the compiled default-fill against the tower's.
            self._both("mkdir", path)

        @rule(path=_PATHS)
        def unlink(self, path):
            self._both("unlink", path)

        @rule(path=_PATHS)
        def rmdir(self, path):
            self._both("rmdir", path)

        @rule(src=_PATHS, dst=_PATHS)
        def rename(self, src, dst):
            self._both("rename", src, dst)

        @rule(path=_PATHS)
        def stat(self, path):
            self._both("stat", path)

        @rule(path=_PATHS, sizes=strat.lists(
                strat.integers(min_value=1, max_value=64),
                min_size=1, max_size=4))
        def vector_read(self, path, sizes):
            outcomes = []
            for ctx in self.contexts:
                try:
                    fd = ctx.trap(NR["open"], path, O_RDONLY)
                    buffers = ctx.trap(NR["readv"], fd, sizes)
                    ctx.trap(NR["close"], fd)
                    outcomes.append(("ok", buffers))
                except SyscallError as err:
                    outcomes.append(("err", err.errno))
            assert outcomes[0] == outcomes[1], outcomes

        def teardown(self):
            for path in ("/", "/dir1", "/dir1/deep"):
                self._both("stat", path)

    CompiledEquivalence.TestCase.settings = settings(
        max_examples=20, stateful_step_count=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow])

    TestCompiledEquivalence = CompiledEquivalence.TestCase


# -- record/replay (satellite) ---------------------------------------------


def test_record_replay_roundtrip_with_compiled_enabled():
    """A chaos scenario on the default kernel (compiled dispatch on)
    must still record and replay bit-identically, guard rail, obs and
    all."""
    from repro.obs.timetravel import verify_roundtrip

    recorded, replayed = verify_roundtrip(seed=1107, workload="files")
    assert recorded.report.outcome == replayed.report.outcome
    assert recorded.events == replayed.events


@pytest.mark.parametrize("stack", ["timex", "union", "deep"])
def test_tower_recording_replays_on_rows(stack):
    """make recorded on the tower (no obs) replays on the default
    config: a recorded trap takes the same row as an unrecorded one,
    and the rows make exactly the tower's decisions.  deep's top agent,
    the monitor, takes around rows."""
    recorder = Recorder(mode=RECORD)
    kernel, status = run_workload("make", stack, recorder.attach,
                                  fastpaths=TOWER)
    directory = matrix.WORKLOADS["make"].directory
    digest = matrix.output_digest(kernel, directory)
    assert WEXITSTATUS(status) == 0
    assert kernel.trap_compiled_total == 0

    replayer = Recorder(mode=REPLAY, log=recorder.decisions)
    kernel, replayed_status = run_workload("make", stack, replayer.attach)
    replayer.raise_divergence()
    assert replayer.position == len(recorder.decisions)
    assert replayed_status == status
    assert matrix.output_digest(kernel, directory) == digest
    assert kernel.trap_compiled_total > 0


def _observed_make(stack, recorder, **boot):
    """Run make under *stack* with obs metrics, a bus subscriber and
    *recorder* attached; returns the kernel, the wait status and the
    event stream."""
    events = []

    def prepare(kernel):
        recorder.attach(kernel)
        kernel.obs.bus.subscribe(lambda event: events.append(event.to_tuple()))

    kernel, status = run_workload("make", stack, prepare, obs="metrics",
                                  **boot)
    return kernel, status, events


def _obs_facts(kernel):
    """Every counter, every histogram's count and the trap.vusec totals."""
    snap = kernel.obs.metrics.snapshot()
    histograms = snap["histograms"]
    return (snap["counters"],
            {key: hist["count"] for key, hist in histograms.items()},
            {key: hist["sum"] for key, hist in histograms.items()
             if key.startswith("trap.vusec|")})


@pytest.mark.parametrize("stack", ["timex", "union", "deep"])
def test_observed_tower_recording_replays_on_rows(stack):
    """The obs axis of test_tower_recording_replays_on_rows: make
    recorded on the tower with obs on replays on the default config
    with obs on, and observing does not change the route — the rows
    and chains make the tower's decisions and produce its event stream,
    counters, histogram counts and virtual-time totals."""
    recorder = Recorder(mode=RECORD)
    kernel, status, events = _observed_make(stack, recorder,
                                            fastpaths=TOWER)
    assert WEXITSTATUS(status) == 0
    assert kernel.trap_compiled_total == kernel.down_compiled_total == 0
    facts = _obs_facts(kernel)

    replayer = Recorder(mode=REPLAY, log=recorder.decisions)
    kernel, replayed_status, replayed_events = _observed_make(stack,
                                                              replayer)
    replayer.raise_divergence()
    assert replayer.position == len(recorder.decisions)
    assert replayed_status == status
    assert replayed_events == events
    assert _obs_facts(kernel) == facts
    assert kernel.down_compiled_total > 0
    assert kernel.trap_compiled_total > 0


def _per_pid(items, pid_of):
    """*items* grouped by process, in order: the part of a log or event
    stream that host scheduling of concurrent processes cannot reorder."""
    out = {}
    for item in items:
        out.setdefault(pid_of(item), []).append(item)
    return out


def _around_outputs(workload, stack, fastpaths):
    """The route-independent content of the trace log or monitor report,
    the obs event stream and the obs counts for *workload* under
    *stack*, and the number of traps that took a compiled row."""
    boot = {} if fastpaths is None else {"fastpaths": fastpaths}
    kernel, status = run_workload(workload, stack, **boot)
    assert WEXITSTATUS(status) == 0
    if stack == "trace":
        log = kernel.read_file("/tmp/trace.out").decode().splitlines()
        report = _per_pid(log, lambda line: line.split("]", 1)[0])
    else:
        report = kernel.read_file("/tmp/monitor.out")
    events = []

    def subscribe(observed):
        observed.obs.bus.subscribe(
            lambda event: events.append(event.to_tuple()))

    observed, _ = run_workload(workload, stack, subscribe, obs="metrics",
                               **boot)
    # Without the sequence number and time, and with the virtual time a
    # return reports masked: both depend on how concurrent processes
    # interleaved.
    stream = [event[2:6] + (re.sub(r"\d+ vusec", "vusec", event[6]),)
              + event[7:] for event in events]
    counters, counts, _ = _obs_facts(observed)
    return ((report, _per_pid(stream, lambda event: event[0]), counters,
             counts), kernel.trap_compiled_total)


@pytest.mark.parametrize("stack", ["trace", "deep"])
@pytest.mark.parametrize("workload", ["make", "andrew"])
def test_around_outputs_identical_across_routes(workload, stack):
    """Under trace and the deep stack (the monitor on top), the around
    rows produce the tower's trace log, monitor report, obs event
    stream, counters and histogram counts (per-layer accounting
    included)."""
    outputs, compiled = _around_outputs(workload, stack, None)
    tower_outputs, tower_compiled = _around_outputs(workload, stack, TOWER)
    assert compiled > 0
    assert tower_compiled == 0
    for output, tower_output in zip(outputs, tower_outputs):
        assert output == tower_output
    assert len(outputs[1]) > 10


def test_obs_streams_identical_compiled_on_off():
    """With tracing live, traps take the rows and chains, and the event
    streams of compiled-on and compiled-off kernels match tuple for
    tuple."""
    streams = []
    for flags in (None, TOWER):
        kernel = Kernel(obs="metrics,trace") if flags is None else \
            Kernel(obs="metrics,trace", fastpaths=flags)
        seen = []
        kernel.obs.bus.subscribe(seen.append)
        ctx, _ = _attached(kernel, PathSymbolicSyscall)
        ctx.trap(NR["mkdir"], "/spot", 0o755)
        try:
            ctx.trap(NR["stat"], "/nope")
        except SyscallError:
            pass
        streams.append([e.to_tuple() for e in seen])
    assert streams[0] == streams[1]
    assert streams[0], "expected a non-empty event stream"
