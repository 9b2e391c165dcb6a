"""Equivalence: fast paths on vs the seed kernel, bit for bit.

The fast paths are performance transparent or they are nothing — the
paper's transparency bar applied to the kernel's own shortcuts.  These
tests run identical operation sequences against two kernels, one with
every fast path enabled (the default) and one with ``fastpaths="none"``
(the seed code paths), and require identical results: same return
values, same errnos, same bytes on disk, under plain syscalls, under
randomised operation sequences, and under interposition agents (union
name spaces and transactions) whose mutations must invalidate the name
cache through the same funnels.
"""

import pytest

from repro.kernel import Kernel
from repro.kernel.errno import SyscallError
from repro.kernel.proc import WEXITSTATUS
from repro.kernel.sysent import number_of
from repro.kernel.trap import UserContext

NR = {n: number_of(n) for n in (
    "open", "close", "read", "write", "unlink", "rename", "mkdir",
    "rmdir", "symlink", "stat", "lstat", "chdir", "lseek",
)}

from repro.kernel.ofile import O_CREAT, O_RDONLY, O_TRUNC, O_WRONLY


def _pair():
    """(fast kernel, seed kernel), each with a persistent process."""
    pair = []
    for flags in (None, "none"):
        kernel = Kernel() if flags is None else Kernel(fastpaths=flags)
        proc = kernel._create_initial_process()
        pair.append(UserContext(kernel, proc))
    return pair


def _apply(ctx, name, *args):
    """One trap, normalised to ('ok', value) or ('err', errno)."""
    try:
        if name == "creat":
            path, mode = args
            fd = ctx.trap(NR["open"], path, O_WRONLY | O_CREAT | O_TRUNC, mode)
            ctx.trap(NR["close"], fd)
            return ("ok", fd)
        return ("ok", ctx.trap(NR[name], *args))
    except SyscallError as err:
        return ("err", err.errno)


def _apply_both(contexts, name, *args):
    fast, seed = (_apply(ctx, name, *args) for ctx in contexts)
    assert fast == seed, "%s%r diverged: fast=%r seed=%r" % (
        name, args, fast, seed)
    return fast


def _stat_fields(outcome):
    kind, value = outcome
    if kind == "err":
        return outcome
    # st_ino allocation order is deterministic, so it must match too.
    return (value.st_ino, value.st_mode, value.st_nlink, value.st_size)


def test_scripted_sequence_equivalence():
    contexts = _pair()
    script = [
        ("mkdir", "/work", 0o755),
        ("mkdir", "/work/sub", 0o755),
        ("creat", "/work/a.txt", 0o644),
        ("stat", "/work/a.txt"),
        ("rename", "/work/a.txt", "/work/sub/b.txt"),
        ("stat", "/work/a.txt"),          # ENOENT both sides
        ("stat", "/work/sub/b.txt"),
        ("symlink", "/work/sub/b.txt", "/work/link"),
        ("stat", "/work/link"),
        ("lstat", "/work/link"),
        ("unlink", "/work/sub/b.txt"),
        ("stat", "/work/link"),           # dangling: ENOENT both sides
        ("rmdir", "/work/sub"),
        ("stat", "/work/sub"),
        ("mkdir", "/work/sub", 0o755),    # recreate after rmdir
        ("stat", "/work/sub"),
        ("rmdir", "/missing"),            # ENOENT both sides
    ]
    for name, *args in script:
        fast, seed = (_apply(ctx, name, *args) for ctx in contexts)
        if name in ("stat", "lstat"):
            fast, seed = _stat_fields(fast), _stat_fields(seed)
        assert fast == seed, "%s%r diverged: fast=%r seed=%r" % (
            name, tuple(args), fast, seed)


def test_read_back_equivalence():
    contexts = _pair()
    _apply_both(contexts, "mkdir", "/d", 0o755)
    payload = b"zero copy reads must not change what userland sees\n" * 40
    for ctx in contexts:
        ctx.kernel.write_file("/d/data.bin", payload)
    reads = []
    for ctx in contexts:
        fd = ctx.trap(NR["open"], "/d/data.bin", O_RDONLY)
        chunks = []
        while True:
            chunk = ctx.trap(NR["read"], fd, 777)  # odd size: misaligned
            assert isinstance(chunk, bytes)        # never a memoryview
            if not chunk:
                break
            chunks.append(chunk)
        ctx.trap(NR["close"], fd)
        reads.append(b"".join(chunks))
    assert reads[0] == reads[1] == payload


# -- randomised sequences -------------------------------------------------

try:
    from hypothesis import HealthCheck, settings
    from hypothesis.stateful import RuleBasedStateMachine, rule
    import hypothesis.strategies as strat

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the image
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    _NAMES = strat.sampled_from(["a", "b", "c", "dir1", "dir2", "deep"])
    _PARENTS = strat.sampled_from(["/", "/dir1", "/dir1/deep", "/dir2"])

    _PATHS = strat.builds(
        lambda parent, name: parent.rstrip("/") + "/" + name,
        _PARENTS, _NAMES)

    class FastpathEquivalence(RuleBasedStateMachine):
        """Random creat/unlink/rename/mkdir/rmdir/symlink/stat sequences
        applied to both kernels in lock step; every outcome must match.
        """

        def __init__(self):
            super().__init__()
            self.contexts = _pair()

        def _both(self, name, *args):
            fast, seed = (_apply(ctx, name, *args) for ctx in self.contexts)
            if name in ("stat", "lstat"):
                fast, seed = _stat_fields(fast), _stat_fields(seed)
            assert fast == seed, "%s%r diverged: fast=%r seed=%r" % (
                name, args, fast, seed)

        @rule(path=_PATHS)
        def creat(self, path):
            self._both("creat", path, 0o644)

        @rule(path=_PATHS)
        def mkdir(self, path):
            self._both("mkdir", path, 0o755)

        @rule(path=_PATHS)
        def unlink(self, path):
            self._both("unlink", path)

        @rule(path=_PATHS)
        def rmdir(self, path):
            self._both("rmdir", path)

        @rule(src=_PATHS, dst=_PATHS)
        def rename(self, src, dst):
            self._both("rename", src, dst)

        @rule(link_target=_PATHS, link=_PATHS)
        def symlink(self, link_target, link):
            self._both("symlink", link_target, link)

        @rule(path=_PATHS)
        def stat(self, path):
            self._both("stat", path)

        @rule(path=_PATHS)
        def lstat(self, path):
            self._both("lstat", path)

        @rule(path=_PATHS)
        def read_contents(self, path):
            outcomes = []
            for ctx in self.contexts:
                try:
                    fd = ctx.trap(NR["open"], path, O_RDONLY)
                    data = ctx.trap(NR["read"], fd, 4096)
                    ctx.trap(NR["close"], fd)
                    outcomes.append(("ok", data))
                except SyscallError as err:
                    outcomes.append(("err", err.errno))
            assert outcomes[0] == outcomes[1], outcomes

        def teardown(self):
            # Final sweep: the two namespaces must have converged.
            for path in ("/", "/dir1", "/dir1/deep", "/dir2"):
                self._both("stat", path)

    FastpathEquivalence.TestCase.settings = settings(
        max_examples=25, stateful_step_count=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow])

    TestFastpathEquivalence = FastpathEquivalence.TestCase


# -- under interposition agents ------------------------------------------


def _union_txn_run(fastpaths):
    """One union+txn agent stack run; returns observable state."""
    from repro.agents.txn import TxnAgent
    from repro.agents.union_dirs import UnionAgent
    from repro.workloads import boot_world
    from tests.test_agent_stacks import run_stacked

    world = (boot_world() if fastpaths is None
             else boot_world(fastpaths=fastpaths))
    world.mkdir_p("/m1")
    world.mkdir_p("/m2")
    world.write_file("/m2/shadow.txt", "from member two")
    world.mkdir_p("/u")
    union = UnionAgent()
    union.pset.add_union("/u", ["/m1", "/m2"])
    txn = TxnAgent(scratch_dir="/tmp/eq.txn", outcome="abort")
    status = run_stacked(
        world, [union, txn], "/bin/sh",
        ["sh", "-c",
         "cat /u/shadow.txt; echo scribble > /u/shadow.txt; cat /u/shadow.txt"],
    )
    return (
        WEXITSTATUS(status),
        world.console.take_output(),
        world.read_file("/m2/shadow.txt"),
    )


def test_union_txn_agents_equivalent():
    """Union + aborted transaction: identical console output and, after
    the abort, identical (untouched) backing files — whiteout handling
    and copy-up must not be confused by stale name cache entries."""
    fast = _union_txn_run(None)
    seed = _union_txn_run("none")
    assert fast == seed
    assert fast[0] == 0
    assert b"from member two" in fast[1]
    assert b"scribble" in fast[1]              # txn saw its own write
    assert fast[2] == b"from member two"       # ...then aborted


def test_format_workload_output_identical():
    """The flagship workload's output document must be byte-identical
    between the default kernel and the seed configuration."""
    from repro.workloads import boot_world, format_dissertation

    outputs = []
    for flags in (None, "none"):
        world = (boot_world() if flags is None
                 else boot_world(fastpaths=flags))
        format_dissertation.setup(world)
        status = format_dissertation.run(world)
        assert WEXITSTATUS(status) == 0
        outputs.append(world.read_file(format_dissertation.OUTPUT))
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) > 10_000  # a real document, not a stub


def test_format_under_timex_watch_flush_points_identical():
    """Watch rules are evaluated at kernel entries; an interposed trap's
    compiled chain must enter the kernel exactly where the tower does,
    so evaluations and the final virtual clock match across routes."""
    from repro.agents.timex import TimexSymbolicSyscall
    from repro.obs.watch import enable_watches
    from repro.toolkit import run_under_agent
    from repro.workloads import boot_world, format_dissertation

    seen = []
    for flags in (None, "none"):
        world = (boot_world() if flags is None
                 else boot_world(fastpaths=flags))
        format_dissertation.setup(world)
        watches = enable_watches(world, "counter_rate trap|read > 1000\n",
                                 interval_usec=1000)
        status = run_under_agent(
            world, TimexSymbolicSyscall(offset=3600), "/usr/bin/scribe",
            ["scribe", format_dissertation.MANUSCRIPT,
             format_dissertation.OUTPUT])
        seen.append((WEXITSTATUS(status), watches.evals, world.clock.usec(),
                     world.read_file(format_dissertation.OUTPUT)))
    assert seen[0] == seen[1]
    assert seen[0][0] == 0
    assert seen[0][1] > 50
