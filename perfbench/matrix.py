"""The paper's applications, the agent stacks they run under, and one
checked application run.

Every run boots a fresh world, sets the workload up from the seed, and
then times one whole application run from outside, under one agent
stack.  The run's output -- the files under the workload's directory
plus the console -- is reduced to a digest, so that a caller can check
it against the run without agents: agents are transparent.
"""

import gc
import hashlib
import time
from contextlib import nullcontext

import repro.workloads.afs_bench as afs
import repro.workloads.format_dissertation as fmt
import repro.workloads.make_programs as mk
from repro.agents import AGENTS, load_all
from repro.kernel.errno import SyscallError
from repro.workloads import boot_world

#: the stacks every workload runs, bottom-up: the paper's agents and
#: one three-deep stack (union under a committing transaction under
#: the monitor)
STACKS = ("none", "timex", "trace", "union", "deep")


class Workload:
    """One application: how to set it up, run it, and check it."""

    def __init__(self, name, module, directory, path, argv, outputs,
                 boot=None):
        self.name = name
        self.module = module
        #: where the application reads and writes; the union covers it
        self.directory = directory
        self.path = path
        self.argv = argv
        #: files the run without agents must leave behind, non-empty
        self.outputs = outputs
        #: ``boot_world`` keyword arguments
        self.boot = boot or {}


_MAKE_ARGS = (mk, mk.SRC_DIR, "/bin/sh", ["sh", "-c", "cd %s; make" % mk.SRC_DIR],
              ["%s/prog%d" % (mk.SRC_DIR, i)
               for i in range(1, mk.PROGRAM_COUNT + 1)])

WORKLOADS = {
    "format": Workload(
        "format", fmt, "/home/mbj/diss", "/usr/bin/scribe",
        ["scribe", fmt.MANUSCRIPT, fmt.OUTPUT], [fmt.OUTPUT]),
    "make": Workload("make", *_MAKE_ARGS),
    "andrew": Workload(
        "andrew", afs, afs.BASE, "/bin/sh",
        ["sh", afs.BASE + "/run_andrew.sh"],
        [afs.TREE + "/andrew1", afs.TREE + "/andrew2"]),
    "make-observed": Workload(
        "make-observed", *_MAKE_ARGS, boot={"obs": "metrics,record"}),
}


def build_stack(name, directory):
    """Fresh agents for one run of stack *name*, bottom-up."""
    load_all()

    def union():
        agent = AGENTS["union"]()
        # the workload's own directory, with a second member, so that
        # every name the application resolves goes through the union
        agent.pset.add_union(directory, [directory, "/usr/tmp"])
        return agent

    if name == "none":
        return []
    if name == "timex":
        agent = AGENTS["timex"]()
        agent.offset = 3600
        return [agent]
    if name == "trace":
        return [AGENTS["trace"]("/tmp/trace.out")]
    if name == "union":
        return [union()]
    if name == "deep":
        return [union(),
                AGENTS["txn"](scratch_dir="/tmp/txn.scratch", outcome="commit"),
                AGENTS["monitor"]("/tmp/monitor.out")]
    raise ValueError("unknown stack %r" % (name,))


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def add(self, other):
        return self.value + other


#: host seconds the calibration takes on the reference host; times are
#: reported in seconds on that host (see README.md, "Reference seconds")
REFERENCE_CALIBRATION_S = 0.010


def calibrate(iterations=20000):
    """Host seconds for a fixed piece of pure-Python work in the style of
    the simulator (small objects, method calls, dict updates).  Timing
    it beside every application run measures how fast the host is
    running at that moment; see README.md, "Reference seconds"."""
    table = {}
    total = 0
    started = time.perf_counter()
    for i in range(iterations):
        total = _Cell(i).add(total)
        key = i & 255
        table[key] = table.get(key, 0) + 1
    return time.perf_counter() - started


class Run:
    """What one application run did."""

    def __init__(self, stack, setup_s, run_s, status, digest, counters,
                 missing, error=None, layers=None):
        self.stack = stack
        self.setup_s = setup_s
        self.run_s = run_s
        self.status = status
        self.digest = digest
        self.counters = counters
        #: expected outputs the run did not leave behind
        self.missing = missing
        #: the host exception that ended the run, if one did
        self.error = error
        #: the LayerTracer result when the run was traced
        self.layers = layers
        #: reference seconds per host second at the time of the run
        self.scale = 1.0
        self.round = 0

    def ref(self, seconds):
        """*seconds* of host time during this run, in reference seconds."""
        return seconds * self.scale


def counters(kernel):
    """The kernel's cumulative counters, for differencing around a run."""
    cache = kernel.namecache
    rec = kernel.recorder
    return {
        "traps": kernel.trap_total,
        "fast": kernel.trap_fast_total,
        # absent before compiled dispatch existed
        "compiled": getattr(kernel, "trap_compiled_total", 0),
        "down_compiled": getattr(kernel, "down_compiled_total", 0),
        "forks": kernel.fork_total,
        "execs": kernel.exec_total,
        "sim_usec": kernel.clock.usec(),
        "namecache_hits": cache.hits if cache is not None else 0,
        "namecache_misses": cache.misses if cache is not None else 0,
        "recorder_decisions": len(rec.decisions) if rec is not None else 0,
    }


def output_digest(kernel, directory):
    """Digest of every file under *directory* (names and contents) and of
    everything written to the console."""
    digest = hashlib.sha256()

    def walk(path):
        node = kernel.lookup_host(path)
        if node.is_dir():
            digest.update(b"d " + path.encode() + b"\0")
            for name in sorted(n for n in node.entries if n not in (".", "..")):
                walk(path + "/" + name)
        else:
            digest.update(b"f " + path.encode() + b"\0")
            digest.update(bytes(node.data) + b"\0")

    walk(directory)
    digest.update(b"console\0" + kernel.console.take_output())
    return digest.hexdigest()


def _missing_outputs(kernel, paths):
    missing = []
    for path in paths:
        try:
            if not kernel.lookup_host(path).data:
                missing.append(path)
        except SyscallError:
            missing.append(path)
    return missing


def run_once(workload, stack, seed, tracer=None):
    """Boot, set up, and run *workload* once under *stack*; with a
    LayerTracer, trace the application run (and only it)."""
    started = time.perf_counter()
    kernel = boot_world(**workload.boot)
    workload.module.setup(kernel, seed)
    setup_s = time.perf_counter() - started

    agents = build_stack(stack, workload.directory)
    before = counters(kernel)
    error = None
    status = None
    gc.collect()
    started = time.perf_counter()
    with tracer.tracing() if tracer is not None else nullcontext():
        try:
            if agents:
                status = kernel.run_entry(_loader(agents, workload))
            else:
                status = kernel.run(workload.path, workload.argv)
        except Exception as exc:  # the run fails; the benchmark goes on
            error = "%s: %s" % (type(exc).__name__, exc)
    run_s = time.perf_counter() - started

    after = counters(kernel)
    delta = {key: after[key] - before[key] for key in after}
    return Run(stack, setup_s, run_s, status,
               output_digest(kernel, workload.directory), delta,
               _missing_outputs(kernel, workload.outputs), error,
               tracer.result() if tracer is not None else None)


def _loader(agents, workload):
    # the toolkit's agent loader, generalised to a stack: attach each
    # agent bottom-up, then exec the client through the top one
    def loader(ctx):
        for agent in agents:
            agent.attach(ctx)
        agents[-1].exec_client(workload.path, list(workload.argv), {})

    return loader
