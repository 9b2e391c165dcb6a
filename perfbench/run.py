"""The paper-matrix benchmark: the paper's applications under agent stacks.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload make --seed 1 --seconds 25 --trace 0

One process, one load-generating thread, a closed loop: one application
run at a time, each on a freshly booted world, the stacks of
``matrix.STACKS`` interleaved round by round (each round starts one
stack later).  Every run's output is checked against the run without
agents.  ``--trace 0`` times untraced runs for ``--seconds`` and reports
the end-to-end metrics; ``--trace 1`` spends half the time on untraced
runs and half on runs traced by ``layers.LayerTracer``, and reports the
per-layer metrics.  A human-readable report comes first; the last line
of standard output is the result as one JSON object.  See README.md.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: workload -> {stack: slowdown} from the paper (Tables 3-2 and 3-3),
#: for the ordering only: the simulator's absolute times are not
#: calibrated against the paper's machines
PAPER_SLOWDOWNS = {
    "format": {"timex": 0.005, "trace": 0.025, "union": 0.035},
    "make": {"timex": 0.19, "trace": 1.07, "union": 0.82},
    "make-observed": {"timex": 0.19, "trace": 1.07, "union": 0.82},
}

#: (workload, stack) pairs whose output check fails today because of a
#: defect in the program.  Their runs still count as failed; the entry
#: only keeps the failure from marking the whole result incorrect.
KNOWN_DEFECTS = {
    ("andrew", "deep"): "txn: ls -l of a directory made inside the "
                        "transaction, within another such directory, "
                        "returns ENOENT",
}

#: counters a traced run must share with the untraced runs (route check)
ROUTE_KEYS = ("traps", "fast", "compiled", "down_compiled", "forks",
              "execs", "sim_usec")


def describe(samples):
    """Median, quartiles, and the highest percentile with at least ten
    samples beyond it (None when there are fewer than twenty)."""
    ordered = sorted(samples)
    n = len(ordered)
    quartiles = (statistics.quantiles(ordered, n=4) if n > 1
                 else [ordered[0]] * 3)
    tail = None
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100.0 >= 10:
            tail = (pct, statistics.quantiles(ordered, n=100)[pct - 1])
            break
    return {"n": n, "median": statistics.median(ordered),
            "q1": quartiles[0], "q3": quartiles[2], "tail": tail}


class Matrix:
    """The runs of one benchmark invocation and the checks on them."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.runs = []        # untraced
        self.traced = []
        self.reference = None  # the warm-up run without agents
        self.problems = []    # reasons the result is not correct
        self.failures = []    # (run, reason) for failed application runs

    def check(self, run):
        """Record *run* as failed when its output check fails."""
        reason = None
        if run.error is not None:
            reason = run.error
        elif run.status != 0:
            reason = "wait status %r" % (run.status,)
        elif run.digest != self.reference.digest:
            reason = "output differs from the run without agents"
        if reason is not None:
            self.failures.append((run, reason))
            if (self.workload.name, run.stack) not in KNOWN_DEFECTS:
                self.problems.append("%s: %s" % (run.stack, reason))

    def warm_up(self, stacks):
        """One untimed run per stack: imports and lazy set-up finish, and
        the run without agents becomes the reference output."""
        from matrix import run_once

        for stack in stacks:
            run = run_once(self.workload, stack, self.seed)
            if stack == "none":
                self.reference = run
                if run.error or run.status != 0 or run.missing:
                    self.problems.append(
                        "reference run failed: status %r error %r missing %r"
                        % (run.status, run.error, run.missing))

    def route_check(self, run):
        """A traced run must take the untraced runs' route."""
        base = self.first_untraced(run.stack).counters
        differ = [key for key in ROUTE_KEYS
                  if run.counters[key] != base[key]]
        if differ:
            self.problems.append(
                "traced %s run changed route: %s" % (run.stack, ", ".join(
                    "%s %d != %d" % (k, run.counters[k], base[k])
                    for k in differ)))

    def first_untraced(self, stack):
        return next(run for run in self.runs if run.stack == stack)

    def of(self, runs, stack):
        return [run for run in runs if run.stack == stack]


def rounds(matrix, stacks, deadline, tracer_factory=None):
    """Run rounds of every stack until *deadline*; at least one round."""
    from matrix import REFERENCE_CALIBRATION_S, calibrate, run_once

    index = 0
    before = calibrate()
    while True:
        order = stacks[index % len(stacks):] + stacks[:index % len(stacks)]
        for stack in order:
            tracer = tracer_factory() if tracer_factory else None
            run = run_once(matrix.workload, stack, matrix.seed, tracer)
            after = calibrate()
            run.scale = REFERENCE_CALIBRATION_S / ((before + after) / 2)
            before = after
            run.round = index
            matrix.check(run)
            if tracer is None:
                matrix.runs.append(run)
            else:
                matrix.route_check(run)
                matrix.traced.append(run)
        index += 1
        if time.perf_counter() >= deadline:
            return


def end_to_end(matrix, stacks):
    runs = matrix.runs
    metrics = {"setup_s": (
        statistics.median(r.ref(r.setup_s) for r in runs), "s")}
    for stack in stacks:
        metrics["run_s." + stack] = (statistics.median(
            r.ref(r.run_s) for r in matrix.of(runs, stack)), "s")
    metrics["traps_per_s"] = (
        sum(r.counters["traps"] for r in runs)
        / sum(r.ref(r.run_s) for r in runs), "1/s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(matrix, stacks):
    from layers import LAYERS

    metrics = {}
    for stack in stacks:
        traced = matrix.of(matrix.traced, stack)
        untraced = matrix.of(matrix.runs, stack)
        base = matrix.first_untraced(stack).counters
        layer_keys = ([name + ".self_s" for name in LAYERS]
                      + ["kernel.proc.wait_s", "kernel.dispatch.build_s"])
        for key in layer_keys:
            metrics[key + "." + stack] = (
                statistics.median(r.ref(r.layers[key]) for r in traced), "s")
        for key in (["calls." + name for name in LAYERS]
                    + ["kernel.dispatch.builds"]):
            metrics[key + "." + stack] = (
                statistics.median(r.layers[key] for r in traced), "count")
        traps = base["traps"]
        lookups = base["namecache_hits"] + base["namecache_misses"]
        metrics.update({
            "kernel.trap.fast_frac." + stack: (base["fast"] / traps, "ratio"),
            "kernel.trap.compiled_frac." + stack: (
                base["compiled"] / traps, "ratio"),
            "kernel.down.compiled." + stack: (base["down_compiled"], "count"),
            "kernel.namecache.hit_ratio." + stack: (
                base["namecache_hits"] / lookups if lookups else 0.0, "ratio"),
            "obs.recorder.decisions." + stack: (
                base["recorder_decisions"], "count"),
            "sim_usec." + stack: (base["sim_usec"], "usec"),
        })
        both = untraced + traced
        failed = sum(1 for run, _ in matrix.failures if run.stack == stack)
        metrics["failed_frac." + stack] = (failed / len(both), "ratio")
        metrics["trace_overhead." + stack] = (
            statistics.median(r.ref(r.run_s) for r in traced)
            / statistics.median(r.ref(r.run_s) for r in untraced), "ratio")
    spine, toolkit = statement_counts()
    metrics["stmts.spine"] = (spine, "count")
    metrics["stmts.toolkit"] = (toolkit, "count")
    return metrics


def statement_counts():
    """Statements in the trap-dispatch spine and in the toolkit layers an
    object-layer agent links against (the Table 3-1 method)."""
    from repro.bench.loc import (count_statements, modules_statements,
                                 toolkit_layers)

    spine = 0
    for rel in ("kernel/trap.py", "kernel/compile.py",
                "toolkit/compile_support.py", "kernel/fastpath.py"):
        path = os.path.join(SRC, "repro", rel)
        if os.path.exists(path):  # compile*.py are younger than the rest
            with open(path) as source:
                spine += count_statements(source.read())
    return spine, modules_statements(toolkit_layers(True))


def paired_slowdowns(runs, stacks):
    """Per stack, the median over rounds of its run time over the run
    without agents of the same round, minus one."""
    by_round = {}
    for run in runs:
        by_round.setdefault(run.round, {})[run.stack] = run.ref(run.run_s)
    return {stack: statistics.median(
                times[stack] / times["none"] - 1 for times in by_round.values())
            for stack in stacks if stack != "none"}


def report(matrix, stacks, metrics, args):
    """The human-readable report (everything before the JSON line)."""
    name = matrix.workload.name
    out = ["paper-matrix benchmark: workload %s, seed %d, %d s, trace %d"
           % (name, args.seed, args.seconds, args.trace)]
    attempted = len(matrix.runs) + len(matrix.traced)
    out.append("application runs: %d untraced, %d traced; %d failed "
               "(failed_frac %.4f)" % (len(matrix.runs), len(matrix.traced),
                                       len(matrix.failures),
                                       len(matrix.failures) / attempted))
    out.append("reference output digest (no agents, this seed): %s"
               % matrix.reference.digest[:16])
    reasons = Counter((run.stack, reason) for run, reason in matrix.failures)
    for (stack, reason), count in sorted(reasons.items()):
        known = KNOWN_DEFECTS.get((name, stack))
        out.append("  failed %dx under %s: %s%s" % (
            count, stack, reason, " [known defect: %s]" % known if known else ""))
    for problem in matrix.problems:
        out.append("  INCORRECT: " + problem)
    slow = paired_slowdowns(matrix.runs, stacks)
    paper = PAPER_SLOWDOWNS.get(name, {})
    out.append("")
    out.append("%-6s %9s %9s %9s %15s %4s %9s %9s %7s" % (
        "stack", "run_s", "q1", "q3", "tail", "n", "host_s", "slowdown",
        "paper"))
    for stack in stacks:
        runs = matrix.of(matrix.runs, stack)
        d = describe([r.ref(r.run_s) for r in runs])
        tail = ("p%d %.5f" % d["tail"]) if d["tail"] else "-"
        out.append("%-6s %9.5f %9.5f %9.5f %15s %4d %9.5f %9s %7s" % (
            stack, d["median"], d["q1"], d["q3"], tail, d["n"],
            statistics.median(r.run_s for r in runs),
            "%+.1f%%" % (100 * slow[stack]) if stack in slow else "",
            "%+.1f%%" % (100 * paper[stack]) if stack in paper else ""))
    d = describe([r.ref(r.setup_s) for r in matrix.runs])
    out.append("setup_s median %.5f q1 %.5f q3 %.5f n %d" % (
        d["median"], d["q1"], d["q3"], d["n"]))
    out.append("(times in reference seconds, see README.md; host_s: median "
               "host seconds)")
    out.append("(slowdown: median over rounds of run_s / run_s of none in "
               "the same round, minus one; paper: Tables 3-2/3-3, for the "
               "ordering only)")
    out.append("")
    for key in sorted(metrics):
        value, unit = metrics[key]
        out.append("%-36s %16.6f %s" % (key, value, unit))
    return "\n".join(out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program source under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from layers import LayerTracer
    from matrix import STACKS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (have: %s)"
                     % (args.workload, ", ".join(WORKLOADS)))
    if hasattr(os, "sched_setaffinity"):
        # The simulated machine is a uniprocessor whose processes are
        # host threads serialized by one kernel lock.  On one CPU every
        # hand-off between them stays on that CPU; spread over several,
        # the cross-CPU wake-ups cost more and vary with the neighbours.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    matrix = Matrix(WORKLOADS[args.workload], args.seed)
    stacks = list(STACKS)
    matrix.warm_up(stacks)
    start = time.perf_counter()
    rounds(matrix, stacks,
           start + (args.seconds / 2 if args.trace else args.seconds))
    if args.trace:
        package = os.path.join(SRC, "repro")
        rounds(matrix, stacks, start + args.seconds,
               lambda: LayerTracer(package))
        metrics = per_layer(matrix, stacks)
    else:
        metrics = end_to_end(matrix, stacks)
    print(report(matrix, stacks, metrics, args))
    print(json.dumps({
        "correct": not matrix.problems,
        "attempted": len(matrix.runs) + len(matrix.traced),
        "failed": len(matrix.failures),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
