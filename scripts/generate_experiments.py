"""Regenerate EXPERIMENTS.md: run every paper table and record the results.

Run with:  python scripts/generate_experiments.py
"""

import datetime
import io
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from repro.agents import load_all  # noqa: E402

load_all()

from benchmarks import (  # noqa: E402
    bench_ablation_layers as ablation,
    bench_agent_placement as placement,
    bench_kernel_fastpath as fastpath_bench,
    bench_obs_overhead as obs_bench,
    bench_sec_3_5_3_dfstrace as dfs,
    bench_table_3_1_agent_sizes as t31,
    bench_table_3_2_format as t32,
    bench_table_3_4_lowlevel as t34,
    bench_table_3_5_syscalls as t35,
)

HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction of the evaluation of *Interposition Agents: Transparently
Interposing User Code at the System Interface* (Michael B. Jones,
SOSP '93).  Regenerate this file with
``python scripts/generate_experiments.py``; each table can also be run
individually (``python -m benchmarks.bench_table_3_2_format``) or through
pytest-benchmark (``pytest benchmarks/ --benchmark-only``).

The paper measured a Mach 2.5 / 4.3BSD system on a VAX 6250 and a
25 MHz Intel 486; this reproduction measures a simulated 4.3BSD kernel
in Python (see DESIGN.md).  Absolute numbers therefore differ by
construction; the claims under test are the *shapes* recorded for each
table below.

"""


def _rows_to_md(headers, rows, fmt):
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(fmt(cell) for cell in row) + " |")
    return "\n".join(out)


def _fmt(cell):
    if isinstance(cell, float):
        return "%.3f" % cell
    return str(cell)


def table_3_1(out):
    out.write("## Table 3-1 — sizes of agents (statements)\n\n")
    out.write("Paper (semicolon counts of C/C++): timex 2467 toolkit + 35 "
              "agent; trace 2467 + 1348; union 3977 + 166.\n\n")
    out.write("Measured (Python AST statements):\n\n")
    rows = t31.rows()
    out.write(_rows_to_md(("agent", "toolkit", "agent-specific", "total"),
                          rows, _fmt))
    by_name = {r[0]: r for r in rows}
    out.write("\n\nShape checks: toolkit dominates timex by %.0fx (paper "
              "70x); trace/timex agent-code ratio %.0fx (paper 39x); union "
              "changes ~70 calls in %d statements (paper 166); the "
              "object-layer toolkit is %.2fx the symbolic-only toolkit "
              "(paper 1.61x).\n\n"
              % (by_name["timex"][1] / by_name["timex"][2],
                 by_name["trace"][2] / by_name["timex"][2],
                 by_name["union"][2],
                 by_name["union"][1] / by_name["timex"][1]))


def table_3_2(out):
    out.write("## Table 3-2 — time to format a dissertation\n\n")
    out.write("Paper (VAX 6250, 716 syscalls, 81.3 s base): timex +0.5%, "
              "trace +2.5%, union +3.5%.\n\nMeasured (interleaved rounds, "
              "slowdown = median of per-round paired ratios; our "
              "manuscript drives ~750 syscalls in a single process):\n\n")
    rows = [(n, "%.3f s" % s, "%+.1f%%" % p) for n, s, p in t32.rows()]
    out.write(_rows_to_md(("agent", "seconds", "slowdown"), rows, _fmt))
    out.write("\n\nShape: every slowdown is in the single-digit band the "
              "paper reports, an order of magnitude below Table 3-3's — "
              "the workload is dominated by formatting CPU, and agent "
              "cost is pay-per-use.  timex is cheapest; trace and union "
              "sit within a couple of points of each other, as in the "
              "paper (its spread across all three agents was only 3 "
              "percentage points).\n\n")


def table_3_3(out, seconds=25):
    # The paper-matrix benchmark's harness (perfbench/): a fresh world
    # per run, the stacks interleaved round by round, paired slowdowns.
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import run as perfbench
    from matrix import STACKS, WORKLOADS

    matrix = perfbench.Matrix(WORKLOADS["make"], 1)
    # Pinned to one CPU, as perfbench/run.py runs it: cross-CPU thread
    # hand-offs roughly double make's run time and its spread.
    pin = hasattr(os, "sched_setaffinity")
    cpus = os.sched_getaffinity(0) if pin else None
    if pin:
        os.sched_setaffinity(0, {min(cpus)})
    try:
        matrix.warm_up(STACKS)
        perfbench.rounds(matrix, STACKS, time.perf_counter() + seconds)
    finally:
        if pin:
            os.sched_setaffinity(0, cpus)
    slow = perfbench.paired_slowdowns(matrix.runs, STACKS)
    labels = {"deep": "union+txn+monitor"}
    rows = []
    for stack in STACKS:
        runs = matrix.of(matrix.runs, stack)
        rows.append((labels.get(stack, stack),
                     "%.3f s" % statistics.median(r.ref(r.run_s) for r in runs),
                     "%+.1f%%" % (100 * slow.get(stack, 0.0))))
    out.write("## Table 3-3 — time to make 8 programs\n\n")
    out.write("Paper (25 MHz i486, 64 fork/execve pairs, 16.0 s base): "
              "timex +19%%, union +82%%, trace +107%%.\n\nMeasured (same "
              "64 fork/execve pairs) with `python3 perfbench/run.py "
              "--workload make --seed 1 --seconds %d`: seconds are the "
              "median run time in the benchmark's reference seconds, and "
              "the slowdown is the median over interleaved rounds of each "
              "agent's run time over the agent-free run of the same round "
              "(%d rounds).\n\n" % (seconds, len(matrix.of(matrix.runs,
                                                           "none"))))
    out.write(_rows_to_md(("agent", "seconds", "slowdown"), rows, _fmt))
    out.write("\n\nShape: slowdowns are an order of magnitude larger than "
              "Table 3-2's (heavy system call use); timex is the "
              "cheapest agent, trace the most expensive (two trace-log "
              "writes per traced call), union in between — the paper's "
              "ordering.  All make processes under an agent share one "
              "dispatch table, whose rows are built on first use, so a "
              "fork or exec costs no table build.  Our magnitudes run "
              "higher than the paper's because the simulated kernel's "
              "per-call work is small relative to Python-level "
              "interposition.\n\n")


def table_3_4(out):
    out.write("## Table 3-4 — low-level operation costs\n\n")
    out.write("Paper (usec): procedure call 1.22; virtual call 1.94; "
              "intercept+return 30; htg_unix_syscall overhead 37.\n\n"
              "Measured (usec):\n\n")
    rows = [(k, "%.3f" % v) for k, v in t34.measurements().items()]
    out.write(_rows_to_md(("operation", "usec"), rows, _fmt))
    out.write("\n\nShape: plain call <= virtual call << intercept-and-"
              "return ~ htg overhead, the paper's ordering and ratios "
              "(interception costs tens of calls, and the bypass trap "
              "costs about as much as interception).\n\n")


def table_3_5(out):
    out.write("## Table 3-5 — per-system-call costs under time_symbolic\n\n")
    out.write("Paper (usec, no agent / with agent / overhead): getpid "
              "25/165/140; gettimeofday 47/201/154; fstat 128/320/192; "
              "read-1K 370/512/142; stat 892/1056/164; fork+wait+_exit "
              "and execve overheads ~10 ms (roughly doubling).\n\n"
              "Measured (usec):\n\n")

    def table(counted):
        rows = [(op, "%.1f" % a, "%.1f" % b, "%.1f" % c)
                for op, a, b, c in t35.rows(counted)]
        return _rows_to_md(("operation", "no agent", "with agent",
                            "overhead"), rows, _fmt)

    out.write(table(False))
    out.write("\n\nMeasured (Python calls per operation on every thread, "
              "the unit the benchmark's shape checks use: a cheap call's "
              "overhead is below the host clock's noise, its call count "
              "does not vary):\n\n")
    out.write(table(True))
    out.write("\n\nShape: the interception overhead is roughly constant "
              "across the cheap calls, so its relative cost is large for "
              "getpid/gettimeofday and modest for stat; fork and "
              "(especially) the toolkit's reimplemented execve cost "
              "several times the cheap-call overhead.  The toolkit's "
              "execve roughly doubles the native one, as in the "
              "paper.\n\n")


def section_3_5_3(out):
    out.write("## Section 3.5.3 — DFSTrace: agent vs. monolithic\n\n")
    out.write("Paper: kernel-based 3.0% slowdown vs agent-based 64% on the "
              "AFS benchmarks; 1627 vs 1584 statements; 26 kernel files "
              "modified vs 0.\n\nMeasured (Andrew-style 5-phase "
              "benchmark):\n\n")
    rows = [(m, "%.3f s" % s, "%+.1f%%" % p) for m, s, p in dfs.timing_rows()]
    out.write(_rows_to_md(("mode", "seconds", "slowdown"), rows, _fmt))
    out.write("\n\n")
    size_rows = dfs.size_rows()
    files_rows = dfs.kernel_files_modified()
    out.write(_rows_to_md(("implementation", "statements"), size_rows, _fmt))
    out.write("\n\n")
    out.write(_rows_to_md(("implementation", "kernel files modified"),
                          files_rows, _fmt))
    kernel_records, agent_records = dfs.record_equivalence()
    out.write("\n\nShape: the monolithic implementation's slowdown is far "
              "below the agent's; the two implementations are the same "
              "size ballpark; the agent modifies no kernel files; and the "
              "traces are compatible (agent run captured %d records, "
              "kernel collector %d including the agent's own machinery).\n\n"
              % (len(agent_records), len(kernel_records)))


def ablation_section(out):
    out.write("## Ablation (ours) — layer depth and tracer layer choice\n\n")
    out.write("Not a paper table; quantifies two design choices the paper "
              "argues qualitatively.\n\n**A. Per-call cost by interposition "
              "depth** (pass-through agents at successive layers):\n\n")
    rows = [(label, "%.2f" % g, "%.2f" % s)
            for label, g, s in ablation.layer_cost_rows()]
    out.write(_rows_to_md(("configuration", "getpid usec", "stat usec"),
                          rows, _fmt))
    out.write("\n\n**B. Tracer code size by layer** (the trade behind Table "
              "3-1's trace row — symbolic-layer tracing formats every call, "
              "so its size is proportional to the interface):\n\n")
    out.write(_rows_to_md(("tracer", "statements"), ablation.tracer_rows(),
                          _fmt))
    out.write("\n\nShape: each layer adds a measurable per-call cost over "
              "the bare kernel, and the numeric tracer is several times "
              "smaller than the symbolic one at the price of raw, "
              "uninterpreted output.\n\n")
    out.write("**C. Agent placement** (the paper: its numbers \"are "
              "strongly shaped by agents residing in the address spaces "
              "of their clients\"; the same pass-through agent placed in "
              "a separate agent task reached by message-passing IPC):\n\n")
    rows = [(p, "%.2f" % u) for p, u in placement.placement_rows()]
    out.write(_rows_to_md(("placement", "getpid usec"), rows, _fmt))
    out.write("\n\nShape: the separate-address-space placement costs many "
              "times the in-space one per intercepted call — the cost a "
              "ptrace- or server-based interposition mechanism pays, and "
              "the reason the Mach same-space design matters.\n\n")


def obs_overhead_section(out):
    out.write("## Observability overhead (ours) — the observer's own "
              "pay-per-use\n\n")
    out.write("Not a paper table; the kernel's observability layer "
              "(`repro.obs`: event bus, metrics registry, ktrace ring "
              "buffer) applied the paper's pay-per-use standard to "
              "itself.  Disabled — the default — every instrumentation "
              "site is a single `is None` test; the acceptance bar is "
              "the disabled format-dissertation run staying within 3% "
              "of the pre-observability baseline.\n\n**A. Format "
              "workload** (no agent; interleaved rounds, paired "
              "slowdowns against the disabled configuration):\n\n")
    rows = [(c, "%.3f s" % s, "%+.1f%%" % p)
            for c, s, p in obs_bench.macro_rows()]
    out.write(_rows_to_md(("observability", "seconds", "slowdown"),
                          rows, _fmt))
    out.write("\n\n**B. One uninterposed getpid trap**:\n\n")
    rows = [(c, "%.3f" % u) for c, u in obs_bench.micro_rows()]
    out.write(_rows_to_md(("observability", "usec"), rows, _fmt))
    out.write("\n\n**C. In-band layer attribution** (pass-through "
              "agents; must order as the external ablation table "
              "does):\n\n")
    rows = [(layer, count, "%.2f" % mean)
            for layer, count, mean in obs_bench.attribution_rows()]
    out.write(_rows_to_md(("layer", "calls", "mean handler usec"),
                          rows, _fmt))
    out.write("\n\n**D. Agent attribution on the format workload** "
              "(what the trace and union agents' layers cost, read "
              "from the registry after the run):\n\n")
    rows = [(name, layer, count, "%.2f" % mean, "%.0f" % total)
            for name, layer, count, mean, total
            in obs_bench.agent_attribution_rows()]
    out.write(_rows_to_md(("agent", "layer", "calls", "mean usec",
                           "total usec"), rows, _fmt))
    out.write("\n\nShape: the disabled configuration is indistinguishable "
              "from the Table 3-2 baseline (pay-per-use holds for the "
              "observer); metrics cost single-digit percent on this "
              "CPU-dominated workload and full firehose tracing a few "
              "points more; the in-band layer means reproduce the "
              "ablation's external ordering; and the trace agent's "
              "per-call handler time exceeds union's (it formats and "
              "logs every call), matching Table 3-3's agent ordering.\n\n")


def fastpath_section(out):
    out.write("## Kernel fast paths (ours) — name cache, trap dispatch, "
              "zero-copy\n\n")
    out.write("Not a paper table; PR 2's flag-gated kernel fast paths "
              "(`repro.kernel.fastpath`), measured against the seed code "
              "paths (`off` = every flag disabled, bit-for-bit the seed "
              "kernel — `tests/test_fastpath_equivalence.py` checks "
              "that).  See docs/PERFORMANCE.md for the design.\n\n"
              "**A. Whole workloads per flag configuration** (interleaved "
              "rounds, paired slowdowns vs `off`; negative = faster):\n\n")
    for workload in fastpath_bench.WORKLOADS:
        rows = [(c, "%.3f s" % s, "%+.1f%%" % p)
                for c, s, p in fastpath_bench.macro_rows(workload)]
        out.write("*%s*:\n\n" % workload)
        out.write(_rows_to_md(("config", "seconds", "vs off"), rows, _fmt))
        out.write("\n\n")
    out.write("**B. Per-operation costs** (the operations the fast paths "
              "actually target):\n\n")
    rows = [(op, c, "%.3f" % u) for op, c, u in fastpath_bench.micro_rows()]
    out.write(_rows_to_md(("operation", "config", "usec"), rows, _fmt))
    out.write("\n\n**C. Name cache counters after one format run** "
              "(config `all`):\n\n")
    stats = fastpath_bench.cache_stats_after("format", "all")
    out.write(_rows_to_md(("counter", "value"),
                          sorted(stats.items()), _fmt))
    out.write("\n\nShape: the per-operation wins are real and targeted — "
              "the uninterposed trap and the large read get markedly "
              "cheaper, the deep stat slightly (component lookups were "
              "already dict hits; the cache mostly removes inode-probe "
              "and symlink-test work, and permission checks remain "
              "per-component by design).  Whole-workload effect is "
              "bounded by Amdahl's law: format is ~98% formatter CPU, "
              "and make's wall clock is dominated by process joins, so "
              "single-digit macro deltas are the honest expectation — "
              "the pay-per-use shape (Tables 3-2/3-3, obs overhead) is "
              "unchanged by the fast paths.\n\n")


def lint_section(out):
    from repro.lint import RULES, run_lint

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    result = run_lint([os.path.join(root, "src", "repro", "agents"),
                       os.path.join(root, "src", "repro", "toolkit"),
                       os.path.join(root, "src", "repro", "kernel")])
    summary = result.to_dict()["summary"]
    out.write("## Static protocol analysis (ours) — agentlint self-scan\n\n")
    out.write("Not a paper table; the result of running `repro-lint` "
              "(`repro.lint`, see docs/LINTING.md) over the shipped agents, "
              "toolkit, and kernel.  The linter statically proves the "
              "protocol obligations the paper states qualitatively — "
              "Goal 2's \"use and provide the entire system interface\" "
              "(L001, L007), Section 2.3's invocation, refcount, errno and "
              "signal disciplines (L002-L005), and the layering that "
              "makes agents stack (L006) — without importing or "
              "executing the code under analysis.  The flow rules "
              "(F001-F005) go further: path-sensitive dataflow over "
              "per-function CFGs catches statically the error-path bugs "
              "(inode leak on a failed commit, refcount imbalance on an "
              "early return, unbounded blocking in a handler) that the "
              "fault-injection campaign caught dynamically.\n\n")
    rows = []
    for rule_id in sorted(RULES):
        rows.append((rule_id, RULES[rule_id].summary,
                     summary["by_rule"].get(rule_id, 0),
                     summary["suppressed_by_rule"].get(rule_id, 0)))
    out.write(_rows_to_md(("rule", "checks", "active", "suppressed"),
                          rows, _fmt))
    out.write("\n\nShape: %d file(s), %d active finding(s), %d "
              "suppressed with in-source justifications (ownership-"
              "transfer points in the descriptor refcount machinery and "
              "the separate-space agent's IPC syscall/signal "
              "forwarding).  CI fails on any non-suppressed finding, so "
              "this table staying all-zeros in the `active` column is "
              "enforced, not aspirational.\n\n"
              % (len(result.files), summary["active"],
                 summary["suppressed"]))


def main():
    out = io.StringIO()
    out.write(HEADER)
    out.write("Measured on: Python %s, %s. Generated %s.\n\n"
              % (platform.python_version(), platform.platform(),
                 datetime.date.today().isoformat()))
    print("Table 3-1 ...", flush=True)
    table_3_1(out)
    print("Table 3-2 ...", flush=True)
    table_3_2(out)
    print("Table 3-3 ...", flush=True)
    table_3_3(out)
    print("Table 3-4 ...", flush=True)
    table_3_4(out)
    print("Table 3-5 ...", flush=True)
    table_3_5(out)
    print("Section 3.5.3 ...", flush=True)
    section_3_5_3(out)
    print("Ablation ...", flush=True)
    ablation_section(out)
    print("Observability overhead ...", flush=True)
    obs_overhead_section(out)
    print("Kernel fast paths ...", flush=True)
    fastpath_section(out)
    print("agentlint self-scan ...", flush=True)
    lint_section(out)
    path = "EXPERIMENTS.md"
    if len(sys.argv) > 1:
        path = sys.argv[1]
    with open(path, "w") as f:
        f.write(out.getvalue())
    print("wrote", path)


if __name__ == "__main__":
    main()
