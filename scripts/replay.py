#!/usr/bin/env python3
"""replay — record, re-execute, and bisect deterministic runs.

The CLI for :mod:`repro.obs.timetravel`.  Four subcommands::

    PYTHONPATH=src python scripts/replay.py record --seed 21 \\
        --policy fail-open --mechanism rail --workload files \\
        -o run21.rrlog
    PYTHONPATH=src python scripts/replay.py replay run21.rrlog
    PYTHONPATH=src python scripts/replay.py bisect run21.rrlog
    PYTHONPATH=src python scripts/replay.py smoke --seeds 5 -o logs/

``record`` runs one seeded chaos scenario with the recorder attached
and writes the nondeterminism log (an ``.rrlog``: one decision per
line, scenario parameters in the header — greppable and diffable).
``replay`` re-executes it and verifies the log is consumed exactly;
exit 1 with the structured divergence on any departure.  ``bisect``
replays once per recorded fault-site firing with that one injection
suppressed, naming the first fault the outcome depends on.  ``smoke``
is the CI job: record + replay the format-dissertation run plus a
cycle of chaos seeds, demanding bit-identical event streams.

See docs/OBSERVABILITY.md ("Record, replay, bisect") for the model.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.obs import rrlog  # noqa: E402
from repro.obs.recorder import ReplayDivergence  # noqa: E402
from repro.obs.timetravel import (  # noqa: E402
    bisect_run,
    compare_runs,
    record_run,
    replay_run,
)
from repro.workloads.chaos import (  # noqa: E402
    MECHANISMS,
    POLICIES,
    WORKLOADS,
)


def _add_scenario_args(parser):
    parser.add_argument("--seed", type=int, default=0,
                        help="scenario seed (default 0)")
    parser.add_argument("--policy", choices=POLICIES, default="fail-open")
    parser.add_argument("--mechanism", choices=MECHANISMS, default="wrapper")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="files")
    parser.add_argument("--agent-rate", type=float, default=0.05,
                        help="per-call agent fault probability")
    parser.add_argument("--site-rate", type=float, default=0.01,
                        help="per-check kernel fault-site probability")


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="replay", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("record", help="record one scenario to an .rrlog")
    _add_scenario_args(rec)
    rec.add_argument("-o", "--output", default=None,
                     help="log path (default run<seed>.rrlog)")

    rep = sub.add_parser("replay", help="re-execute an .rrlog faithfully")
    rep.add_argument("log", help="the .rrlog to replay")

    bis = sub.add_parser("bisect", help="find the first fault the "
                                        "recorded outcome depends on")
    bis.add_argument("log", help="the .rrlog to bisect")

    smoke = sub.add_parser("smoke", help="CI: record+replay format run "
                                         "and a chaos seed cycle")
    smoke.add_argument("--seeds", type=int, default=5,
                       help="chaos seeds to cycle (default 5)")
    smoke.add_argument("-o", "--outdir", default=None,
                       help="keep the .rrlog files in this directory")
    return parser.parse_args(argv)


def _report_line(result):
    report = result.report
    return ("seed=%d %s/%s/%s outcome=%s status=%r decisions=%d "
            "compiled=%d down=%d invariants=%s"
            % (report.seed, report.policy, report.mechanism, report.workload,
               report.outcome, report.status, len(result.decisions),
               result.compiled, result.down,
               "ok" if report.passed else "VIOLATED"))


def cmd_record(args):
    result = record_run(args.seed, policy=args.policy,
                        mechanism=args.mechanism, workload=args.workload,
                        agent_rate=args.agent_rate, site_rate=args.site_rate)
    path = args.output or ("run%d.rrlog" % args.seed)
    rrlog.write_file(path, result.meta, result.decisions)
    print("recorded", _report_line(result))
    print("wrote %s (%d decision(s))" % (path, len(result.decisions)))
    return 0


def cmd_replay(args):
    meta, decisions = rrlog.read_file(args.log)
    try:
        result = replay_run(meta, decisions)
    except ReplayDivergence as err:
        print("replay DIVERGED:", err, file=sys.stderr)
        return 1
    print("replayed", _report_line(result))
    residual = len(decisions) - result.recorder.position
    if residual:
        print("replay INCOMPLETE: %d decision(s) never consumed" % residual,
              file=sys.stderr)
        return 1
    return 0


def cmd_bisect(args):
    meta, decisions = rrlog.read_file(args.log)
    result = bisect_run(meta, decisions, progress=lambda s: print("  " + s))
    if not result.found:
        print("no recorded fault changes the outcome "
              "(baseline %r)" % (result.baseline,))
        return 0
    print("first outcome-changing fault: #%d %r at decision %d"
          % (result.index, result.decision.value, result.position))
    print("  with it:    %r" % (result.baseline,))
    print("  without it: %r" % (result.flipped,))
    return 0


def _smoke_cases(seeds):
    """The smoke matrix: the format run plus a cycled chaos seed range."""
    cases = [dict(seed=0, workload="format", agent_rate=0.0, site_rate=0.0)]
    for i in range(seeds):
        cases.append(dict(
            seed=i,
            policy=POLICIES[i % len(POLICIES)],
            mechanism=MECHANISMS[i % len(MECHANISMS)],
            workload=("files", "pipes", "procs")[i % 3],
        ))
    return cases


def cmd_smoke(args):
    failures = 0
    for case in _smoke_cases(args.seeds):
        recorded = record_run(**case)
        if args.outdir:
            os.makedirs(args.outdir, exist_ok=True)
            name = "%s-seed%d.rrlog" % (case.get("workload", "files"),
                                        case["seed"])
            rrlog.write_file(os.path.join(args.outdir, name),
                             recorded.meta, recorded.decisions)
        try:
            replayed = replay_run(recorded.meta, recorded.decisions)
            differences = compare_runs(recorded, replayed)
        except ReplayDivergence as err:
            differences = [str(err)]
        verdict = "ok" if not differences else "FAILED"
        print("%-6s %s" % (verdict, _report_line(recorded)))
        for line in differences:
            print("       " + line)
        if differences:
            failures += 1
    return 1 if failures else 0


def main(argv=None):
    args = _parse_args(argv)
    return {"record": cmd_record, "replay": cmd_replay,
            "bisect": cmd_bisect, "smoke": cmd_smoke}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
