"""Tests for deterministic record/replay and time-travel debugging.

Covers the ``.rrlog`` format (:mod:`repro.obs.rrlog`), the recorder's
turn-token protocol (:mod:`repro.obs.recorder`), the record→replay
determinism proof over seeded chaos scenarios and the format workload
(:mod:`repro.obs.timetravel`), structured divergence on tampered logs,
and fault bisection.
"""

import pytest

from repro.kernel import Kernel
from repro.obs import rrlog
from repro.obs.recorder import RECORD, REPLAY, Recorder, ReplayDivergence
from repro.obs.timetravel import (
    bisect_run,
    compare_runs,
    record_run,
    replay_run,
    scenario_kwargs,
    scenario_meta,
    verify_roundtrip,
)
from repro.workloads import boot_world

# -- the .rrlog format ---------------------------------------------------


def test_decision_line_roundtrip():
    d = rrlog.Decision("T", 3, "open")
    assert d.line() == "T 3 open"
    assert rrlog.Decision.parse("T 3 open") == d
    assert d.matches("T", 3, "open")
    assert not d.matches("T", 3, "close")


def test_decision_value_may_contain_spaces():
    d = rrlog.Decision.parse("F 2 namei.lookup EIO")
    assert d.kind == "F" and d.pid == 2
    assert d.value == "namei.lookup EIO"


def test_decision_rejects_unknown_kind():
    with pytest.raises(ValueError):
        rrlog.Decision("X", 1, "huh")
    with pytest.raises(ValueError):
        rrlog.Decision.parse("not a decision line")


def test_rrlog_dump_parse_roundtrip():
    meta = {"seed": "7", "workload": "files"}
    decisions = [rrlog.Decision("P", 0, "1"),
                 rrlog.Decision("T", 1, "open"),
                 rrlog.Decision("W", 1, "pipe")]
    text = rrlog.dump(meta, decisions)
    assert text.splitlines()[0] == "# rrlog v1"
    meta2, decisions2 = rrlog.parse(text)
    assert meta2 == meta
    assert decisions2 == decisions


def test_rrlog_file_roundtrip(tmp_path):
    path = str(tmp_path / "run.rrlog")
    meta = scenario_meta(3, workload="pipes")
    decisions = [rrlog.Decision("T", 1, "fork")]
    rrlog.write_file(path, meta, decisions)
    meta2, decisions2 = rrlog.read_file(path)
    assert meta2 == meta
    assert decisions2 == decisions
    assert scenario_kwargs(meta2)["seed"] == 3


def test_rrlog_rejects_garbage():
    with pytest.raises(ValueError):
        rrlog.parse("not an rrlog\n")
    with pytest.raises(ValueError):
        rrlog.parse("# rrlog v999\n")


def test_scenario_meta_roundtrip():
    meta = scenario_meta(11, policy="fail-stop", mechanism="rail",
                         workload="procs", agent_rate=0.1, site_rate=0.02)
    kwargs = scenario_kwargs(meta)
    assert kwargs == {"seed": 11, "policy": "fail-stop",
                      "mechanism": "rail", "workload": "procs",
                      "agent_rate": 0.1, "site_rate": 0.02}
    with pytest.raises(ValueError):
        scenario_kwargs({"seed": "1"})


# -- recorder construction and wiring ------------------------------------


def test_recorder_mode_validation():
    with pytest.raises(ValueError):
        Recorder(mode="rewind")
    with pytest.raises(ValueError):
        Recorder(mode=REPLAY)  # replay needs the log


def test_kernel_obs_spec_installs_recorder():
    kernel = Kernel(obs="metrics,record")
    assert kernel.recorder is not None
    assert kernel.recorder.mode == RECORD
    snap = kernel.obs.snapshot()
    assert snap["recorder"]["mode"] == RECORD


def test_obs_snapshot_reports_recorder_off():
    kernel = Kernel(obs="metrics")
    assert kernel.recorder is None
    assert kernel.obs.snapshot()["recorder"] == {"enabled": False}


def test_kernel_stats_reports_recorder(world):
    from repro.programs.libc import Sys

    docs = []

    def main(ctx):
        docs.append(Sys(ctx).syscall("kernel_stats"))
        return 0

    world.run_entry(main)
    assert docs[0]["recorder"] == {"enabled": False}

    recorded = Kernel(obs="metrics,record")
    stats = recorded.recorder.stats()
    assert stats["diverged"] is False and stats["passive"] is False


# -- the determinism proof -----------------------------------------------


def test_record_produces_decisions():
    result = record_run(seed=0, workload="files")
    assert len(result.decisions) > 50
    kinds = {d.kind for d in result.decisions}
    assert "T" in kinds          # traps dominate the log
    assert "P" in kinds          # pid allocations are validated
    stats = result.recorder.stats()
    assert stats["mode"] == RECORD and not stats["diverged"]


@pytest.mark.parametrize("case", [
    dict(seed=0, policy="fail-open", mechanism="wrapper", workload="files"),
    dict(seed=1, policy="quarantine", mechanism="rail", workload="pipes",
         site_rate=0.05),
    dict(seed=2, policy="fail-stop", mechanism="wrapper", workload="procs"),
])
def test_replay_is_bit_identical(case):
    recorded, replayed = verify_roundtrip(**case)
    assert recorded.events == replayed.events
    assert recorded.report.to_dict() == replayed.report.to_dict()
    # the whole log was consumed — nothing recorded went unreplayed
    assert replayed.recorder.position == len(recorded.decisions)


def test_observed_chaos_replay_takes_compiled_downcalls():
    """Record and replay run with obs on, and observing no longer stands
    the downcall chains down: the replay of a recorded wrapper/files
    scenario takes compiled downcalls, as its recording did."""
    recorded, replayed = verify_roundtrip(
        seed=0, policy="fail-open", mechanism="wrapper", workload="files")
    assert compare_runs(recorded, replayed) == []
    assert replayed.recorder.position == len(recorded.decisions)
    assert replayed.down > 0
    assert replayed.down == recorded.down


def test_format_workload_replays_bit_identical():
    recorded, replayed = verify_roundtrip(
        seed=0, workload="format", agent_rate=0.0, site_rate=0.0)
    assert len(recorded.events) > 1000
    assert compare_runs(recorded, replayed) == []


# -- divergence ----------------------------------------------------------


def _tamper(decisions, kind="T"):
    """Flip the value of the last *kind* decision; returns its index."""
    for i in range(len(decisions) - 1, -1, -1):
        if decisions[i].kind == kind:
            tampered = list(decisions)
            tampered[i] = rrlog.Decision(kind, decisions[i].pid,
                                         decisions[i].value + "-tampered")
            return tampered, i
    raise AssertionError("no %r decision to tamper with" % kind)


def test_tampered_log_raises_structured_divergence():
    recorded = record_run(seed=0, workload="files")
    tampered, index = _tamper(recorded.decisions)
    with pytest.raises(ReplayDivergence) as exc:
        replay_run(recorded.meta, tampered, stall_seconds=3.0)
    err = exc.value
    assert err.position <= index
    assert err.expected is not None or err.reason
    assert "diverged at decision" in str(err)
    assert err.pid >= 0


def test_divergent_replay_drains_the_world():
    # After divergence the recorder goes passive so every thread
    # free-runs to completion: the report is still built, invariants
    # still walk, and the divergence is available on the recorder.
    recorded = record_run(seed=0, workload="files")
    tampered, _ = _tamper(recorded.decisions)
    result = replay_run(recorded.meta, tampered, strict=False,
                        stall_seconds=3.0)
    assert result.recorder.divergence is not None
    assert result.recorder.passive_reason == "divergence"
    assert result.report.outcome is not None
    stats = result.recorder.stats()
    assert stats["diverged"] is True and stats["passive"] is True


def test_divergence_emits_obs_event():
    recorded = record_run(seed=0, workload="files")
    tampered, _ = _tamper(recorded.decisions)
    result = replay_run(recorded.meta, tampered, strict=False,
                        stall_seconds=3.0)
    # META_EVENT_KINDS are filtered from result.events by design, so
    # check the recorder recorded the divergence itself instead.
    assert "expected" in str(result.recorder.divergence)


# -- bisection -----------------------------------------------------------


def _scenario_with_faults():
    """A scenario whose recording contains fault-site firings."""
    for seed in range(30):
        result = record_run(seed=seed, policy="quarantine",
                            mechanism="rail", workload="pipes",
                            site_rate=0.05)
        if any(d.kind == "F" for d in result.decisions):
            return result
    raise AssertionError("no seed in range produced a fault firing")


def test_bisect_finds_outcome_changing_fault():
    recorded = _scenario_with_faults()
    result = bisect_run(recorded.meta, recorded.decisions)
    fault_count = sum(1 for d in recorded.decisions if d.kind == "F")
    if result.found:
        assert 0 <= result.index < fault_count
        assert recorded.decisions[result.position].kind == "F"
        assert result.flipped != result.baseline
        assert "BisectResult" in repr(result)
    else:
        # every recorded fault was harmless for this seed — the probe
        # must then report baseline == flipped for all of them
        assert result.baseline == result.flipped


def test_flip_is_not_a_divergence():
    recorded = _scenario_with_faults()
    flipped = replay_run(recorded.meta, recorded.decisions, flip_fault=0,
                         strict=False)
    assert flipped.recorder.passive_reason in ("flip", "")
    assert flipped.recorder.divergence is None


# -- the chaos CLI hint --------------------------------------------------


def test_chaos_failure_hint_is_pasteable():
    import importlib.util
    import os

    spec = importlib.util.spec_from_file_location(
        "chaos_cli", os.path.join(os.path.dirname(__file__), "..",
                                  "scripts", "chaos.py"))
    chaos_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(chaos_cli)
    from repro.workloads.chaos import ChaosReport

    report = ChaosReport(21, "fail-open", "rail", "files")
    hint = chaos_cli._record_hint(report, 0.05, 0.01)
    assert hint.startswith("PYTHONPATH=src python scripts/replay.py record")
    assert "--seed 21" in hint and "--mechanism rail" in hint
