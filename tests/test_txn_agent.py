"""Tests for the transactional agent (paper Section 1.4)."""

import pytest

from repro.agents.txn import TxnAgent
from repro.kernel.proc import WEXITSTATUS
from repro.toolkit import run_under_agent
from repro.workloads import boot_world


def run_txn(world, command, outcome="commit", scratch="/tmp/txn.s"):
    agent = TxnAgent(scratch_dir=scratch, outcome=outcome)
    status = run_under_agent(world, agent, "/bin/sh", ["sh", "-c", command])
    return agent, status, world.console.take_output().decode()


def test_client_sees_its_own_writes(world):
    world.write_file("/home/mbj/f", "before")
    agent, status, out = run_txn(
        world, "echo after > /home/mbj/f; cat /home/mbj/f", outcome="abort"
    )
    assert out == "after\n"


def test_abort_discards_everything(world):
    world.write_file("/home/mbj/keep", "original")
    agent, status, out = run_txn(
        world,
        "echo changed > /home/mbj/keep; echo new > /home/mbj/created; rm /etc/passwd",
        outcome="abort",
    )
    assert world.read_file("/home/mbj/keep") == b"original"
    assert not world.lookup_host("/home/mbj").contains("created")
    assert world.read_file("/etc/passwd")


def test_commit_applies_everything(world):
    world.write_file("/home/mbj/live", "v0")
    world.write_file("/home/mbj/doomed", "x")
    agent, status, out = run_txn(
        world,
        "echo v1 > /home/mbj/live; rm /home/mbj/doomed; mkdir /home/mbj/fresh; echo in > /home/mbj/fresh/f",
        outcome="commit",
    )
    assert world.read_file("/home/mbj/live") == b"v1\n"
    assert not world.lookup_host("/home/mbj").contains("doomed")
    assert world.read_file("/home/mbj/fresh/f") == b"in\n"


def test_removed_file_invisible_within_txn(world):
    world.write_file("/home/mbj/gone", "x")
    agent, status, out = run_txn(
        world,
        "rm /home/mbj/gone; cat /home/mbj/gone; true",
        outcome="abort",
    )
    assert "ENOENT" in out
    assert world.read_file("/home/mbj/gone") == b"x"


def test_listing_reflects_overlay(world):
    world.write_file("/home/mbj/old1", "")
    world.write_file("/home/mbj/old2", "")
    agent, status, out = run_txn(
        world,
        "rm /home/mbj/old1; echo x > /home/mbj/new1; ls /home/mbj",
        outcome="abort",
    )
    names = out.split()
    assert "old1" not in names
    assert "new1" in names
    assert "old2" in names


def test_recreate_after_remove(world):
    world.write_file("/home/mbj/cycle", "first")
    agent, status, out = run_txn(
        world,
        "rm /home/mbj/cycle; echo second > /home/mbj/cycle; cat /home/mbj/cycle",
        outcome="commit",
    )
    assert "second" in out
    assert world.read_file("/home/mbj/cycle") == b"second\n"


def test_append_seeds_from_original(world):
    world.write_file("/home/mbj/log", "line1\n")
    agent, status, out = run_txn(
        world,
        "echo line2 >> /home/mbj/log; cat /home/mbj/log",
        outcome="abort",
    )
    assert out == "line1\nline2\n"
    assert world.read_file("/home/mbj/log") == b"line1\n"


def test_rename_within_txn(world):
    world.write_file("/home/mbj/a", "payload")
    agent, status, out = run_txn(
        world,
        "mv /home/mbj/a /home/mbj/b; cat /home/mbj/b; true",
        outcome="commit",
    )
    assert "payload" in out
    assert world.read_file("/home/mbj/b") == b"payload"
    assert not world.lookup_host("/home/mbj").contains("a")


def test_ask_mode_reads_terminal(world):
    world.write_file("/home/mbj/q", "old")
    world.console.feed("y\n")
    agent, status, out = run_txn(
        world, "echo new > /home/mbj/q", outcome="ask"
    )
    assert "commit changes?" in out
    assert world.read_file("/home/mbj/q") == b"new\n"


def test_ask_mode_abort_on_n(world):
    world.write_file("/home/mbj/q2", "old")
    world.console.feed("n\n")
    agent, status, out = run_txn(
        world, "echo new > /home/mbj/q2", outcome="ask"
    )
    assert world.read_file("/home/mbj/q2") == b"old"


def test_nested_transactions(world):
    """A transactional invocation inside another: the inner abort rolls
    back within the outer, which then commits its own changes."""
    world.write_file("/home/mbj/n", "v0\n")
    agent, status, out = run_txn(
        world,
        "echo v1 > /home/mbj/n;"
        "agentrun txn abort /tmp/inner -- sh -c"
        " 'echo v2 > /home/mbj/n; cat /home/mbj/n';"
        "cat /home/mbj/n",
        outcome="commit",
        scratch="/tmp/outer",
    )
    lines = out.split()
    assert lines == ["v2", "v1"]
    assert world.read_file("/home/mbj/n") == b"v1\n"


def test_nested_commit_flows_into_outer(world):
    world.write_file("/home/mbj/m", "v0\n")
    agent, status, out = run_txn(
        world,
        "agentrun txn commit /tmp/inner2 -- sh -c 'echo inner > /home/mbj/m';"
        "cat /home/mbj/m",
        outcome="abort",
        scratch="/tmp/outer2",
    )
    assert "inner" in out  # the inner commit is visible inside the outer
    assert world.read_file("/home/mbj/m") == b"v0\n"  # outer aborted it all


def test_truncate_recorded(world):
    world.write_file("/home/mbj/t", "0123456789")

    def truncator(sys, argv, envp):
        sys.truncate("/home/mbj/t", 4)
        sys.print_out(sys.read_whole("/home/mbj/t").decode())
        return 0

    from tests.conftest import install_program

    install_program(world, "truncator", truncator)
    agent = TxnAgent(scratch_dir="/tmp/txn.t", outcome="abort")
    status = run_under_agent(world, agent, "/bin/truncator", ["truncator"])
    assert world.console.take_output().decode() == "0123"
    assert world.read_file("/home/mbj/t") == b"0123456789"


def test_scratch_cleaned_after_commit(world):
    agent, status, out = run_txn(
        world, "echo data > /home/mbj/c", outcome="commit",
        scratch="/tmp/txnclean",
    )
    scratch = world.lookup_host("/tmp/txnclean")
    leftovers = [n for n in scratch.entries if n.startswith("shadow")]
    assert leftovers == []


def test_made_directories_list_as_without_the_agent(world):
    # A directory made inside another made one resolves (it used to be
    # ENOENT), and made directories report the mode and size the same
    # commands give without the agent.
    command = ("mkdir /home/mbj/T; mkdir /home/mbj/T/s1 /home/mbj/T/s2; "
               "echo in > /home/mbj/T/s1/f; ls -l /home/mbj/T; "
               "ls -l /home/mbj/T/s1")
    plain = boot_world()
    assert WEXITSTATUS(plain.run("/bin/sh", ["sh", "-c", command])) == 0
    expected = plain.console.take_output().decode()
    agent, status, out = run_txn(world, command, outcome="abort")
    assert WEXITSTATUS(status) == 0
    assert out == expected
    assert not world.lookup_host("/home/mbj").contains("T")
