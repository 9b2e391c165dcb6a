"""Property-based tests for signal mask algebra and delivery rules."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kernel import Kernel
from repro.kernel import signals as sig
from repro.kernel.proc import WEXITSTATUS, Process
from repro.kernel.sysent import number_of
from repro.workloads import boot_world

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NR = {n: number_of(n) for n in ("sigblock", "sigsetmask", "sigvec", "kill",
                                "getpid")}

_masks = st.integers(min_value=0, max_value=(1 << 31) - 1)
_catchable = st.sampled_from(
    [s for s in range(1, sig.NSIG) if s not in sig.UNCATCHABLE]
)


def _uncatchable_bits():
    bits = 0
    for s in sig.UNCATCHABLE:
        bits |= sig.sigmask(s)
    return bits


@given(first=_masks, second=_masks)
@_settings
def test_sigblock_is_bitwise_or(first, second):
    kernel = boot_world()

    def main(ctx):
        ctx.trap(NR["sigsetmask"], 0)
        ctx.trap(NR["sigblock"], first)
        old = ctx.trap(NR["sigblock"], second)
        expected_old = first & ~_uncatchable_bits()
        assert old == expected_old
        final = ctx.trap(NR["sigsetmask"], 0)
        assert final == (first | second) & ~_uncatchable_bits()
        return 0

    assert WEXITSTATUS(kernel.run_entry(main)) == 0


@given(mask=_masks)
@_settings
def test_kill_and_stop_never_blockable(mask):
    kernel = boot_world()

    def main(ctx):
        result = ctx.trap(NR["sigsetmask"], mask)
        final = ctx.trap(NR["sigsetmask"], 0)
        assert final & sig.sigmask(sig.SIGKILL) == 0
        assert final & sig.sigmask(sig.SIGSTOP) == 0
        return 0

    assert WEXITSTATUS(kernel.run_entry(main)) == 0


#: stop signals and SIGCONT cancel each other when posted (BSD rule),
#: so the ordering property uses the remaining catchable signals
_orderable = st.sampled_from(
    [
        s
        for s in range(1, sig.NSIG)
        if s not in sig.UNCATCHABLE
        and s not in (sig.SIGTSTP, sig.SIGTTIN, sig.SIGTTOU, sig.SIGCONT)
    ]
)


@given(signums=st.lists(_orderable, min_size=1, max_size=5, unique=True))
@_settings
def test_blocked_signals_deliver_in_number_order(signums):
    """Multiple pended signals are delivered lowest-number-first when
    unblocked, matching the kernel's take_signal scan order."""
    kernel = boot_world()
    delivered = []

    def main(ctx):
        mask = 0
        for signum in signums:
            ctx.trap(NR["sigvec"], signum,
                     lambda s: delivered.append(s), 0)
            mask |= sig.sigmask(signum)
        ctx.trap(NR["sigsetmask"], mask)
        for signum in signums:
            ctx.trap(NR["kill"], ctx.proc.pid, signum)
        assert delivered == []
        ctx.trap(NR["sigsetmask"], 0)
        ctx.trap(NR["getpid"])  # a trap boundary delivers everything
        return 0

    assert WEXITSTATUS(kernel.run_entry(main)) == 0
    assert delivered == sorted(signums)


@given(signum=_catchable)
@_settings
def test_handler_runs_with_its_signal_blocked(signum):
    kernel = boot_world()
    observed = []

    def main(ctx):
        def handler(s):
            observed.append(ctx.proc.sigmask & sig.sigmask(s) != 0)

        ctx.trap(NR["sigvec"], signum, handler, 0)
        ctx.trap(NR["kill"], ctx.proc.pid, signum)
        # After delivery the mask is restored.
        observed.append(ctx.proc.sigmask & sig.sigmask(signum) == 0)
        return 0

    assert WEXITSTATUS(kernel.run_entry(main)) == 0
    assert observed == [True, True]


def _deliverable_by_scan(proc):
    """The 31-signal scan deliverable_mask performs, without its early
    exit: the reference it must agree with."""
    mask = proc.pending & ~proc.sigmask
    mask |= proc.pending & (sig.sigmask(sig.SIGKILL)
                            | sig.sigmask(sig.SIGSTOP))
    effective = 0
    for signum in range(1, sig.NSIG):
        bit = sig.sigmask(signum)
        if not mask & bit:
            continue
        action = proc.dispositions[signum].handler
        if action == sig.SIG_IGN and signum not in sig.UNCATCHABLE:
            continue
        if action == sig.SIG_DFL and sig.default_action(signum) == "ignore":
            continue
        effective |= bit
    return effective


_handlers = st.sampled_from([sig.SIG_DFL, sig.SIG_IGN, "catch"])
#: a few signals at a time, so that pending-but-all-blocked (the early
#: exit) and SIGKILL/SIGSTOP under a full mask come up often
_sparse_masks = st.one_of(_masks, st.sets(
    st.integers(min_value=1, max_value=sig.NSIG - 1), max_size=4).map(
    lambda signums: sum(sig.sigmask(s) for s in signums)))


@given(pending=_sparse_masks, sigmask=_sparse_masks,
       handlers=st.lists(_handlers, min_size=sig.NSIG - 1,
                         max_size=sig.NSIG - 1))
@settings(max_examples=200, deadline=None)
def test_deliverable_mask_matches_the_full_scan(pending, sigmask, handlers):
    proc = Process(Kernel(), 1, 0, None, None, None)
    proc.pending = pending
    proc.sigmask = sigmask
    for signum, handler in zip(range(1, sig.NSIG), handlers):
        proc.dispositions[signum] = sig.Sigaction(
            (lambda s: None) if handler == "catch" else handler)
    assert proc.deliverable_mask() == _deliverable_by_scan(proc)
