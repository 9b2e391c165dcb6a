"""Deterministic record/replay: the turn token and the decision log.

**The problem.** Simulated processes run on real host threads serialised
by the big kernel lock, so a run's outcome depends on host scheduling:
which thread wins the lock, which sleeper's 50 ms recheck fires first,
which order two writers hit a fault site's RNG.  Everything *between*
kernel entries is per-process deterministic — processes interact only
through the kernel — so a total order over kernel-world entries is a
total order over the whole computation.

**The mechanism.** A :class:`Recorder` owns a re-entrant *turn token*.
Every kernel-world entry — a trap, a top-level ``htg`` downcall, a
``consume_cpu`` clock advance — acquires it first and holds it to the
end of the entry; a thread sleeping in ``sleep_until`` releases it
before waiting and re-acquires it (a *grant*) to run a recheck batch.
With the token held, nothing else can enter the kernel, so the sequence
of token acquisitions IS the execution:

* **record** mode grants first-come-first-served and appends one
  :class:`~repro.obs.rrlog.Decision` per acquisition (plus validation
  notes for fault-site firings and pid/fd allocations);
* **replay** mode grants only the thread named by the log head, so the
  recorded total order is *enforced*; every decision and note is
  compared against the log and the first mismatch becomes a structured
  :class:`ReplayDivergence` naming the differing trap and its span.

No-op rechecks (predicate still false, nothing fired) are invisible in
both modes: they have no side effects, so host-timing-dependent spurious
wakeups cannot pollute the log.

**Pay-per-use.** ``kernel.recorder`` is ``None`` by default and every
hook in the trap spine, scheduler, clock reads, fault sites, and
allocators is a single ``is None`` attribute test — the same discipline
as ``kernel.obs`` and ``kernel.guard``.

**Scope.** Same-space agents only: a
:class:`~repro.toolkit.remote.SeparateSpaceAgent`'s dispatcher threads
and wall-clock IPC watchdogs live outside the token protocol.  Host
panics (``_record_panic``) are likewise outside recording — a run whose
containment failed is not replayable, which is one more reason to keep
it from failing.
"""

import threading
import time

from repro.obs import events as ev
from repro.obs.rrlog import Decision, SLEEP_KINDS

RECORD = "record"
REPLAY = "replay"


class ReplayDivergence(Exception):
    """Replay departed from the recorded execution.

    ``position`` is the log index of the first differing decision,
    ``expected`` the recorded :class:`~repro.obs.rrlog.Decision` at that
    position (None when the log was exhausted), ``got`` the decision the
    replaying execution actually produced (a ``(kind, pid, value)``
    tuple, or None for a stall), and ``span`` the id of the causal span
    open for that pid at the moment of divergence (0 without span
    tracing).
    """

    def __init__(self, position, expected, got, pid=0, span=0, reason=""):
        self.position = position
        self.expected = expected
        self.got = got
        self.pid = pid
        self.span = span
        self.reason = reason
        want = expected.line() if expected is not None else "<end of log>"
        have = ("%s %d %s" % got if got is not None else "<stall>")
        super().__init__(
            "replay diverged at decision %d: expected %r, got %r"
            "%s (pid %d, span %d)"
            % (position, want, have,
               " — " + reason if reason else "", pid, span))


class _RecorderProc:
    """A pid-0 stand-in so the recorder can emit obs events."""

    pid = 0
    comm = "recorder"
    ktrace_on = False


class Recorder:
    """The turn token plus the decision log, in record or replay mode.

    Construct with ``mode="record"`` (decisions accumulate on
    ``self.decisions``) or ``mode="replay"`` with the recorded *log*.
    ``flip_fault=i`` is the bisect probe: replay faithfully up to the
    *i*-th fault-site firing (0-based), suppress that one injection, and
    free-run from there — the outcome delta against the recorded run is
    what ``scripts/replay.py bisect`` searches for.
    """

    def __init__(self, mode=RECORD, log=None, flip_fault=None,
                 stall_seconds=10.0):
        if mode not in (RECORD, REPLAY):
            raise ValueError("recorder mode must be %r or %r"
                             % (RECORD, REPLAY))
        if mode == REPLAY and log is None:
            raise ValueError("replay mode needs the recorded decision log")
        self.mode = mode
        #: the decision log: appended to in record mode, consumed from
        #: (``position`` advances) in replay mode
        self.decisions = list(log) if log is not None else []
        self.position = 0
        self.flip_fault = flip_fault
        self.stall_seconds = stall_seconds
        #: the first divergence seen (replay mode), or None
        self.divergence = None
        #: True once coordination stopped: after a divergence or a
        #: bisect flip the world free-runs so threads drain instead of
        #: deadlocking against an unreachable log
        self.passive = False
        #: why coordination stopped ("divergence" / "flip" / "")
        self.passive_reason = ""
        self.kernel = None
        self._cv = threading.Condition(threading.Lock())
        self._owner = None
        self._depth = 0
        #: record mode: a sleeper was refused the token since it was
        #: last released, so the next release must wake the sleep queue
        self._refused = False
        self._last_progress = time.monotonic()
        self._faults_fired = 0
        self.notes_total = 0

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def attach(self, kernel):
        """Install this recorder on *kernel* (and its armed fault sites)."""
        kernel.recorder = self
        self.kernel = kernel
        if kernel.faultsites is not None:
            kernel.faultsites.recorder = self
        obs = kernel.obs
        if obs is not None:
            obs.emit(ev.RECORD_START if self.mode == RECORD
                     else ev.RECORD_STOP,
                     _RecorderProc(), self.mode,
                     "%d decision(s) loaded" % len(self.decisions)
                     if self.mode == REPLAY else "")
        return self

    def detach(self):
        """Remove this recorder from its kernel; returns it for reading."""
        kernel = self.kernel
        if kernel is not None and kernel.recorder is self:
            kernel.recorder = None
            if kernel.faultsites is not None:
                kernel.faultsites.recorder = None
        return self

    # ------------------------------------------------------------------
    # the turn token: kernel-world entries
    # ------------------------------------------------------------------

    def begin(self, proc, kind, value):
        """Acquire the token for a kernel-world entry (trap/htg/consume).

        Re-entrant per thread: a nested entry (an agent's ``htg`` inside
        its handler's trap) bumps the depth and logs nothing — it is a
        deterministic continuation of the outer turn.  The nested case
        skips the lock: only the holder moves the token away from
        itself, and a passive transition (the one change another thread
        may make) zeroes the depth and turns every later call into a
        no-op, so a stale depth is never read.
        """
        me = threading.get_ident()
        if self._owner == me:
            self._depth += 1
            return
        with self._cv:
            if self.passive:
                return
            if self.mode == RECORD:
                while self._owner is not None and not self.passive:
                    self._cv.wait(0.5)
                if self.passive:
                    return
                self._owner = me
                self._depth = 1
                self._append_locked(Decision(kind, proc.pid, value))
                return
            while True:
                if self.passive:
                    return
                head = self._head_locked()
                if head is not None and head.pid == proc.pid:
                    if self._owner is None:
                        if head.kind != kind or head.value != value:
                            self._diverge_locked(proc.pid,
                                                 (kind, proc.pid, value))
                            return
                        self._owner = me
                        self._depth = 1
                        self._consume_locked()
                        return
                elif head is None:
                    self._diverge_locked(proc.pid, (kind, proc.pid, value),
                                         reason="log exhausted")
                    return
                if not self._cv.wait(0.2):
                    self._check_stall_locked(proc.pid, (kind, proc.pid, value))

    def end(self):
        """Release one level of the token at kernel-world exit.

        A nested level is dropped without the lock (see :meth:`begin`);
        the outermost one hands the token on, and wakes the sleep queue
        when :meth:`_wakes_sleepers_locked` says a sleeper needs it.
        """
        me = threading.get_ident()
        if self._owner == me and self._depth > 1:
            self._depth -= 1
            return
        with self._cv:
            if self.passive or self._owner != me:
                return
            self._depth -= 1
            if self._depth > 0:
                return
            self._owner = None
            self._cv.notify_all()
            wake = self._wakes_sleepers_locked()
        if wake:
            self._notify_sleepers()

    # ------------------------------------------------------------------
    # the turn token: sleep-queue suspension and grants
    # ------------------------------------------------------------------

    def held_depth(self):
        """The calling thread's current token depth (0 if not holder)."""
        with self._cv:
            return self._depth if self._owner == threading.get_ident() else 0

    def suspend(self):
        """Release the token before waiting on the sleep queue.

        Called with the kernel lock held; the sleeper keeps its depth
        itself and passes it back to :meth:`try_resume`.  Nothing is
        logged: going to sleep is deterministic, only being *admitted
        back* is a decision.  Returns whether the caller must wake the
        sleep queue (see :meth:`_wakes_sleepers_locked`).
        """
        me = threading.get_ident()
        with self._cv:
            if self.passive or self._owner != me:
                return True
            self._owner = None
            self._cv.notify_all()
            return self._wakes_sleepers_locked()

    def try_resume(self, proc, depth):
        """Non-blocking recheck grant for a woken sleeper (lock held).

        Record mode grants whenever the token is free (first come,
        first served — and the winner is what gets logged, by
        :meth:`commit`).  Replay mode grants only when the log head
        names this pid with a sleep decision.  Returns True on grant.
        A refusal is remembered, so that in record mode the holder's
        release wakes the sleep queue again.
        """
        me = threading.get_ident()
        with self._cv:
            if self.passive:
                return True
            if self._owner is not None:
                self._refused = True
                return False
            if self.mode == RECORD:
                self._owner = me
                self._depth = depth
                return True
            head = self._head_locked()
            if (head is not None and head.pid == proc.pid
                    and head.kind in SLEEP_KINDS):
                self._owner = me
                self._depth = depth
                return True
            self._check_stall_locked(proc.pid, None)
            return False

    def commit(self, proc, kind, wchan):
        """Close a granted recheck batch with its outcome decision.

        *kind* is ``W`` (sleep exited), ``E`` (EINTR), or ``Y`` (side
        effects — an alarm fired or the idle loop advanced the clock —
        then back to sleep).  ``W``/``E`` keep the token: the thread
        resumes its interrupted turn.  ``Y`` releases it.  Returns
        whether the caller must wake the sleep queue (always False for
        ``W``/``E``, which release nothing).
        """
        with self._cv:
            if self.passive:
                return True
            if self.mode == RECORD:
                self._append_locked(Decision(kind, proc.pid, wchan))
            else:
                head = self._head_locked()
                if head is None or not head.matches(kind, proc.pid, wchan):
                    self._diverge_locked(proc.pid, (kind, proc.pid, wchan))
                    return True
                self._consume_locked()
            if kind != "Y":
                return False
            self._owner = None
            self._depth = 0
            self._cv.notify_all()
            return self._wakes_sleepers_locked()

    def release_grant(self, proc):
        """A granted recheck batch turned out to be a no-op.

        Record mode: release silently — nothing happened, nothing is
        logged.  Replay mode: the grant existed *because* the log head
        named this pid, so a no-op means the machine state differs from
        the recording — a divergence.  Returns whether the caller must
        wake the sleep queue.
        """
        with self._cv:
            if self.passive:
                return True
            if self.mode == REPLAY:
                self._diverge_locked(proc.pid, None,
                                     reason="granted recheck was a no-op")
                return True
            self._owner = None
            self._depth = 0
            self._cv.notify_all()
            return self._wakes_sleepers_locked()

    # ------------------------------------------------------------------
    # validation notes (logged/checked under an already-held token)
    # ------------------------------------------------------------------

    def note(self, kind, pid, value):
        """Record (or validate) one ``F``/``P``/``D``/``K`` note."""
        with self._cv:
            if self.passive:
                return
            self.notes_total += 1
            if self.mode == RECORD:
                self._append_locked(Decision(kind, pid, value))
                return
            head = self._head_locked()
            if head is None or not head.matches(kind, pid, value):
                self._diverge_locked(pid, (kind, pid, value))
                return
            self._consume_locked()

    def on_fault(self, tag, errno_label, proc):
        """A fault site decided to fire; returns whether it should.

        Record/replay this as an ``F`` note — and, when this firing is
        the bisect probe's ``flip_fault``-th, suppress it and go passive
        so the run free-runs into its (possibly different) outcome.
        """
        pid = proc.pid if proc is not None else 0
        value = "%s %s" % (tag, errno_label)
        with self._cv:
            if self.passive:
                return True
            index = self._faults_fired
            self._faults_fired += 1
            if self.flip_fault is not None and index == self.flip_fault:
                self._go_passive_locked("flip")
                return False
        self.note("F", pid, value)
        return True

    def machine_crashed(self, tag):
        """The machine halted at *tag*: stop recording, free everyone.

        Called by ``Kernel._crash_locked`` with the kernel lock held,
        *after* ``kernel.crashed`` is set and after the crash's own
        ``F`` note — which is therefore the log's last decision in both
        record and replay.  Going passive releases every thread blocked
        on the turn token (and makes all further begin/end/note calls
        no-ops); each freed thread then sees ``kernel.crashed`` at its
        crash check and dies without logging, so the log tail is
        bit-identical regardless of host scheduling.
        """
        with self._cv:
            if not self.passive:
                self._go_passive_locked("crash")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stats(self):
        """Counters for kernel_stats / MonitorAgent / obs snapshots."""
        with self._cv:
            return {
                "mode": self.mode,
                "decisions": len(self.decisions),
                "position": self.position,
                "notes": self.notes_total,
                "faults_seen": self._faults_fired,
                "passive": self.passive,
                "passive_reason": self.passive_reason,
                "diverged": self.divergence is not None,
            }

    def raise_divergence(self):
        """Raise the recorded :class:`ReplayDivergence`, if any."""
        if self.divergence is not None:
            raise self.divergence

    # ------------------------------------------------------------------
    # internals (call with self._cv held)
    # ------------------------------------------------------------------

    def _head_locked(self):
        if self.position < len(self.decisions):
            return self.decisions[self.position]
        return None

    def _append_locked(self, decision):
        self.decisions.append(decision)
        self._last_progress = time.monotonic()

    def _consume_locked(self):
        self.position += 1
        self._last_progress = time.monotonic()
        self._cv.notify_all()

    def _check_stall_locked(self, pid, got):
        if time.monotonic() - self._last_progress > self.stall_seconds:
            self._diverge_locked(pid, got,
                                 reason="stalled: no thread can consume "
                                        "the log head")

    def _diverge_locked(self, pid, got, reason=""):
        if self.divergence is None:
            span = self._span_of(pid)
            self.divergence = ReplayDivergence(
                self.position, self._head_locked(), got,
                pid=pid, span=span, reason=reason)
            kernel = self.kernel
            if kernel is not None and kernel.obs is not None:
                kernel.obs.emit(ev.REPLAY_DIVERGE, _RecorderProc(),
                                "decision %d" % self.position,
                                str(self.divergence))
        self._go_passive_locked("divergence")

    def _go_passive_locked(self, reason):
        self.passive = True
        self.passive_reason = reason
        self._owner = None
        self._depth = 0
        self._cv.notify_all()

    def _span_of(self, pid):
        kernel = self.kernel
        if kernel is None or kernel.obs is None or kernel.obs.spans is None:
            return 0
        stack = kernel.obs.spans._stacks.get(pid)
        return stack[-1].sid if stack else 0

    def _wakes_sleepers_locked(self):
        # Whether a token release must wake the sleep queue.  Replay
        # always wakes: the next log head may name any sleeper.  Record
        # wakes only a sleeper that was refused while the token was
        # held; every other sleeper is waiting on a predicate, and each
        # predicate change already calls kernel.wakeup() inside a turn
        # (where the woken sleeper is refused, so this release wakes it
        # again).  The 50 ms poll stays as the backstop.
        if self.mode == REPLAY:
            return True
        wake = self._refused
        self._refused = False
        return wake

    def _notify_sleepers(self):
        # Token released outside the kernel lock (trap exit): wake the
        # sleep queue so a sleeper whose decision is now at the log head
        # rechecks immediately instead of on its next 50 ms poll.
        kernel = self.kernel
        if kernel is not None:
            with kernel._sleepq:
                kernel._sleepq.notify_all()
