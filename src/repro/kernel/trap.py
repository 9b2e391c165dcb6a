"""The system call trap path and signal delivery.

This module is the reproduction's equivalent of the Mach 2.5 emulation
mechanism the paper builds on:

* :meth:`UserContext.trap` is the system call instruction.  It consults
  the process's *emulation vector* first; a registered handler (the
  agent, running in the client's own context) gets the call instead of
  the kernel — that is ``task_set_emulation`` redirection.
* :func:`htg_unix_syscall` is the downcall: it executes the kernel
  implementation even for redirected numbers, paying a small extra cost
  (paper Table 3-4 measures 37 µs for it on a 25 MHz i486).  Its one
  body per number (:func:`htg_row`) is also the kernel terminal of
  every compiled chain.
* Pending signals are delivered at trap boundaries.  If the process has
  a signal redirection installed, the agent's handler gets the *upcall*
  before any application handler — the paper's completeness goal.

**rusage accounting.** ``ru_nsyscalls`` counts *kernel crossings*, not
application-level calls: both :meth:`UserContext.trap` and
:func:`htg_unix_syscall` increment it, so a call that an agent
intercepts and forwards with the downcall is charged **twice** — once
for the client's trap into the agent, once for the agent's bypass trap
into the kernel.  That is deliberate and matches the paper's model
(Table 3-4 treats ``htg_unix_syscall`` as a trap in its own right with
its own crossing cost).  Consumers who want application-level call
counts should use ``kernel.trap_total`` (traps issued, regardless of
path) or the observability counters ``("trap", name)`` /
``("htg", name)``, which keep the two populations separate.

**Dispatch.**  Every route into a kernel implementation goes through
:func:`kernel_entry`, the one copy of the kernel-entry body.  A trap
looks its number up in ``proc.dispatch``, the table of the process's
emulation vector (see :class:`repro.kernel.compile.DispatchTable`): one
row per number, built on first use and shared by every process with
that vector.  Observed traps take the same row; stood-down rows take
the layer :func:`tower`, the reference every row must match.

**Record/replay.**  The recorder wraps the one body of each path it
serializes — the trap (a ``T`` turn), the downcall (``H``) and
:meth:`UserContext.consume_cpu` (``C``) — in a ``begin``/``end`` pair;
an unrecorded call pays one ``is None`` test for it.  A recorded trap
takes the same dispatch row as an unrecorded one.

**Observability.** When ``kernel.obs`` is set (see :mod:`repro.obs`),
the trap path records per-call counters, virtual-clock latency
histograms, and — for traced processes — ``trap.agent`` /
``trap.kernel`` / ``trap.ret`` events around the dispatch row, and the
downcall body its ``htg`` counter and event; observing never changes
the route.  Disabled, the entire hook is one ``is None`` test,
preserving the pay-per-use property this module exists to
demonstrate.
"""

from repro.kernel import signals as sig
from repro.kernel import sysent
from repro.kernel.errno import EINVAL, SyscallError, errno_name
from repro.kernel.faultsite import MachineCrash
from repro.kernel.proc import ExecImage, ProcessExit
from repro.obs import events as ev


def kernel_entry(kernel, proc, impl, entry, args):
    """Run the kernel implementation *impl* of sysent row *entry*.

    The one kernel-entry body every route shares (the tower's
    ``do_syscall``, the uninterposed table rows, and the compiled
    chains' kernel terminals): arity check, then under the kernel lock
    the crash check, clock tick, system-time charge, alarm check,
    profiler tick, watch evaluation, the implementation itself, and the
    DFSTrace record.
    """
    if len(args) > entry.nargs:
        raise SyscallError(
            EINVAL, "%s takes %d args" % (entry.name, entry.nargs))
    with kernel._sleepq:
        if kernel.crashed is not None:
            raise MachineCrash(kernel.crashed)
        kernel.clock.tick()
        proc.rusage.ru_stime_usec += 100
        kernel._check_alarm_locked(proc)
        if kernel.profiler is not None:
            kernel.profiler.sample_tick(proc, "kernel:" + entry.name)
        if kernel.watches is not None:
            kernel.watches.maybe_evaluate(kernel, proc)
        error = None
        result = None
        try:
            result = impl(kernel, proc, *args)
        except SyscallError as exc:
            error = exc
        except (ProcessExit, ExecImage):
            # exit and exec unwind; the trace hook still sees them.
            if kernel.dfstrace is not None:
                kernel.dfstrace.record(kernel, proc, entry, args, None, None)
            raise
        if kernel.dfstrace is not None:
            kernel.dfstrace.record(kernel, proc, entry, args, result, error)
        if error is not None:
            raise error
        return result


def tower(ctx, number, args):
    """The layer tower: the emulation vector's handler, else the kernel.

    A redirected call runs the agent's handler in the client's own
    context (same address space, same thread), through the guard rail
    when one is installed so agent faults are contained per policy.
    """
    proc = ctx.proc
    handler = proc.emulation_vector.get(number)
    if handler is None:
        return ctx.kernel.do_syscall(proc, number, args)
    guard = ctx.kernel.guard
    if guard is not None:
        return guard.run_handler(ctx, handler, number, args)
    return handler(ctx, number, args)


def _brief(args, limit=48):
    """A short, single-line rendering of trap arguments for event details.

    Callables render by qualified name: their default repr embeds a
    host memory address, which would make otherwise-identical runs
    compare unequal under record/replay.
    """
    text = ", ".join(
        "<%s>" % getattr(a, "__qualname__", type(a).__name__)
        if callable(a) else repr(a)
        for a in args)
    if len(text) > limit:
        text = text[:limit] + "..."
    return text


def htg_unix_syscall(kernel, proc, number, args):
    """Invoke the underlying kernel system call, bypassing interposition.

    The bypass is itself a trap: the caller crosses into the kernel once
    to slip past the emulation vector (Mach measured 37 µs for this on a
    25 MHz i486, the same order as interception itself), and then the
    call proper is performed.  Modelling the bypass as a real kernel
    crossing keeps the overhead measurable, as in Table 3-4 — and is why
    ``ru_nsyscalls`` legitimately counts a forwarded call twice (see the
    module docstring).  The body is *number*'s :data:`HTG_ROWS` row.
    """
    return HTG_ROWS[number](UserContext(kernel, proc), args)


def htg_row(number):
    """The downcall's one body for *number*, as a ``row(ctx, args)``.

    Shared by :meth:`UserContext.htg` and the kernel terminal of every
    compiled chain (:mod:`repro.kernel.compile`), with the
    implementation resolved once: the recorder's ``H`` turn, the
    crossing charge and the interposed-number system-time tax, the
    ``("htg", name)`` counter and ``htg.downcall`` event, then
    :func:`kernel_entry`.  The charges are made outside the kernel
    lock, like the trap's own: only the process's own thread writes its
    rusage.  An unimplemented number enters through ``do_syscall``,
    which raises its ``ENOSYS``.
    """
    # Imported here: the syscall modules import the process module,
    # which imports the compiler, which imports this one.
    from repro.kernel.syscalls import DISPATCH

    entry = sysent.SYSCALLS.get(number)
    impl = DISPATCH.get(number) if entry is not None else None
    name = sysent.name_of(number)

    def row(ctx, args):
        kernel = ctx.kernel
        proc = ctx.proc
        rec = kernel.recorder
        if rec is not None:
            # Almost always nested under the calling trap's turn (an
            # agent's downcall), where begin() just bumps the depth and
            # logs nothing; a genuinely top-level htg records its own H
            # turn.
            rec.begin(proc, "H", name)
        try:
            rusage = proc.rusage
            rusage.ru_nsyscalls += 1
            if number in proc.emulation_vector:
                rusage.ru_stime_usec += 1
            obs = kernel.obs
            if obs is not None:
                if obs.metrics_on:
                    obs.metrics.inc(("htg", name))
                if obs.wants(proc):
                    obs.emit(ev.HTG, proc, name, _brief(args))
            if impl is None:
                return kernel.do_syscall(proc, number, args)
            return kernel_entry(kernel, proc, impl, entry, args)
        finally:
            if rec is not None:
                rec.end()

    return row


class _HtgRows(dict):
    """number → :func:`htg_row`, built on the number's first downcall."""

    __slots__ = ()

    def __missing__(self, number):
        # Unlocked, like DispatchTable: a racing build is equivalent.
        row = self[number] = htg_row(number)
        return row


#: every number's downcall body, shared machine-wide (rows bind nothing)
HTG_ROWS = _HtgRows()


class UserContext:
    """A process's user-mode view of the machine: the trap instruction.

    Programs and toolkit boilerplate hold one of these; nothing else about
    the kernel is visible from user mode.
    """

    __slots__ = ("kernel", "proc")

    def __init__(self, kernel, proc):
        self.kernel = kernel
        self.proc = proc

    def trap(self, number, *args):
        """Issue system call *number*; the application's entry into the
        system interface, whether that interface is the kernel or an agent."""
        proc = self.proc
        kernel = self.kernel
        if kernel.crashed is not None:
            # The machine halted: every surviving thread dies at its
            # next kernel-world entry, silently (no counters, no events).
            raise MachineCrash(kernel.crashed)
        proc.rusage.ru_nsyscalls += 1
        kernel.trap_total += 1
        rec = kernel.recorder
        if rec is not None:
            # The whole trap — agent handler, kernel work, sleeps (which
            # suspend and re-acquire the token in sleep_until), and
            # boundary signal delivery — runs as one recorded turn.
            rec.begin(proc, "T", sysent.name_of(number))
            if kernel.crashed is not None:
                # A passive-freed thread lands here: a post-crash trap
                # must emit nothing, or host scheduling would leak into
                # the recorded event stream.
                rec.end()
                raise MachineCrash(kernel.crashed)
        try:
            obs = kernel.obs
            # The process's dispatch table (shared by every process with
            # the same emulation vector) holds one row per number, built
            # on first use: the kernel terminal for an uninterposed call,
            # the compiled chain or the tower for an interposed one.
            # Signals are delivered at the boundary, outside the kernel
            # lock, which take_signal re-acquires.
            try:
                if obs is None:
                    result = proc.dispatch[number](self, args)
                else:
                    result = self._trap_observed(obs, number, args)
            except SyscallError:
                deliver_pending_signals(self)
                raise
            deliver_pending_signals(self)
            return result
        finally:
            if rec is not None:
                rec.end()

    def _trap_observed(self, obs, number, args):
        """The dispatch row with observability enabled.

        Records counters, the virtual-clock latency histogram, and —
        when the process is traced or the bus has subscribers —
        enter/return events around the same row an unobserved trap
        takes.  :meth:`trap` delivers signals after the return event,
        as on every route.
        """
        proc = self.proc
        kernel = self.kernel
        name = sysent.name_of(number)
        interposed = number in proc.emulation_vector
        metrics = obs.metrics if obs.metrics_on else None
        if metrics is not None:
            metrics.update((("trap", name),
                            ("trap.agent" if interposed else "trap.kernel",
                             name),
                            ("trap.pid", proc.pid, name)))
        wants = obs.wants(proc)
        if wants:
            obs.emit(ev.TRAP_AGENT if interposed else ev.TRAP_KERNEL,
                     proc, name, _brief(args))
        start = kernel.clock.usec()
        try:
            result = proc.dispatch[number](self, args)
        except SyscallError as err:
            elapsed = kernel.clock.usec() - start
            errname = errno_name(err.errno)
            if metrics is not None:
                metrics.observe(("trap.vusec", name), elapsed)
                metrics.inc(("trap.error", name, errname))
            if wants:
                obs.emit(ev.TRAP_RET, proc, name,
                         "err %s (%d vusec)" % (errname, elapsed))
            raise
        except (ExecImage, ProcessExit):
            # The trap never returns (exec replaces the image, exit tears
            # the process down): record that the call did not return.
            if wants:
                obs.emit(ev.TRAP_RET, proc, name, "unwound")
            raise
        elapsed = kernel.clock.usec() - start
        if metrics is not None:
            metrics.observe(("trap.vusec", name), elapsed)
        if wants:
            obs.emit(ev.TRAP_RET, proc, name,
                     "-> %s (%d vusec)" % (_brief((result,)), elapsed))
        return result

    def htg(self, number, *args):
        """``htg_unix_syscall``: agents' downcall past their own redirection."""
        return HTG_ROWS[number](self, args)

    def consume_cpu(self, usec):
        """Charge user-mode CPU time (advances the virtual clock)."""
        kernel = self.kernel
        if kernel.crashed is not None:
            raise MachineCrash(kernel.crashed)
        proc = self.proc
        prof = kernel.profiler
        rec = kernel.recorder
        if rec is not None:
            # The clock advance happens outside any trap, so two
            # processes burning CPU race on it: make it its own turn.
            rec.begin(proc, "C", str(usec))
        try:
            start = kernel.clock._usec
            proc.rusage.ru_utime_usec += usec
            kernel.clock.advance(usec)
            if prof is not None:
                prof.sample_span(proc, None, start)
            deliver_pending_signals(self)
        finally:
            if rec is not None:
                rec.end()


def deliver_pending_signals(ctx):
    """Deliver every currently deliverable signal, agent upcall first."""
    kernel, proc = ctx.kernel, ctx.proc
    if not proc.pending:
        return
    while True:
        signum = kernel.take_signal(proc)
        if signum is None:
            return
        redirect = proc.signal_redirect
        if redirect is not None:
            # Upcall here; signal.deliver is emitted by
            # deliver_signal_to_application itself iff the agent
            # forwards, so forwarded signals produce an upcall→deliver
            # pair and swallowed ones a lone upcall.
            obs = kernel.obs
            if obs is not None:
                signame = sig.signal_name(signum)
                if obs.metrics_on:
                    obs.metrics.inc((ev.SIG_UPCALL, signame))
                if obs.wants(proc):
                    obs.emit(ev.SIG_UPCALL, proc, signame)
            guard = kernel.guard
            if guard is not None:
                guard.run_signal(ctx, redirect, signum,
                                 proc.dispositions[signum])
            else:
                redirect(ctx, signum, proc.dispositions[signum])
        else:
            deliver_signal_to_application(kernel, proc, signum)


def deliver_signal_to_application(kernel, proc, signum):
    """Run the application's disposition for *signum* in its context.

    This is also the toolkit's "send a signal from an agent up to the
    application" path: an agent's signal redirection calls it (directly
    or via the boilerplate) to forward.  The ``signal.deliver`` event is
    emitted here — the moment the application's own disposition is
    reached — which is what pairs it with a preceding ``signal.upcall``
    when an interposed signal was forwarded through an agent.
    """
    obs = kernel.obs
    if obs is not None:
        signame = sig.signal_name(signum)
        if obs.metrics_on:
            obs.metrics.inc((ev.SIG_DELIVER, signame))
        if obs.wants(proc):
            obs.emit(ev.SIG_DELIVER, proc, signame)
    action = proc.dispositions[signum]
    handler = action.handler
    if handler == sig.SIG_IGN:
        return
    if handler == sig.SIG_DFL:
        what = sig.default_action(signum)
        if what == "ignore":
            return
        if what == "stop":
            kernel.stop_process(proc)
            return
        kernel.terminate(proc, signum)
        raise AssertionError("terminate returned")
    # A caught signal: run the handler with the signal (and the action's
    # extra mask) blocked, restoring the mask afterwards.
    old_mask = proc.sigmask
    proc.sigmask |= action.mask | sig.sigmask(signum)
    try:
        handler(signum)
    finally:
        proc.sigmask = old_mask
