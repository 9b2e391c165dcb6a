"""Process structures: the PCB, descriptor tables, and wait status codes.

A simulated process owns a descriptor table (slots pointing into the
shared open-file table), credentials, a working/root directory, signal
state, resource accounting, and — the part this reproduction exists for —
an *emulation vector* mapping system call numbers to user-mode handlers
(see :mod:`repro.kernel.trap`), with the dispatch table shared by every
process that has the same vector (see :mod:`repro.kernel.compile`).

Processes run on host threads that a kernel reuses (:class:`HostThreads`).
"""

import threading

from repro.kernel import signals as sig
from repro.kernel.compile import dispatch_table
from repro.kernel.errno import EBADF, EINVAL, EMFILE, SyscallError

#: 4.3BSD default descriptor table size (getdtablesize)
DTABLESIZE = 64

# process states
RUNNING = "running"
SLEEPING = "sleeping"
STOPPED = "stopped"
ZOMBIE = "zombie"


class ProcessExit(Exception):
    """Unwinds a process's program when it exits or dies from a signal."""

    def __init__(self, exit_code=0, term_signal=0):
        self.exit_code = exit_code
        self.term_signal = term_signal
        super().__init__("exit(%d)" % exit_code if not term_signal
                         else "killed by %s" % sig.signal_name(term_signal))


class ExecImage(Exception):
    """Unwinds the current program so the trap loop can start a new image.

    Raised by the native ``execve`` implementation and by the
    ``jump_to_image`` primitive agents use when reimplementing exec.
    """

    def __init__(self, program_factory, argv, envp):
        self.program_factory = program_factory
        self.argv = argv
        self.envp = envp
        super().__init__("execve %r" % (argv[:1] or ["?"],))


def wait_status_exited(code):
    """Encode a normal exit as a wait status."""
    return (code & 0xFF) << 8


def wait_status_signaled(term_signal):
    """Encode death-by-signal as a wait status."""
    return term_signal & 0x7F


def WIFEXITED(status):
    """True if the status records a normal exit."""
    return (status & 0x7F) == 0


def WEXITSTATUS(status):
    """The exit code from a normal-exit status."""
    return (status >> 8) & 0xFF


def WIFSIGNALED(status):
    """True if the status records death by signal."""
    return (status & 0x7F) not in (0, 0x7F)


def WTERMSIG(status):
    """The terminating signal from a signaled status."""
    return status & 0x7F


class FDTable:
    """Per-process descriptor slots referencing shared open files.

    The close-on-exec flag is a property of the *descriptor*, not the open
    file, exactly as in 4.3BSD — agents reimplementing ``execve`` must walk
    these flags themselves.
    """

    def __init__(self, size=DTABLESIZE):
        self.size = size
        self._slots = {}
        self._cloexec = set()
        #: the owning Process, so descriptor allocation order can be
        #: recorded (see repro.obs.recorder); None for detached tables
        self.owner = None

    def descriptors(self):
        """The open descriptor numbers, sorted."""
        return sorted(self._slots)

    def lowest_free(self, minfd=0):
        """The lowest free slot at or above *minfd* (EMFILE when full)."""
        if minfd < 0:
            raise SyscallError(EINVAL)
        fd = minfd
        while fd in self._slots:
            fd += 1
        if fd >= self.size:
            raise SyscallError(EMFILE)
        return fd

    def get(self, fd):
        """The open file at *fd* (EBADF when closed)."""
        try:
            return self._slots[fd]
        except (KeyError, TypeError):
            raise SyscallError(EBADF, "fd %r" % (fd,)) from None

    def install(self, fd, ofile, cloexec=False):
        """Bind *fd* (which must be free) to *ofile*."""
        assert fd not in self._slots, "descriptor %d already in use" % fd
        self._slots[fd] = ofile
        if cloexec:
            self._cloexec.add(fd)

    def allocate(self, ofile, minfd=0):
        """Install *ofile* at the lowest free slot; returns it."""
        fd = self.lowest_free(minfd)
        self.install(fd, ofile)
        owner = self.owner
        if owner is not None and owner.kernel.recorder is not None:
            owner.kernel.recorder.note("D", owner.pid, str(fd))
        return fd

    def remove(self, fd):
        """Unbind and return the open file at *fd*."""
        ofile = self.get(fd)
        del self._slots[fd]
        self._cloexec.discard(fd)
        return ofile

    def get_cloexec(self, fd):
        """The close-on-exec flag for *fd*."""
        self.get(fd)
        return fd in self._cloexec

    def set_cloexec(self, fd, on):
        """Set or clear *fd*'s close-on-exec flag."""
        self.get(fd)
        if on:
            self._cloexec.add(fd)
        else:
            self._cloexec.discard(fd)

    def fork_copy(self):
        """Duplicate for fork: same open files, bumped reference counts."""
        child = FDTable(self.size)
        for fd, ofile in self._slots.items():
            ofile.incref()
            child._slots[fd] = ofile
        child._cloexec = set(self._cloexec)
        return child


class Rusage:
    """Resource accounting (a 4.3BSD ``struct rusage`` subset)."""

    __slots__ = ("ru_utime_usec", "ru_stime_usec", "ru_nsyscalls",
                 "ru_inblock", "ru_oublock")

    def __init__(self):
        self.ru_utime_usec = 0
        self.ru_stime_usec = 0
        self.ru_nsyscalls = 0
        self.ru_inblock = 0
        self.ru_oublock = 0

    def add(self, other):
        """Accumulate *other*'s counters into this record."""
        self.ru_utime_usec += other.ru_utime_usec
        self.ru_stime_usec += other.ru_stime_usec
        self.ru_nsyscalls += other.ru_nsyscalls
        self.ru_inblock += other.ru_inblock
        self.ru_oublock += other.ru_oublock

    def snapshot(self):
        """An independent copy of the counters."""
        copy = Rusage()
        copy.add(self)
        return copy


class Process:
    """One simulated process."""

    def __init__(self, kernel, pid, ppid, cred, cwd, root_dir, umask=0o022):
        self.kernel = kernel
        self.pid = pid
        self.ppid = ppid
        self.pgrp = pid
        self.cred = cred
        self.cwd = cwd
        self.root_dir = root_dir
        self.umask = umask
        self.fdtable = FDTable()
        self.fdtable.owner = self
        self.state = RUNNING
        #: true while suspended by a stop signal (cleared by SIGCONT)
        self.suspended = False

        # signal state
        self.dispositions = sig.fresh_dispositions()
        self.sigmask = 0
        self.pending = 0
        #: agent upcall for incoming signals (set via task_set_signal_redirect)
        self.signal_redirect = None

        # emulation (interposition) state
        self.emulation_vector = {}
        #: the dispatch table of this emulation vector (see
        #: repro.kernel.compile.DispatchTable): shared across fork,
        #: replaced whenever the vector changes
        self.dispatch = dispatch_table(kernel, self.emulation_vector)

        #: ktrace participation (see repro.kernel.ktrace): inherited
        #: across fork, cleared by native execve, kept by jump_to_image
        self.ktrace_on = False

        # exec/program state
        self.program = None
        self.argv = []
        self.envp = {}
        self.comm = ""

        # exit bookkeeping
        self.exit_status = None
        self.children = []
        self.rusage = Rusage()
        self.child_rusage = Rusage()

        # real-time interval timer (virtual usec deadline, 0 = unarmed;
        # interval reloads the timer after each expiry)
        self.alarm_deadline = 0
        self.alarm_interval = 0

        self.thread = None
        #: address-space break, tracked for brk/sbrk completeness
        self.brk = 0x10000

    # -- signal helpers -----------------------------------------------------

    def post(self, signum):
        """Mark *signum* pending (kernel side of kill())."""
        if signum == sig.SIGCONT:
            # SIGCONT discards pending stop signals and resumes.
            for stopper in (sig.SIGSTOP, sig.SIGTSTP, sig.SIGTTIN, sig.SIGTTOU):
                self.pending &= ~sig.sigmask(stopper)
            self.suspended = False
        if signum in (sig.SIGSTOP, sig.SIGTSTP, sig.SIGTTIN, sig.SIGTTOU):
            self.pending &= ~sig.sigmask(sig.SIGCONT)
        self.pending |= sig.sigmask(signum)

    def deliverable_mask(self):
        """Pending, unblocked signals that would have an effect."""
        mask = self.pending & ~self.sigmask
        # SIGKILL and SIGSTOP cannot be blocked.
        mask |= self.pending & (sig.sigmask(sig.SIGKILL) | sig.sigmask(sig.SIGSTOP))
        effective = 0
        while mask:
            bit = mask & -mask
            mask ^= bit
            signum = bit.bit_length()
            action = self.dispositions[signum].handler
            if action == sig.SIG_IGN and signum not in sig.UNCATCHABLE:
                continue
            if (action == sig.SIG_DFL
                    and sig.default_action(signum) == "ignore"):
                continue
            effective |= bit
        return effective

    def has_deliverable_signal(self):
        """True if any signal would act at the next boundary."""
        return bool(self.deliverable_mask())

    def take_signal(self):
        """Pop the lowest-numbered deliverable signal, or ``None``."""
        mask = self.deliverable_mask()
        if not mask:
            return None
        bit = mask & -mask
        self.pending &= ~bit
        return bit.bit_length()

    # -- identity -----------------------------------------------------------

    def __repr__(self):
        return "<Process pid=%d %s %s>" % (self.pid, self.comm or "?", self.state)


# -- host threads ------------------------------------------------------------

#: seconds a parked host thread waits for its next process before it
#: exits (so a world that never joins its processes leaks no thread)
IDLE_SECONDS = 1.0


class HostThread:
    """A join handle for one simulated process on a pooled host thread,
    shaped like the :class:`threading.Thread` it stands in for."""

    __slots__ = ("name", "_running")

    def __init__(self, name):
        self.name = name
        #: held from the hand-off until the process's body returns
        self._running = threading.Lock()
        self._running.acquire()

    def join(self, timeout=None):
        """Wait until the process's body has returned, or *timeout*."""
        if self._running.acquire(timeout=-1 if timeout is None else timeout):
            self._running.release()

    def is_alive(self):
        """True while the process's body is still running."""
        return self._running.locked()


class _Worker:
    __slots__ = ("thread", "wake", "job")

    def __init__(self, job):
        self.thread = None
        #: held while the worker is parked; released to hand it a job
        self.wake = threading.Lock()
        self.wake.acquire()
        #: (handle, target, args) to run next; None tells it to exit
        self.job = job


class HostThreads:
    """The host threads one kernel runs its simulated processes on.

    Unbounded: a process is handed to a parked thread if there is one
    and to a new :class:`threading.Thread` otherwise, never queued
    behind a busy one (every process of a pipeline must run at once).
    Threads are started on demand, inside the run that needs them, so a
    ``threading.setprofile`` hook set around the run reaches them.
    :meth:`retire` ends the parked ones; a thread left parked longer
    than :data:`IDLE_SECONDS` ends itself.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._idle = []
        self._workers = []
        self._retiring = False
        #: host threads started over the kernel's life
        self.started = 0

    def run(self, name, target, args):
        """Run ``target(*args)`` on a host thread; returns its join
        handle (a :class:`HostThread` named *name*)."""
        handle = HostThread(name)
        job = (handle, target, args)
        with self._lock:
            if self._idle:
                worker = self._idle.pop()
                worker.job = job
                worker.wake.release()
                return handle
            worker = _Worker(job)
            self.started += 1
            worker.thread = threading.Thread(
                target=self._work, args=(worker,),
                name="host%d" % self.started, daemon=True)
            self._workers.append(worker)
        worker.thread.start()
        return handle

    def _work(self, worker):
        job = worker.job
        while job is not None:
            handle, target, args = job
            worker.job = job = None
            try:
                target(*args)
            finally:
                handle._running.release()
            # park without holding on to the finished process
            handle = target = args = None
            job = self._park(worker)

    def _park(self, worker):
        with self._lock:
            if self._retiring:
                return None
            self._idle.append(worker)
        if not worker.wake.acquire(timeout=IDLE_SECONDS):
            with self._lock:
                if worker in self._idle:
                    self._idle.remove(worker)
                    self._workers.remove(worker)
                    return None
            # a hand-off popped this worker as the wait timed out; its
            # release is on the way
            worker.wake.acquire()
        return worker.job

    def retire(self):
        """End every thread once its process has finished and wait for
        each to exit.  Call only when no process is running."""
        with self._lock:
            self._retiring = True
            idle, self._idle = self._idle, []
            workers, self._workers = self._workers, []
        for worker in idle:
            worker.wake.release()
        for worker in workers:
            worker.thread.join()
        self._retiring = False
