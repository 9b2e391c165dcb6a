"""The kernel proper: process table, dispatch, sleep/wakeup, boot.

One :class:`Kernel` is one booted machine.  Simulated processes run on
reused host threads (:class:`repro.kernel.proc.HostThreads`), serialised
by a single kernel lock (the classic big-lock BSD kernel); blocking
system calls sleep on one shared sleep queue and recheck their wait
condition on every wakeup.
"""

import threading
import traceback

from repro.kernel import cred as credmod
from repro.kernel import signals as sig
from repro.kernel import stat as st
from repro.kernel.clock import Clock
from repro.kernel.devices import ConsoleDevice, DeviceSwitch, NullDevice, ZeroDevice
from repro.kernel.errno import (
    EACCES,
    EBUSY,
    EINTR,
    EINVAL,
    ENOENT,
    ENOEXEC,
    ENOSYS,
    ENOTDIR,
    ESRCH,
    SyscallError,
)
from repro.kernel.fastpath import FastPathConfig
from repro.kernel.faultsite import MachineCrash
from repro.kernel.namecache import NameCache
from repro.kernel.namei import namei
from repro.kernel.ofile import (
    DeviceFile,
    FifoEnd,
    InodeFile,
    open_mode_bits,
)
from repro.kernel.pipe import Pipe
from repro.kernel.proc import (
    ExecImage,
    HostThreads,
    Process,
    ProcessExit,
    RUNNING,
    STOPPED,
    ZOMBIE,
    wait_status_exited,
    wait_status_signaled,
)
from repro.kernel.sysent import entry_for, number_of
from repro.kernel.syscalls import DISPATCH
from repro.kernel.trap import UserContext, kernel_entry
from repro.kernel.ufs import Filesystem
from repro.obs import events as obs_events

SYS_EXIT = number_of("exit")

#: marker line prefix for native "binaries" in the simulated filesystem
EXEC_MAGIC = "#!repro-exec "


class ProgramCrash(RuntimeError):
    """A simulated program raised an unexpected host exception."""


class _HostContext:
    """Root-credential resolution context for host-side helpers."""

    def __init__(self, kernel):
        self.cred = credmod.Cred(0, 0)
        self.kernel = kernel

    @property
    def cwd(self):
        return self.kernel.rootfs.root

    @property
    def root_dir(self):
        return self.kernel.rootfs.root


class Kernel:
    """A booted simulated machine."""

    def __init__(self, hostname="mach25.repro", page_size=4096,
                 fastpaths=None, obs=None, guard=None, journal=False):
        self.hostname = hostname
        self.page_size = page_size
        self.clock = Clock()
        #: crash tag once the machine has halted (see :meth:`crash` and
        #: :mod:`repro.kernel.faultsite`); None while the machine runs.
        #: Every kernel-world entry checks it, so surviving threads die
        #: silently instead of mutating a halted machine's state.
        self.crashed = None
        #: whether volumes this kernel creates get a write-ahead journal
        #: (see :mod:`repro.kernel.journal`); False — the default —
        #: keeps every metadata path bit-for-bit the seed
        self.journal_on = bool(journal)
        #: flag word for the kernel fast paths (see repro.kernel.fastpath);
        #: accepts a FastPathConfig, a spec string ("none", "namecache,..."),
        #: or None for the $REPRO_FASTPATH / all-on default
        self.fastpaths = FastPathConfig.parse(fastpaths)
        #: the 4.3BSD directory name lookup cache, shared by every volume
        #: this kernel creates (None when the fast path is off)
        self.namecache = NameCache() if self.fastpaths.namecache else None
        self.rootfs = Filesystem(self.clock, dev=1,
                                 namecache=self.namecache,
                                 zero_copy=self.fastpaths.zero_copy)
        if self.journal_on:
            self.rootfs.attach_journal()
        self._next_dev = 2
        #: every volume this kernel created, for machine-wide toggles
        #: (fault-site arming); umount does not remove entries — a
        #: detached volume keeps its inodes and may be re-mounted
        self._volumes = [self.rootfs]

        self._lock = threading.Lock()
        self._sleepq = threading.Condition(self._lock)
        self._sleepers = 0
        self._watchdog_seconds = 30.0

        self._procs = {}
        self._next_pid = 1
        #: the host threads processes run on; ``host_threads.started``
        #: counts the threads started
        self.host_threads = HostThreads()
        #: join handles of the processes started since the last join
        self._threads = []
        self.panics = []
        #: application system calls issued (trap instructions, not htg
        #: downcalls) — the paper's per-workload syscall counts
        self.trap_total = 0
        #: uninterposed traps dispatched through a dispatch-table kernel
        #: terminal (a subset of trap_total; see repro.kernel.compile)
        self.trap_fast_total = 0
        #: interposed traps dispatched through a compiled flat chain (a
        #: subset of trap_total; see repro.kernel.compile)
        self.trap_compiled_total = 0
        #: agent downcalls dispatched through a compiled chain instead
        #: of the htg round trip (disjoint from trap_total, which never
        #: counts downcalls)
        self.down_compiled_total = 0
        #: fork/execve accounting for the make workload's "64 pairs"
        self.fork_total = 0
        self.exec_total = 0

        self._programs = {}

        self.devswitch = DeviceSwitch()
        self.console = ConsoleDevice()
        self._console_rdev = self.devswitch.register(self.console)
        self._null_rdev = self.devswitch.register(NullDevice())
        self._zero_rdev = self.devswitch.register(ZeroDevice())

        #: in-kernel DFSTrace collector (None unless enabled); the
        #: monolithic baseline for the Section 3.5.3 comparison
        self.dfstrace = None

        #: observability switchboard (see :mod:`repro.obs`); None — the
        #: default — keeps every instrumentation site down to a single
        #: ``is None`` test, the subsystem's own pay-per-use guarantee.
        #: The *obs* constructor argument enables it at boot: ``True``
        #: for metrics, or a comma-separated feature spec out of
        #: ``"metrics"`` / ``"trace"`` / ``"spans"``.
        self.obs = None

        #: armed kernel fault sites (see :mod:`repro.kernel.faultsite`);
        #: None — the default — keeps every site to one ``is None`` test
        self.faultsites = None

        #: deterministic record/replay (see :mod:`repro.obs.recorder`);
        #: None — the default — keeps the trap spine, the sleep queue,
        #: and every allocator down to one ``is None`` test.  Installed
        #: by ``Recorder.attach`` or the ``obs="...,record"`` spec, so
        #: it must exist before the spec below is processed.
        self.recorder = None

        #: virtual-clock sampling profiler (see :mod:`repro.obs.profile`);
        #: None — the default — keeps the clock-advance sample hooks to
        #: one ``is None`` test.  Must exist before the obs spec below
        #: (``obs="...,profile"`` attaches one at boot).
        self.profiler = None

        #: declarative watchpoints (see :mod:`repro.obs.watch`); None —
        #: the default — keeps the metric-flush hook to one ``is None``
        #: test per trap
        self.watches = None

        #: the mounted /proc pseudo-filesystem (see
        #: :mod:`repro.kernel.procfs`), or None when not mounted; set
        #: and cleared by ``mount_procfs``/``umount_procfs``
        self.procfs = None

        #: virtual time at boot, for /proc/uptime
        self.boot_usec = self.clock.usec()

        if obs:
            from repro.obs.core import enable_from_spec
            enable_from_spec(self, obs)

        #: trap-spine agent fault containment (see
        #: :mod:`repro.toolkit.guard`); None — the default — keeps the
        #: guard hook to one ``is None`` test on interposed calls, the
        #: same pay-per-use discipline as obs.  The *guard* constructor
        #: argument installs a rail at boot from a policy spec
        #: (``"fail-stop"``, ``"fail-open"``, ``"quarantine:3"``).
        self.guard = None
        if guard:
            from repro.toolkit.guard import install_guard
            install_guard(self, guard)

        self._host = _HostContext(self)
        self._make_dev_tree()

    # ------------------------------------------------------------------
    # boot-time filesystem setup
    # ------------------------------------------------------------------

    def _make_dev_tree(self):
        root = self.rootfs.root
        for name in ("dev", "tmp", "bin", "usr", "etc", "home"):
            self.rootfs.mkdir_in(root, name, 0o755, self._host.cred)
        tmp = self.lookup_host("/tmp")
        tmp.mode = (tmp.mode & st.S_IFMT) | 0o1777
        self.mkdir_p("/usr/bin")
        self.mkdir_p("/usr/lib")
        self.mkdir_p("/usr/include")
        self.mkdir_p("/usr/tmp")
        usr_tmp = self.lookup_host("/usr/tmp")
        usr_tmp.mode = (usr_tmp.mode & st.S_IFMT) | 0o1777
        self.mknod_host("/dev/console", "char", self._console_rdev)
        self.mknod_host("/dev/tty", "char", self._console_rdev)
        self.mknod_host("/dev/null", "char", self._null_rdev)
        self.mknod_host("/dev/zero", "char", self._zero_rdev)
        self.write_file(
            "/etc/passwd",
            "root:*:0:0:Operator:/:/bin/sh\n"
            "mbj:*:101:10:Michael B. Jones:/home/mbj:/bin/sh\n",
        )
        self.mkdir_p("/home/mbj")

    # ------------------------------------------------------------------
    # host-side filesystem helpers (root credentials, no process needed)
    # ------------------------------------------------------------------

    def lookup_host(self, path, follow=True):
        """Host-side: resolve *path* with root credentials."""
        return namei(self._host, path, follow=follow).require()

    def mkdir_p(self, path):
        """Host-side: create *path* and any missing ancestors."""
        parts = [p for p in path.split("/") if p]
        current = "/"
        for part in parts:
            current = current.rstrip("/") + "/" + part
            try:
                self.lookup_host(current)
            except SyscallError:
                result = namei(self._host, current, want_parent=True)
                result.parent.fs.mkdir_in(
                    result.parent, result.name, 0o755, self._host.cred
                )

    def mknod_host(self, path, kind, rdev):
        """Host-side: place a device node at *path*."""
        result = namei(self._host, path, want_parent=True)
        fs = result.parent.fs
        node = fs.create_device(0o666, self._host.cred, kind, rdev)
        try:
            fs.link(result.parent, result.name, node)
        except SyscallError:
            # Unwind: never leak the fresh device node in the table.
            fs.maybe_reclaim(node)
            raise
        return node

    def write_file(self, path, data, mode=0o644):
        """Host-side: create/overwrite *path* with *data*."""
        if isinstance(data, str):
            data = data.encode()
        result = namei(self._host, path, want_parent=True)
        if result.inode is None:
            fs = result.parent.fs
            node = fs.create_file(mode, self._host.cred)
            try:
                fs.link(result.parent, result.name, node)
            except SyscallError:
                # Unwind: same shape as creat — the fresh inode must
                # not survive a failed link.
                fs.maybe_reclaim(node)
                raise
        else:
            node = result.inode
        node.data[:] = data
        node.touch_mtime(self.clock.usec())
        return node

    def read_file(self, path):
        """Host-side: the contents of the regular file at *path*."""
        node = self.lookup_host(path)
        if not node.is_reg():
            raise SyscallError(EINVAL, "%s is not a regular file" % path)
        return bytes(node.data)

    # ------------------------------------------------------------------
    # program registry and image loading
    # ------------------------------------------------------------------

    def register_program(self, name, factory):
        """Register a program factory: ``factory(ctx, argv, envp) -> status``."""
        if not callable(factory):
            raise TypeError("program factory must be callable")
        factory.program_name = name
        self._programs[name] = factory

    def install_binary(self, path, program_name, mode=0o755):
        """Write an executable file whose image is a registered program."""
        if program_name not in self._programs:
            raise KeyError("program %r is not registered" % program_name)
        self.write_file(path, EXEC_MAGIC + program_name + "\n", mode=mode)
        self.lookup_host(path).mode = st.S_IFREG | mode

    def load_image_locked(self, proc, path, _depth=0):
        """Resolve *path* to ``(factory, argv_prefix)`` or fail as exec would."""
        inode = namei(proc, path, follow=True).require()
        if inode.is_dir():
            raise SyscallError(EACCES, path)
        if not inode.is_reg():
            raise SyscallError(EACCES, path)
        credmod.check_access(inode, proc.cred, credmod.X_OK)
        data = bytes(inode.data)
        header, _, _ = data.partition(b"\n")
        try:
            first_line = header.decode()
        except UnicodeDecodeError:
            raise SyscallError(ENOEXEC, path) from None
        if first_line.startswith(EXEC_MAGIC):
            name = first_line[len(EXEC_MAGIC):].strip()
            factory = self._programs.get(name)
            if factory is None:
                raise SyscallError(ENOEXEC, "unknown image %r" % name)
            return factory, []
        if first_line.startswith("#!") and _depth == 0:
            parts = first_line[2:].strip().split()
            if not parts:
                raise SyscallError(ENOEXEC, path)
            interp = parts[0]
            factory, _ = self.load_image_locked(proc, interp, _depth=1)
            return factory, [interp] + parts[1:] + [path]
        raise SyscallError(ENOEXEC, path)

    # ------------------------------------------------------------------
    # system call dispatch
    # ------------------------------------------------------------------

    def do_syscall(self, proc, number, args):
        """Execute the kernel implementation of one system call."""
        entry = entry_for(number)
        impl = DISPATCH.get(number)
        if impl is None:
            raise SyscallError(ENOSYS, entry.name)
        return kernel_entry(self, proc, impl, entry, args)

    # ------------------------------------------------------------------
    # sleep / wakeup
    # ------------------------------------------------------------------

    def sleep_until(self, predicate, proc, wchan, interruptible=True):
        """Sleep (kernel lock held) until *predicate* becomes true.

        An interruptible sleep raises ``EINTR`` when a deliverable signal
        is pending, like a 4.3BSD ``tsleep`` at a signal-catching priority.
        When every live process is asleep, the earliest armed alarm fires
        (the idle loop advancing virtual time).

        Under record/replay's turn token only *admission* changes.  The
        caller entered holding the token (it is inside a trap), so the
        first pass runs inline — a deterministic continuation of the
        trap, logged as nothing.  Before each ``wait`` the token is
        suspended so other threads can take turns; each wakeup asks the
        recorder for a *grant* (FCFS in record mode, log-head-driven in
        replay) and a granted pass runs until it either exits the sleep
        (``W``), raises ``EINTR`` (``E``), or falls back to the queue
        having fired an alarm or advanced the idle clock (``Y``).  A
        no-op pass — possible only under record's FCFS grants — is
        released unlogged, which keeps host-timing-dependent spurious
        wakeups out of the log.  After a pass the other sleepers are
        woken only when it changed state or the recorder asks for it:
        replay always does, record only when a sleeper was refused the
        token.  Without a recorder every pass is granted.
        """
        rec = self.recorder
        self._sleepers += 1
        proc.state = "sleeping:" + wchan
        if rec is not None:
            depth = rec.held_depth()
        granted = True   # the inline first pass, under the trap's token
        logged = False   # True when the current grant must commit a line
        waited = 0.0
        try:
            while True:
                if granted:
                    if self.crashed is not None:
                        # The machine halted while we slept (the passive
                        # transition frees blocked sleepers): die in place.
                        raise MachineCrash(self.crashed)
                    dirty = False
                    exit_kind = None
                    while True:
                        if predicate():
                            exit_kind = "W"
                            break
                        if self._check_alarm_locked(proc):
                            dirty = True
                        if interruptible and proc.has_deliverable_signal():
                            exit_kind = "E"
                            break
                        if self._sleepers >= self._live_count_locked():
                            if self._fire_earliest_alarm_locked():
                                dirty = True
                                continue
                        break  # nothing left to do: back to the queue
                    if exit_kind is not None:
                        if logged:
                            rec.commit(proc, exit_kind, wchan)
                        if exit_kind == "E":
                            raise SyscallError(EINTR, wchan)
                        return
                    if rec is not None:
                        if logged:
                            if dirty:
                                wake = rec.commit(proc, "Y", wchan)
                            else:
                                wake = rec.release_grant(proc)
                        else:
                            wake = rec.suspend()
                        # Token released: wake the other sleepers when
                        # this pass changed state or the recorder says
                        # one of them was refused the token meanwhile.
                        if dirty or wake:
                            self.wakeup()
                if not self._sleepq.wait(timeout=0.05):
                    waited += 0.05
                    if waited >= self._watchdog_seconds:
                        raise RuntimeError(
                            "sleep_until watchdog: pid %d stuck on %r"
                            % (proc.pid, wchan)
                        )
                else:
                    waited = 0.0
                if rec is not None:
                    granted = logged = rec.try_resume(proc, depth)
        finally:
            self._sleepers -= 1
            if proc.state.startswith("sleeping:"):
                proc.state = RUNNING

    def wakeup(self):
        """Wake all sleepers to recheck their conditions (lock held)."""
        self._sleepq.notify_all()

    def _live_count_locked(self):
        return sum(1 for p in self._procs.values() if p.state != ZOMBIE)

    def _check_alarm_locked(self, proc):
        if proc.alarm_deadline and self.clock.usec() >= proc.alarm_deadline:
            if proc.alarm_interval:
                proc.alarm_deadline += proc.alarm_interval
            else:
                proc.alarm_deadline = 0
            proc.post(sig.SIGALRM)
            self.wakeup()
            return True
        return False

    def _fire_earliest_alarm_locked(self):
        armed = [
            p
            for p in self._procs.values()
            if p.state != ZOMBIE and p.alarm_deadline
        ]
        if not armed:
            return False
        earliest = min(p.alarm_deadline for p in armed)
        if earliest > self.clock.usec():
            self.clock.advance(earliest - self.clock.usec())
        for p in armed:
            self._check_alarm_locked(p)
        return True

    # ------------------------------------------------------------------
    # signals (public entry points acquire the lock)
    # ------------------------------------------------------------------

    def post_signal(self, proc, signum):
        """Post *signum* to *proc* (acquires the kernel lock)."""
        with self._sleepq:
            proc.post(signum)
            self.wakeup()

    def take_signal(self, proc):
        """Pop *proc*'s next deliverable signal (locked)."""
        with self._sleepq:
            return proc.take_signal()

    def terminate(self, proc, signum):
        """Die from a signal: bookkeeping, then unwind the program."""
        with self._sleepq:
            self.finish_exit_locked(proc, term_signal=signum)
        raise ProcessExit(term_signal=signum)

    def stop_process(self, proc):
        """Default action for stop signals: suspend until SIGCONT."""
        with self._sleepq:
            proc.suspended = True
            self.wakeup()
            self.sleep_until(
                lambda: not proc.suspended
                or proc.pending & sig.sigmask(sig.SIGKILL),
                proc,
                "stopped",
                interruptible=False,
            )
            proc.suspended = False

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------

    def find_process_locked(self, pid):
        """The process with *pid* (ESRCH if none)."""
        try:
            return self._procs[pid]
        except KeyError:
            raise SyscallError(ESRCH, "pid %r" % (pid,)) from None

    def live_processes_locked(self):
        """Every non-zombie process."""
        return [p for p in self._procs.values() if p.state != ZOMBIE]

    def process_count(self):
        """How many processes the table holds."""
        with self._sleepq:
            return len(self._procs)

    def _alloc_pid_locked(self):
        pid = self._next_pid
        self._next_pid += 1
        if self.recorder is not None:
            self.recorder.note("P", 0, str(pid))
        return pid

    def spawn_child_locked(self, parent, entry):
        """fork(): duplicate *parent*, running *entry* in the child."""
        child = Process(
            self,
            self._alloc_pid_locked(),
            parent.pid,
            parent.cred.copy(),
            parent.cwd,
            parent.root_dir,
            parent.umask,
        )
        child.pgrp = parent.pgrp
        child.fdtable = parent.fdtable.fork_copy()
        child.fdtable.owner = child
        child.dispositions = {
            signum: action.copy()
            for signum, action in parent.dispositions.items()
        }
        child.sigmask = parent.sigmask
        # The child's address space is a copy of the parent's — which, on
        # Mach 2.5, contains the agent.  The emulation vector references
        # the same agent instance (paper Figure 1-4: shared agent state).
        child.emulation_vector = dict(parent.emulation_vector)
        child.dispatch = parent.dispatch
        child.signal_redirect = parent.signal_redirect
        child.comm = parent.comm
        child.argv = list(parent.argv)
        child.envp = dict(parent.envp)
        # ktrace participation is inherited, like BSD's ktrace -i: this
        # is what lets the in-world ktrace program cover a whole pipeline.
        child.ktrace_on = parent.ktrace_on
        self._procs[child.pid] = child
        parent.children.append(child)
        obs = self.obs
        if obs is not None:
            if obs.metrics_on:
                obs.metrics.inc(("proc.fork",))
            if obs.wants(parent):
                obs.emit(obs_events.PROC_FORK, parent,
                         detail="child pid %d" % child.pid,
                         link_pid=child.pid)
        if entry is None:
            entry = lambda ctx: 0  # noqa: E731 - a child that just exits
        self._start_process_thread(child, ("entry", entry))
        return child

    def finish_exit_locked(self, proc, exit_code=0, term_signal=0):
        """Exit bookkeeping: close, reparent, zombify, notify."""
        if proc.state == ZOMBIE:
            return
        obs = self.obs
        if obs is not None:
            if obs.metrics_on:
                obs.metrics.inc(("proc.exit",))
            if obs.wants(proc):
                detail = ("signal %d" % term_signal if term_signal
                          else "status %d" % exit_code)
                obs.emit(obs_events.PROC_EXIT, proc, detail=detail)
        for fd in list(proc.fdtable.descriptors()):
            proc.fdtable.remove(fd).decref(self)
        proc.alarm_deadline = 0
        # Orphaned children are inherited by init (pid 1); if init itself
        # is dying, they are auto-reaped when they exit.
        init = self._procs.get(1)
        for child in proc.children:
            child.ppid = 1
            if init is not None and init is not proc and init.state != ZOMBIE:
                init.children.append(child)
            elif child.state == ZOMBIE:
                self._procs.pop(child.pid, None)
        proc.children = []
        if term_signal:
            proc.exit_status = wait_status_signaled(term_signal)
        else:
            proc.exit_status = wait_status_exited(exit_code)
        proc.state = ZOMBIE
        parent = self._procs.get(proc.ppid)
        if parent is not None and parent.state != ZOMBIE:
            parent.post(sig.SIGCHLD)
        else:
            self._procs.pop(proc.pid, None)
        self.wakeup()

    def reap_locked(self, parent, child):
        """wait(): collect a zombie child's status and accounting."""
        status = child.exit_status
        parent.child_rusage.add(child.rusage)
        parent.child_rusage.add(child.child_rusage)
        parent.children.remove(child)
        self._procs.pop(child.pid, None)
        return (child.pid, status)

    # ------------------------------------------------------------------
    # open file construction
    # ------------------------------------------------------------------

    def make_open_file(self, proc, inode, flags):
        """Construct the right open-file type for *inode* (FIFOs block for their peer here)."""
        maker = getattr(inode.fs, "open_file", None)
        if maker is not None:
            # A filesystem that constructs its own open files (procfs's
            # snapshotting reader); the vfs seam stays one getattr for
            # every volume that doesn't.
            return maker(self, proc, inode, flags)
        bits = open_mode_bits(flags)
        if st.S_ISCHR(inode.mode) or st.S_ISBLK(inode.mode):
            device = self.devswitch.lookup(inode.rdev)
            return DeviceFile(inode, device, bits, flags)
        if st.S_ISFIFO(inode.mode):
            if inode.pipe is None:
                inode.pipe = Pipe()
            from repro.kernel.ofile import FREAD, FWRITE

            pipe = inode.pipe
            writers_before = pipe.total_writers
            readers_before = pipe.total_readers
            end = FifoEnd(inode, pipe, bits)
            self.wakeup()  # a blocked opener of the other end may proceed
            # 4.3BSD semantics: opening one end blocks until the other
            # end is (or has since been) opened; O_RDWR opens both ends
            # and never blocks.
            try:
                if bits == FREAD:
                    self.sleep_until(
                        lambda: pipe.writers > 0
                        or pipe.total_writers > writers_before,
                        proc,
                        "fifo-open-rd",
                    )
                elif bits == FWRITE:
                    self.sleep_until(
                        lambda: pipe.readers > 0
                        or pipe.total_readers > readers_before,
                        proc,
                        "fifo-open-wr",
                    )
            except SyscallError:
                end.decref(self)
                raise
            return end
        return InodeFile(inode, bits, flags)

    # ------------------------------------------------------------------
    # mounts
    # ------------------------------------------------------------------

    def new_filesystem(self):
        """A fresh volume with a unique device number."""
        fs = Filesystem(self.clock, dev=self._next_dev,
                        namecache=self.namecache,
                        zero_copy=self.fastpaths.zero_copy)
        if self.journal_on:
            fs.attach_journal()
        fs.faultsites = self.faultsites
        self._next_dev += 1
        self._volumes.append(fs)
        return fs

    def arm_faults(self, sites):
        """Arm seed-scheduled kernel fault sites on the whole machine.

        *sites* is a :class:`repro.kernel.faultsite.FaultSet` (or a spec
        accepted by its ``parse``); it is installed on the kernel and on
        every volume, so ufs/pipe/namei internals consult it.  Returns
        the installed set.  ``disarm_faults`` restores the seed paths.
        """
        from repro.kernel.faultsite import FaultSet
        sites = FaultSet.parse(sites)
        sites.recorder = self.recorder
        sites.kernel = self
        self.faultsites = sites
        for fs in self._volumes:
            fs.faultsites = sites
        return sites

    def disarm_faults(self):
        """Disarm every kernel fault site; returns the detached set."""
        sites = self.faultsites
        self.faultsites = None
        for fs in self._volumes:
            fs.faultsites = None
        return sites

    # ------------------------------------------------------------------
    # crash and recovery
    # ------------------------------------------------------------------

    def crash(self, tag="host.crash"):
        """Halt the machine abruptly — the host pulling the power cord.

        Volume state (including each write-ahead journal) is preserved
        exactly as it stands; every simulated process dies silently, no
        exit bookkeeping runs.  :meth:`remount` reboots the machine and
        runs recovery.  Crash-armed fault sites reach the same state
        through :meth:`_crash_locked` mid-operation.
        """
        with self._sleepq:
            self._crash_locked(tag)

    def _crash_locked(self, tag, proc=None):
        """Mark the machine crashed (kernel lock held); idempotent.

        Order matters for record/replay bit-identity: ``crashed`` is
        set *before* the recorder goes passive, so any thread the
        passive transition frees from the turn queue is guaranteed to
        see the flag and die without emitting events.  The only
        post-crash log/obs activity is the crashing thread's own fault
        decision, strictly ordered under its turn.
        """
        if self.crashed is not None:
            return
        self.crashed = tag
        obs = self.obs
        if obs is not None:
            if obs.metrics_on:
                obs.metrics.inc((obs_events.KERNEL_CRASH, tag))
            if proc is not None and obs.wants(proc):
                obs.emit(obs_events.KERNEL_CRASH, proc, tag,
                         "machine halted")
        if self.recorder is not None:
            self.recorder.machine_crashed(tag)
        self.wakeup()

    def remount(self):
        """Reboot a crashed machine: recover every volume, clear procs.

        Returns ``{dev: report}`` from each volume's
        :meth:`~repro.kernel.ufs.Filesystem.recover` — journal replay
        counts plus the fsck-style sweep.  The process table, sleep
        queue, and panic list restart empty (nothing survives a power
        cut); inode tables and journals carry over, which is the whole
        point.
        """
        with self._sleepq:
            reports = {}
            for fs in self._volumes:
                reports[fs.dev] = fs.recover()
            obs = self.obs
            if obs is not None and obs.metrics_on:
                for report in reports.values():
                    obs.metrics.inc((obs_events.JOURNAL_REPLAY,),
                                    report["redone"] + report["undone"] + 1)
            self._procs = {}
            self._threads = []
            self._sleepers = 0
            self._next_pid = 1
            self.panics = []
            self.crashed = None
            self.boot_usec = self.clock.usec()
            return reports

    def mount(self, fs, path):
        """Mount *fs* on the directory at *path* (host-side operation)."""
        node = self.lookup_host(path)
        if not node.is_dir():
            raise SyscallError(ENOTDIR, path)
        already_mount_root = node.ino == 2 and node.fs.covered is not None
        if node.mounted is not None or already_mount_root:
            raise SyscallError(EBUSY, "%s is already a mount point" % path)
        if fs.covered is not None:
            raise SyscallError(EBUSY, "filesystem is already mounted")
        node.mounted = fs
        fs.covered = node
        # The name cache stores post-mount-crossing children, so any
        # change to the mount topology invalidates it wholesale.
        if self.namecache is not None:
            self.namecache.purge()

    def umount(self, path):
        """Detach the filesystem mounted at *path*."""
        node = self.lookup_host(path)
        # lookup_host crosses the mount, so node is the mounted fs root.
        fs = node.fs
        if fs.covered is None:
            raise SyscallError(EINVAL, "%s is not a mount point" % path)
        fs.covered.mounted = None
        fs.covered = None
        if self.namecache is not None:
            self.namecache.purge()

    # ------------------------------------------------------------------
    # running programs
    # ------------------------------------------------------------------

    def _create_initial_process(self, uid=0, gid=0):
        with self._sleepq:
            proc = Process(
                self,
                self._alloc_pid_locked(),
                0,
                credmod.Cred(uid, gid),
                self.rootfs.root,
                self.rootfs.root,
            )
            self._procs[proc.pid] = proc
            console = self.lookup_host("/dev/console")
            tty = self.make_open_file(proc, console, 2)  # O_RDWR
            proc.fdtable.install(0, tty)
            tty.incref()
            proc.fdtable.install(1, tty)
            tty.incref()
            proc.fdtable.install(2, tty)
            return proc

    def _start_process_thread(self, proc, start):
        proc.thread = self.host_threads.run(
            "pid%d" % proc.pid, self._process_thread, (proc, start))
        self._threads.append(proc.thread)

    def _process_thread(self, proc, start):
        ctx = UserContext(self, proc)
        current = start
        while True:
            try:
                if current[0] == "image":
                    _, factory, argv, envp = current
                    proc.argv = list(argv)
                    proc.envp = dict(envp)
                    if argv:
                        proc.comm = argv[0]
                    status = factory(ctx, list(argv), dict(envp))
                else:
                    status = current[1](ctx)
                ctx.trap(SYS_EXIT, int(status or 0))
                raise AssertionError("exit trap returned")
            except ExecImage as image:
                current = ("image", image.program_factory, image.argv, image.envp)
            except ProcessExit:
                return
            except MachineCrash:
                # The machine halted: the process dies silently — no
                # exit bookkeeping, no panic, exactly like a power cut.
                return
            except BaseException as exc:  # a bug in a simulated program
                self._record_panic(proc, exc)
                return

    def _record_panic(self, proc, exc):
        self.panics.append(
            (proc.pid, proc.comm, exc, traceback.format_exc())
        )
        with self._sleepq:
            self.finish_exit_locked(proc, term_signal=sig.SIGSEGV)

    def _join_all(self, timeout):
        # Re-read the list each pass: joining a parent can reveal threads
        # it forked after this call started.  A plain snapshot would miss
        # orphans whose parent died without waiting (e.g. a fail-stop
        # kill mid-pipeline), letting callers observe a half-dead world.
        joined = 0
        while joined < len(self._threads):
            thread = self._threads[joined]
            joined += 1
            thread.join(timeout=timeout)
            if thread.is_alive():
                raise RuntimeError("simulated process %s did not exit" % thread.name)
        self._threads = []
        self.host_threads.retire()

    def _raise_panics(self):
        if self.panics:
            pid, comm, exc, text = self.panics[0]
            raise ProgramCrash(
                "pid %d (%s) crashed: %r\n%s" % (pid, comm, exc, text)
            ) from exc

    def run(self, path, argv=None, envp=None, uid=0, timeout=120.0):
        """Load and run the binary at *path* as the initial process.

        Returns the process's wait status (use ``WEXITSTATUS``).  Raises
        :class:`ProgramCrash` if any simulated program hit a host bug.
        """
        argv = list(argv) if argv is not None else [path]
        proc = self._create_initial_process(uid=uid)
        with self._sleepq:
            factory, prefix = self.load_image_locked(proc, path)
        if prefix:
            argv = prefix + argv[1:]
        proc.comm = argv[0]
        self._start_process_thread(proc, ("image", factory, argv, dict(envp or {})))
        self._join_all(timeout)
        self._raise_panics()
        return proc.exit_status

    def run_entry(self, entry, uid=0, timeout=120.0):
        """Run a host callable ``entry(ctx)`` as the initial process."""
        proc = self._create_initial_process(uid=uid)
        proc.comm = getattr(entry, "__name__", "entry")
        self._start_process_thread(proc, ("entry", entry))
        self._join_all(timeout)
        self._raise_panics()
        return proc.exit_status
