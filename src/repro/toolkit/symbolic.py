"""Layer 1: the symbolic system call layer.

Presents the system interface as a set of system call methods on a
system interface object (paper Section 2.3).  When an agent derived
from :class:`SymbolicSyscall` is attached, application system calls are
mapped into invocations of the ``sys_*`` methods of the agent object;
the mapping is performed by a toolkit-supplied derived version of the
numeric layer (:class:`~repro.toolkit.numeric.BSDNumericSyscall`).

Every method's default implementation takes the normal action for the
call — it makes the same call on the next level of the system interface
— so a derived agent overrides only the calls whose behaviour it wants
to change and inherits the rest (paper Goal 3: agent code proportional
to new functionality).
"""

from repro.kernel.compile import DecodeTable
from repro.kernel.sysent import bsd_numbers
from repro.toolkit.boilerplate import Agent
from repro.toolkit.numeric import BSDNumericSyscall


class SymbolicSyscall(Agent):
    """The system interface as one method per 4.3BSD system call."""

    OBS_LAYER = "symbolic"

    #: the numeric-layer class used to decode application calls; derived
    #: toolkits may substitute their own (the emulation agent does)
    NUMERIC_CLASS = BSDNumericSyscall

    def __init__(self):
        super().__init__()
        self._numeric = self.NUMERIC_CLASS(self)
        # The numeric object runs in the same address space with the same
        # per-process bindings and downward chaining as this agent.
        self._numeric._tls = self._tls
        self._numeric._down = self._down
        #: the numeric layer's decode, one row per call number, compiled
        #: on first use by repro.kernel.compile
        self._decode = DecodeTable(self)

    # -- agent lifecycle --------------------------------------------------

    def init(self, agentargv):
        """Default startup: interpose on the entire system interface."""
        self.register_all()

    def init_child(self):
        """Called in each newly forked client before it runs."""

    def register_all(self):
        """Interpose on every BSD call and on signal delivery."""
        self.register_interest_many(bsd_numbers())
        self.register_signal_interest()

    # -- boilerplate glue: route interception through the numeric layer ----

    def handle_syscall(self, number, args):
        # The numeric layer's handle_syscall for this number, or its
        # compiled equivalent when the numeric layer is the stock one.
        handle_syscall = self._decode[number]
        return handle_syscall(args)

    def handle_signal(self, signum, action):
        self._numeric.handle_signal(signum, action)

    # -- upcalls -------------------------------------------------------------

    def signal_handler(self, signum, code, context):
        """An incoming signal; the default delivers it to the client."""
        self.signal_up(signum)

    def unknown_syscall(self, number, args, regs):
        """A call with no ``sys_*`` method; the default passes it down."""
        return self.syscall_down_numeric(number, args)

    # -- the 4.3BSD system calls ----------------------------------------------
    # Process management.

    def sys_exit(self, status=0):
        """Terminate the client with *status*; never returns."""
        return self.syscall_down("exit", status)

    def sys_fork(self, entry=None):
        """Create a child process; the toolkit wraps *entry* so the agent is bound (and ``init_child`` runs) before client code."""
        return self.syscall_down("fork", self.wrap_fork_entry(entry))

    def sys_vfork(self, entry=None):
        """As :meth:`sys_fork` (4.3BSD vfork shares the parent's address space only until exec, which the simulation need not model)."""
        return self.syscall_down("vfork", self.wrap_fork_entry(entry))

    def sys_wait(self):
        """Wait for a child to exit; returns ``(pid, status)``."""
        return self.syscall_down("wait")

    def sys_execve(self, path, argv=None, envp=None):
        """Replace the client's program image, keeping this agent
        interposed — the native call would wipe the agent out of the
        address space, so the toolkit reimplements exec from
        lower-level primitives (:meth:`~Agent.reexec`)."""
        return self.reexec(path, argv, envp)

    def sys_getpid(self):
        """Return the client's process id."""
        return self.syscall_down("getpid")

    def sys_getppid(self):
        """Return the parent's process id."""
        return self.syscall_down("getppid")

    def sys_getuid(self):
        """Return the real user id."""
        return self.syscall_down("getuid")

    def sys_geteuid(self):
        """Return the effective user id."""
        return self.syscall_down("geteuid")

    def sys_getgid(self):
        """Return the real group id."""
        return self.syscall_down("getgid")

    def sys_getegid(self):
        """Return the effective group id."""
        return self.syscall_down("getegid")

    def sys_setuid(self, uid):
        """Set the real and effective user ids (one-way unless root)."""
        return self.syscall_down("setuid", uid)

    def sys_getgroups(self):
        """Return the supplementary group list."""
        return self.syscall_down("getgroups")

    def sys_setgroups(self, groups):
        """Replace the supplementary group list (root only)."""
        return self.syscall_down("setgroups", groups)

    def sys_getpgrp(self):
        """Return the process group id."""
        return self.syscall_down("getpgrp")

    def sys_setpgrp(self, pid=0, pgrp=0):
        """Set the process group of *pid* (0 = self) to *pgrp*."""
        return self.syscall_down("setpgrp", pid, pgrp)

    def sys_umask(self, mask):
        """Set the file-creation mask; returns the previous mask."""
        return self.syscall_down("umask", mask)

    def sys_brk(self, addr):
        """Set the address-space break (tracked, not enforced)."""
        return self.syscall_down("brk", addr)

    def sys_getpagesize(self):
        """Return the system page size."""
        return self.syscall_down("getpagesize")

    def sys_gethostname(self):
        """Return the host name."""
        return self.syscall_down("gethostname")

    def sys_getdtablesize(self):
        """Return the size of the descriptor table."""
        return self.syscall_down("getdtablesize")

    def sys_ktrace(self, op, pid=0, arg=0):
        """Manipulate kernel tracing for a process (see ``repro.kernel.ktrace``)."""
        return self.syscall_down("ktrace", op, pid, arg)

    def sys_ktrace_read(self, limit=0):
        """Drain buffered kernel trace records; returns ``(records, dropped)``."""
        return self.syscall_down("ktrace_read", limit)

    # Descriptor operations.

    def sys_read(self, fd, count):
        """Read up to *count* bytes from *fd*; returns the data."""
        return self.syscall_down("read", fd, count)

    def sys_write(self, fd, data):
        """Write *data* to *fd*; returns the byte count written."""
        return self.syscall_down("write", fd, data)

    def sys_readv(self, fd, counts):
        """Scatter read: fill a vector of buffers sized by *counts*."""
        return self.syscall_down("readv", fd, counts)

    def sys_writev(self, fd, buffers):
        """Gather write: write each buffer in order; returns the total."""
        return self.syscall_down("writev", fd, buffers)

    def sys_close(self, fd):
        """Close descriptor *fd*."""
        return self.syscall_down("close", fd)

    def sys_lseek(self, fd, offset, whence):
        """Reposition *fd*'s offset; returns the new offset."""
        return self.syscall_down("lseek", fd, offset, whence)

    def sys_dup(self, fd):
        """Duplicate *fd* at the lowest free slot; shares the open file."""
        return self.syscall_down("dup", fd)

    def sys_dup2(self, fd, newfd):
        """Duplicate *fd* onto *newfd*, closing what was there."""
        return self.syscall_down("dup2", fd, newfd)

    def sys_pipe(self):
        """Create a pipe; returns ``(read_fd, write_fd)``."""
        return self.syscall_down("pipe")

    def sys_fcntl(self, fd, cmd, arg=0):
        """Descriptor control: F_DUPFD, close-on-exec and status flags."""
        return self.syscall_down("fcntl", fd, cmd, arg)

    def sys_ioctl(self, fd, request, arg=None):
        """Device control on *fd*."""
        return self.syscall_down("ioctl", fd, request, arg)

    def sys_fstat(self, fd):
        """Return the ``struct stat`` for the object behind *fd*."""
        return self.syscall_down("fstat", fd)

    def sys_fsync(self, fd):
        """Flush *fd*'s data to stable storage."""
        return self.syscall_down("fsync", fd)

    def sys_ftruncate(self, fd, length):
        """Set the length of the file behind *fd*."""
        return self.syscall_down("ftruncate", fd, length)

    def sys_fchmod(self, fd, mode):
        """Change the mode of the file behind *fd*."""
        return self.syscall_down("fchmod", fd, mode)

    def sys_fchown(self, fd, uid, gid):
        """Change the ownership of the file behind *fd* (root only)."""
        return self.syscall_down("fchown", fd, uid, gid)

    def sys_getdirentries(self, fd, count):
        """Read up to *count* directory entries from *fd*."""
        return self.syscall_down("getdirentries", fd, count)

    def sys_flock(self, fd, operation):
        """Apply or remove an advisory lock on the file behind *fd*."""
        return self.syscall_down("flock", fd, operation)

    def sys_select(self, timeout_usec):
        """Sleep for *timeout_usec* of virtual time (timeout-only select)."""
        return self.syscall_down("select", timeout_usec)

    # Pathname operations.

    def sys_open(self, path, flags=0, mode=0o666):
        """Open (optionally creating) *path*; returns a descriptor."""
        return self.syscall_down("open", path, flags, mode)

    def sys_link(self, path, newpath):
        """Create the hard link *newpath* to the object at *path*."""
        return self.syscall_down("link", path, newpath)

    def sys_unlink(self, path):
        """Remove the directory entry *path*."""
        return self.syscall_down("unlink", path)

    def sys_rename(self, path, newpath):
        """Atomically rename *path* to *newpath*."""
        return self.syscall_down("rename", path, newpath)

    def sys_chdir(self, path):
        """Change the working directory to *path*."""
        return self.syscall_down("chdir", path)

    def sys_chroot(self, path):
        """Confine the client's root directory to *path* (root only)."""
        return self.syscall_down("chroot", path)

    def sys_mknod(self, path, mode, dev=0):
        """Create a file, FIFO, or device node at *path*."""
        return self.syscall_down("mknod", path, mode, dev)

    def sys_chmod(self, path, mode):
        """Change the mode of the object at *path*."""
        return self.syscall_down("chmod", path, mode)

    def sys_chown(self, path, uid, gid):
        """Change the ownership of the object at *path* (root only)."""
        return self.syscall_down("chown", path, uid, gid)

    def sys_access(self, path, mode):
        """Check accessibility of *path* using the real user id."""
        return self.syscall_down("access", path, mode)

    def sys_stat(self, path):
        """Return the ``struct stat`` for *path*, following symlinks."""
        return self.syscall_down("stat", path)

    def sys_lstat(self, path):
        """Return the ``struct stat`` for *path* itself (no follow)."""
        return self.syscall_down("lstat", path)

    def sys_symlink(self, target, path):
        """Create the symbolic link *path* pointing at *target*."""
        return self.syscall_down("symlink", target, path)

    def sys_readlink(self, path, count=1024):
        """Return the target string of the symlink at *path*."""
        return self.syscall_down("readlink", path, count)

    def sys_truncate(self, path, length):
        """Set the length of the file at *path*."""
        return self.syscall_down("truncate", path, length)

    def sys_mkdir(self, path, mode=0o777):
        """Create the directory *path*."""
        return self.syscall_down("mkdir", path, mode)

    def sys_rmdir(self, path):
        """Remove the empty directory *path*."""
        return self.syscall_down("rmdir", path)

    def sys_utimes(self, path, atime_usec, mtime_usec):
        """Set the access and modification times of *path*."""
        return self.syscall_down("utimes", path, atime_usec, mtime_usec)

    def sys_sync(self):
        """Schedule filesystem writes to stable storage (a no-op here)."""
        return self.syscall_down("sync")

    # Signal operations.

    def sys_kill(self, pid, signum):
        """Send signal *signum* to *pid* (or a group for pid <= 0)."""
        return self.syscall_down("kill", pid, signum)

    def sys_killpg(self, pgrp, signum):
        """Send signal *signum* to every process in group *pgrp*."""
        return self.syscall_down("killpg", pgrp, signum)

    def sys_sigvec(self, signum, handler, mask=0):
        """Install a signal handler; returns the previous disposition."""
        return self.syscall_down("sigvec", signum, handler, mask)

    def sys_sigblock(self, mask):
        """OR *mask* into the blocked-signal mask; returns the old mask."""
        return self.syscall_down("sigblock", mask)

    def sys_sigsetmask(self, mask):
        """Replace the blocked-signal mask; returns the old mask."""
        return self.syscall_down("sigsetmask", mask)

    def sys_sigpause(self, mask):
        """Atomically set the mask and sleep until a signal arrives."""
        return self.syscall_down("sigpause", mask)

    def sys_alarm(self, seconds):
        """Arm a one-shot SIGALRM in *seconds*; returns time remaining."""
        return self.syscall_down("alarm", seconds)

    def sys_setitimer(self, which, interval_usec, value_usec):
        """Arm the real-time interval timer; returns the old setting."""
        return self.syscall_down("setitimer", which, interval_usec, value_usec)

    def sys_getitimer(self, which):
        """Return the interval timer's ``(interval, value)``."""
        return self.syscall_down("getitimer", which)

    # Time and accounting.

    def sys_gettimeofday(self):
        """Return the current time as a :class:`Timeval`."""
        return self.syscall_down("gettimeofday")

    def sys_settimeofday(self, sec, usec):
        """Step the system clock (root only)."""
        return self.syscall_down("settimeofday", sec, usec)

    def sys_getrusage(self, who=0):
        """Return resource usage for self (0) or children (-1)."""
        return self.syscall_down("getrusage", who)
