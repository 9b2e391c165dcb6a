"""The trace agent: prints every system call and signal (Section 3.3.2).

Like the paper's trace agent, this is built on the symbolic system call
level, and — unlike timex — its agent-specific code is proportional to
the size of the entire system interface: a derived method per call is
needed to print each call's name and arguments, since each call has a
different name and typically different parameters.

Each traced call produces two write() system calls on the trace log
(the pre-call line and the result line); trace output is not buffered
across system calls so it will not be lost if the process is killed.
"""

from repro.agents import agent
from repro.kernel.errno import SyscallError, errno_name
from repro.kernel.inode import Dirent
from repro.kernel.ktrace import (
    KTROP_CLEAR,
    KTROP_CLEARALL,
    KTROP_CLEARBUF,
    KTROP_SET,
)
from repro.kernel.ofile import (
    F_DUPFD,
    F_GETFD,
    F_GETFL,
    F_SETFD,
    F_SETFL,
    O_APPEND,
    O_CREAT,
    O_EXCL,
    O_NONBLOCK,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
)
from repro.kernel.signals import signal_name
from repro.kernel.stat import Stat
from repro.kernel.clock import Timeval
from repro.toolkit.symbolic import SymbolicSyscall

#: descriptor the trace log is parked at, above the client's range
LOG_FD = 48

_OPEN_FLAG_NAMES = (
    (O_WRONLY, "O_WRONLY"),
    (O_RDWR, "O_RDWR"),
    (O_NONBLOCK, "O_NONBLOCK"),
    (O_APPEND, "O_APPEND"),
    (O_CREAT, "O_CREAT"),
    (O_TRUNC, "O_TRUNC"),
    (O_EXCL, "O_EXCL"),
)

_WHENCE_NAMES = {SEEK_SET: "SEEK_SET", SEEK_CUR: "SEEK_CUR",
                 SEEK_END: "SEEK_END"}

_FCNTL_NAMES = {F_DUPFD: "F_DUPFD", F_GETFD: "F_GETFD", F_SETFD: "F_SETFD",
                F_GETFL: "F_GETFL", F_SETFL: "F_SETFL"}

_KTROP_NAMES = {KTROP_SET: "KTROP_SET", KTROP_CLEAR: "KTROP_CLEAR",
                KTROP_CLEARALL: "KTROP_CLEARALL",
                KTROP_CLEARBUF: "KTROP_CLEARBUF"}


def _open_flags(flags):
    """Decode open(2) flag bits symbolically, as the call's man page would."""
    names = [name for bit, name in _OPEN_FLAG_NAMES if flags & bit]
    if not flags & 0x3:
        names.insert(0, "O_RDONLY")
    return "|".join(names) if names else "O_RDONLY"


def _show(value):
    """Render a system call result compactly."""
    if isinstance(value, (bytes, bytearray)):
        return "[%d bytes]" % len(value)
    if isinstance(value, Stat):
        return "{ino=%d size=%d mode=%o}" % (
            value.st_ino, value.st_size, value.st_mode
        )
    if isinstance(value, Timeval):
        return "%d.%06d" % (value.tv_sec, value.tv_usec)
    if isinstance(value, list) and value and isinstance(value[0], Dirent):
        return "[%d entries]" % len(value)
    return repr(value)


def _data(value):
    """Render a written buffer argument."""
    if isinstance(value, (bytes, bytearray)):
        return "[%d bytes]" % len(value)
    return repr(value)


@agent("trace")
class TraceSymbolicSyscall(SymbolicSyscall):
    """Trace client system calls and signals to a log file."""

    def __init__(self, log_path="/tmp/trace.out"):
        super().__init__()
        self.log_path = log_path
        self.log_fd = None

    def init(self, agentargv):
        if agentargv:
            self.log_path = agentargv[0]
        if self.log_path == "-":
            self.log_fd = 2
        else:
            fd = self.syscall_down(
                "open", self.log_path, O_WRONLY | O_CREAT | O_TRUNC, 0o644
            )
            self.log_fd = self.syscall_down("fcntl", fd, F_DUPFD, LOG_FD)
            self.syscall_down("close", fd)
        super().init(agentargv)

    # -- log plumbing ----------------------------------------------------

    def _emit(self, text):
        self.syscall_down("write", self.log_fd, text.encode())

    def _pre(self, text):
        pid = self.ctx.proc.pid
        self._tls.label = text.split("(", 1)[0]
        self._emit("[%d] %s ...\n" % (pid, text))

    def handle_syscall(self, number, args):
        # A call that unwound (execve, exit) left its label behind, and
        # a call that fails before _pre must not report under it.
        self._tls.label = None
        try:
            result = super().handle_syscall(number, args)
        except SyscallError as err:
            label = self._tls.label
            if label is not None:
                self._emit(
                    "[%d] ... %s -> %s\n"
                    % (self.ctx.proc.pid, label, errno_name(err.errno))
                )
            raise
        label = self._tls.label
        if label is not None:
            self._emit(
                "[%d] ... %s -> %s\n"
                % (self.ctx.proc.pid, label, _show(result))
            )
        return result

    # -- signals ------------------------------------------------------------

    def signal_handler(self, signum, code, context):
        self._emit(
            "[%d] signal %s received\n" % (self.ctx.proc.pid, signal_name(signum))
        )
        super().signal_handler(signum, code, context)

    def init_child(self):
        self._emit("[%d] (child of fork starts)\n" % self.ctx.proc.pid)
        super().init_child()

    # -- one derived method per system call, to print its arguments -----------

    def sys_exit(self, status=0):
        self._pre("exit(%d)" % status)
        return super().sys_exit(status)

    def sys_fork(self, entry=None):
        self._pre("fork()")
        return super().sys_fork(entry)

    def sys_vfork(self, entry=None):
        self._pre("vfork()")
        return super().sys_vfork(entry)

    def sys_wait(self):
        self._pre("wait()")
        return super().sys_wait()

    def sys_execve(self, path, argv=None, envp=None):
        self._pre("execve(%r, %r)" % (path, argv))
        return super().sys_execve(path, argv, envp)

    def sys_read(self, fd, count):
        self._pre("read(%d, %d)" % (fd, count))
        return super().sys_read(fd, count)

    def sys_write(self, fd, data):
        self._pre("write(%d, %s)" % (fd, _data(data)))
        return super().sys_write(fd, data)

    def sys_readv(self, fd, counts):
        self._pre("readv(%d, %r)" % (fd, list(counts)))
        return super().sys_readv(fd, counts)

    def sys_writev(self, fd, buffers):
        self._pre("writev(%d, [%d buffers])" % (fd, len(buffers)))
        return super().sys_writev(fd, buffers)

    def sys_open(self, path, flags=0, mode=0o666):
        self._pre("open(%r, %s, %03o)" % (path, _open_flags(flags), mode))
        return super().sys_open(path, flags, mode)

    def sys_close(self, fd):
        self._pre("close(%d)" % fd)
        return super().sys_close(fd)

    def sys_link(self, path, newpath):
        self._pre("link(%r, %r)" % (path, newpath))
        return super().sys_link(path, newpath)

    def sys_unlink(self, path):
        self._pre("unlink(%r)" % path)
        return super().sys_unlink(path)

    def sys_rename(self, path, newpath):
        self._pre("rename(%r, %r)" % (path, newpath))
        return super().sys_rename(path, newpath)

    def sys_chdir(self, path):
        self._pre("chdir(%r)" % path)
        return super().sys_chdir(path)

    def sys_chroot(self, path):
        self._pre("chroot(%r)" % path)
        return super().sys_chroot(path)

    def sys_mknod(self, path, mode, dev=0):
        self._pre("mknod(%r, %o, %d)" % (path, mode, dev))
        return super().sys_mknod(path, mode, dev)

    def sys_chmod(self, path, mode):
        self._pre("chmod(%r, %03o)" % (path, mode))
        return super().sys_chmod(path, mode)

    def sys_chown(self, path, uid, gid):
        self._pre("chown(%r, %d, %d)" % (path, uid, gid))
        return super().sys_chown(path, uid, gid)

    def sys_access(self, path, mode):
        self._pre("access(%r, %d)" % (path, mode))
        return super().sys_access(path, mode)

    def sys_stat(self, path):
        self._pre("stat(%r)" % path)
        return super().sys_stat(path)

    def sys_lstat(self, path):
        self._pre("lstat(%r)" % path)
        return super().sys_lstat(path)

    def sys_fstat(self, fd):
        self._pre("fstat(%d)" % fd)
        return super().sys_fstat(fd)

    def sys_symlink(self, target, path):
        self._pre("symlink(%r, %r)" % (target, path))
        return super().sys_symlink(target, path)

    def sys_readlink(self, path, count=1024):
        self._pre("readlink(%r, %d)" % (path, count))
        return super().sys_readlink(path, count)

    def sys_truncate(self, path, length):
        self._pre("truncate(%r, %d)" % (path, length))
        return super().sys_truncate(path, length)

    def sys_ftruncate(self, fd, length):
        self._pre("ftruncate(%d, %d)" % (fd, length))
        return super().sys_ftruncate(fd, length)

    def sys_mkdir(self, path, mode=0o777):
        self._pre("mkdir(%r, %03o)" % (path, mode))
        return super().sys_mkdir(path, mode)

    def sys_rmdir(self, path):
        self._pre("rmdir(%r)" % path)
        return super().sys_rmdir(path)

    def sys_utimes(self, path, atime_usec, mtime_usec):
        self._pre("utimes(%r, %d, %d)" % (path, atime_usec, mtime_usec))
        return super().sys_utimes(path, atime_usec, mtime_usec)

    def sys_lseek(self, fd, offset, whence):
        self._pre("lseek(%d, %d, %s)"
                  % (fd, offset, _WHENCE_NAMES.get(whence, whence)))
        return super().sys_lseek(fd, offset, whence)

    def sys_dup(self, fd):
        self._pre("dup(%d)" % fd)
        return super().sys_dup(fd)

    def sys_dup2(self, fd, newfd):
        self._pre("dup2(%d, %d)" % (fd, newfd))
        return super().sys_dup2(fd, newfd)

    def sys_pipe(self):
        self._pre("pipe()")
        return super().sys_pipe()

    def sys_fcntl(self, fd, cmd, arg=0):
        self._pre("fcntl(%d, %s, %r)"
                  % (fd, _FCNTL_NAMES.get(cmd, cmd), arg))
        return super().sys_fcntl(fd, cmd, arg)

    def sys_ioctl(self, fd, request, arg=None):
        self._pre("ioctl(%d, %#x)" % (fd, request))
        return super().sys_ioctl(fd, request, arg)

    def sys_fsync(self, fd):
        self._pre("fsync(%d)" % fd)
        return super().sys_fsync(fd)

    def sys_fchmod(self, fd, mode):
        self._pre("fchmod(%d, %03o)" % (fd, mode))
        return super().sys_fchmod(fd, mode)

    def sys_fchown(self, fd, uid, gid):
        self._pre("fchown(%d, %d, %d)" % (fd, uid, gid))
        return super().sys_fchown(fd, uid, gid)

    def sys_getdirentries(self, fd, count):
        self._pre("getdirentries(%d, %d)" % (fd, count))
        return super().sys_getdirentries(fd, count)

    def sys_select(self, timeout_usec):
        self._pre("select(%d)" % timeout_usec)
        return super().sys_select(timeout_usec)

    def sys_getpid(self):
        self._pre("getpid()")
        return super().sys_getpid()

    def sys_getppid(self):
        self._pre("getppid()")
        return super().sys_getppid()

    def sys_getuid(self):
        self._pre("getuid()")
        return super().sys_getuid()

    def sys_geteuid(self):
        self._pre("geteuid()")
        return super().sys_geteuid()

    def sys_getgid(self):
        self._pre("getgid()")
        return super().sys_getgid()

    def sys_getegid(self):
        self._pre("getegid()")
        return super().sys_getegid()

    def sys_setuid(self, uid):
        self._pre("setuid(%d)" % uid)
        return super().sys_setuid(uid)

    def sys_getgroups(self):
        self._pre("getgroups()")
        return super().sys_getgroups()

    def sys_setgroups(self, groups):
        self._pre("setgroups(%r)" % (groups,))
        return super().sys_setgroups(groups)

    def sys_getpgrp(self):
        self._pre("getpgrp()")
        return super().sys_getpgrp()

    def sys_setpgrp(self, pid=0, pgrp=0):
        self._pre("setpgrp(%d, %d)" % (pid, pgrp))
        return super().sys_setpgrp(pid, pgrp)

    def sys_umask(self, mask):
        self._pre("umask(%03o)" % mask)
        return super().sys_umask(mask)

    def sys_ktrace(self, op, pid=0, arg=0):
        self._pre("ktrace(%s, %d, %d)"
                  % (_KTROP_NAMES.get(op, op), pid, arg))
        return super().sys_ktrace(op, pid, arg)

    def sys_brk(self, addr):
        self._pre("brk(%#x)" % addr)
        return super().sys_brk(addr)

    def sys_getpagesize(self):
        self._pre("getpagesize()")
        return super().sys_getpagesize()

    def sys_gethostname(self):
        self._pre("gethostname()")
        return super().sys_gethostname()

    def sys_getdtablesize(self):
        self._pre("getdtablesize()")
        return super().sys_getdtablesize()

    def sys_kill(self, pid, signum):
        self._pre("kill(%d, %s)" % (pid, signal_name(signum) if signum else "0"))
        return super().sys_kill(pid, signum)

    def sys_killpg(self, pgrp, signum):
        self._pre("killpg(%d, %s)" % (pgrp, signal_name(signum) if signum else "0"))
        return super().sys_killpg(pgrp, signum)

    def sys_sigvec(self, signum, handler, mask=0):
        self._pre("sigvec(%s, %r, %#x)" % (signal_name(signum), handler, mask))
        return super().sys_sigvec(signum, handler, mask)

    def sys_sigblock(self, mask):
        self._pre("sigblock(%#x)" % mask)
        return super().sys_sigblock(mask)

    def sys_sigsetmask(self, mask):
        self._pre("sigsetmask(%#x)" % mask)
        return super().sys_sigsetmask(mask)

    def sys_sigpause(self, mask):
        self._pre("sigpause(%#x)" % mask)
        return super().sys_sigpause(mask)

    def sys_alarm(self, seconds):
        self._pre("alarm(%d)" % seconds)
        return super().sys_alarm(seconds)

    def sys_flock(self, fd, operation):
        self._pre("flock(%d, %d)" % (fd, operation))
        return super().sys_flock(fd, operation)

    def sys_setitimer(self, which, interval_usec, value_usec):
        self._pre("setitimer(%d, %d, %d)" % (which, interval_usec, value_usec))
        return super().sys_setitimer(which, interval_usec, value_usec)

    def sys_getitimer(self, which):
        self._pre("getitimer(%d)" % which)
        return super().sys_getitimer(which)

    def sys_gettimeofday(self):
        self._pre("gettimeofday()")
        return super().sys_gettimeofday()

    def sys_settimeofday(self, sec, usec):
        self._pre("settimeofday(%d, %d)" % (sec, usec))
        return super().sys_settimeofday(sec, usec)

    def sys_getrusage(self, who=0):
        self._pre("getrusage(%d)" % who)
        return super().sys_getrusage(who)

    def sys_sync(self):
        self._pre("sync()")
        return super().sys_sync()
