"""The 4.3BSD system call table: numbers, names, and argument shapes.

Numbers follow 4.3BSD's ``syscalls.master`` for every call we implement,
so agents written against the numeric layer (`register_interest(5)` for
``open``) read like their 1992 counterparts.

Each argument is described as ``(name, kind)`` where *kind* drives both
the symbolic layer's decode and the trace agent's formatting:

``int``    plain integer
``str``    a pathname or other string
``bytes``  a data buffer (written data; read buffers are return values)
``oflags`` open(2) flag bits
``mode``   a permission mode (printed in octal)
``sig``    a signal number (printed symbolically)
``fd``     a file descriptor
``any``    anything else (printed with ``repr``)
"""

from repro.kernel.errno import ENOSYS, SyscallError


class SysentEntry:
    """One row of the system call table."""

    __slots__ = ("number", "name", "argspec", "nargs")

    def __init__(self, number, name, argspec):
        self.number = number
        self.name = name
        self.argspec = tuple(argspec)
        self.nargs = len(self.argspec)

    def __repr__(self):
        return "<sysent %d %s/%d>" % (self.number, self.name, self.nargs)


def _arg(spec):
    name, kind = spec.split(":")
    return (name, kind)


def _entry(number, name, *specs):
    return SysentEntry(number, name, [_arg(s) for s in specs])


_TABLE = [
    _entry(1, "exit", "status:int"),
    # fork carries the child's entry point: the simulation's stand-in for
    # the child resuming at the same program counter (see DESIGN.md).
    _entry(2, "fork", "entry:any"),
    _entry(3, "read", "fd:fd", "count:int"),
    _entry(4, "write", "fd:fd", "data:bytes"),
    _entry(5, "open", "path:str", "flags:oflags", "mode:mode"),
    _entry(6, "close", "fd:fd"),
    _entry(7, "wait"),
    _entry(9, "link", "path:str", "newpath:str"),
    _entry(10, "unlink", "path:str"),
    _entry(12, "chdir", "path:str"),
    _entry(14, "mknod", "path:str", "mode:mode", "dev:int"),
    _entry(15, "chmod", "path:str", "mode:mode"),
    _entry(16, "chown", "path:str", "uid:int", "gid:int"),
    _entry(17, "brk", "addr:int"),
    _entry(19, "lseek", "fd:fd", "offset:int", "whence:int"),
    _entry(20, "getpid"),
    _entry(23, "setuid", "uid:int"),
    _entry(24, "getuid"),
    _entry(25, "geteuid"),
    _entry(27, "alarm", "seconds:int"),
    _entry(33, "access", "path:str", "mode:int"),
    _entry(36, "sync"),
    _entry(37, "kill", "pid:int", "sig:sig"),
    _entry(38, "stat", "path:str"),
    _entry(39, "getppid"),
    _entry(40, "lstat", "path:str"),
    _entry(41, "dup", "fd:fd"),
    _entry(42, "pipe"),
    _entry(43, "getegid"),
    # 4.3BSD's kernel trace facility, backed by repro.obs (number 45
    # matches real 4.3BSD's ktrace slot).
    _entry(45, "ktrace", "op:int", "pid:int", "arg:int"),
    _entry(47, "getgid"),
    _entry(48, "killpg", "pgrp:int", "sig:sig"),
    _entry(54, "ioctl", "fd:fd", "request:int", "arg:any"),
    _entry(57, "symlink", "target:str", "path:str"),
    _entry(58, "readlink", "path:str", "count:int"),
    _entry(59, "execve", "path:str", "argv:any", "envp:any"),
    _entry(60, "umask", "mask:mode"),
    _entry(61, "chroot", "path:str"),
    _entry(62, "fstat", "fd:fd"),
    _entry(64, "getpagesize"),
    _entry(66, "vfork", "entry:any"),
    _entry(79, "getgroups"),
    _entry(80, "setgroups", "groups:any"),
    _entry(81, "getpgrp"),
    _entry(83, "setitimer", "which:int", "interval_usec:int", "value_usec:int"),
    _entry(86, "getitimer", "which:int"),
    _entry(82, "setpgrp", "pid:int", "pgrp:int"),
    _entry(87, "gethostname"),
    _entry(89, "getdtablesize"),
    _entry(90, "dup2", "fd:fd", "newfd:fd"),
    _entry(92, "fcntl", "fd:fd", "cmd:int", "arg:any"),
    _entry(93, "select", "timeout_usec:int"),
    _entry(95, "fsync", "fd:fd"),
    _entry(108, "sigvec", "sig:sig", "handler:any", "mask:int"),
    _entry(109, "sigblock", "mask:int"),
    _entry(110, "sigsetmask", "mask:int"),
    _entry(111, "sigpause", "mask:int"),
    _entry(116, "gettimeofday"),
    _entry(120, "readv", "fd:fd", "counts:any"),
    _entry(121, "writev", "fd:fd", "buffers:any"),
    _entry(117, "getrusage", "who:int"),
    _entry(122, "settimeofday", "sec:int", "usec:int"),
    _entry(123, "fchown", "fd:fd", "uid:int", "gid:int"),
    _entry(124, "fchmod", "fd:fd", "mode:mode"),
    _entry(128, "rename", "path:str", "newpath:str"),
    _entry(129, "truncate", "path:str", "length:int"),
    _entry(130, "ftruncate", "fd:fd", "length:int"),
    _entry(131, "flock", "fd:fd", "operation:int"),
    _entry(136, "mkdir", "path:str", "mode:mode"),
    _entry(137, "rmdir", "path:str"),
    _entry(138, "utimes", "path:str", "atime_usec:int", "mtime_usec:int"),
    _entry(156, "getdirentries", "fd:fd", "count:int"),
    # Mach-flavoured extension traps used by the interposition machinery;
    # numbered above the BSD range as Mach 2.5 did.
    _entry(200, "task_set_emulation", "numbers:any", "handler:any"),
    _entry(201, "task_set_signal_redirect", "handler:any"),
    _entry(202, "jump_to_image", "path:str", "argv:any", "envp:any"),
    _entry(203, "image_header", "path:str"),
    _entry(204, "task_get_emulation", "number:int"),
    _entry(205, "task_get_descriptors"),
    # Our stand-in for ktrace's vnode stream: readers drain the kernel
    # ring buffer through a trap instead of a file.
    _entry(206, "ktrace_read", "limit:int"),
    _entry(207, "kernel_stats"),
    _entry(208, "task_get_signals"),
]

SYSCALLS = {entry.number: entry for entry in _TABLE}
BY_NAME = {entry.name: entry for entry in _TABLE}

#: highest BSD call number (the Mach extension traps sit above this)
MAX_BSD_SYSCALL = 199

#: calls whose value fills both return registers rv[0] and rv[1]
TWO_REGISTER_CALLS = frozenset(
    BY_NAME[name].number for name in ("fork", "vfork", "pipe", "wait")
)


def entry_for(number):
    """Look up a table entry, raising ``ENOSYS`` for unknown numbers."""
    try:
        return SYSCALLS[number]
    except KeyError:
        raise SyscallError(ENOSYS, "syscall %r" % (number,)) from None


def number_of(name):
    """The call number for *name* (KeyError for unknown names)."""
    return BY_NAME[name].number


def name_of(number):
    """The call name for *number* (a placeholder if unknown)."""
    entry = SYSCALLS.get(number)
    return entry.name if entry else "syscall#%r" % (number,)


def bsd_numbers():
    """All implemented BSD system call numbers (excluding Mach traps)."""
    return sorted(n for n in SYSCALLS if n <= MAX_BSD_SYSCALL)
