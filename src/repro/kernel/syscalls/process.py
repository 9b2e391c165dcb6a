"""Process-related system calls: identity, fork, execve, wait, exit."""

from repro.kernel import cred as credmod
from repro.kernel.compile import dispatch_table
from repro.kernel.errno import (
    EACCES,
    ECHILD,
    EINVAL,
    ENOEXEC,
    EPERM,
    ESRCH,
    SyscallError,
)
from repro.kernel.namei import namei
from repro.kernel.proc import (
    ExecImage,
    ProcessExit,
    ZOMBIE,
)
from repro.kernel.syscalls import implements
from repro.obs import events as obs_events


@implements("exit")
def sys_exit(kernel, proc, status=0):
    """exit(2): close descriptors, reparent children, become a zombie."""
    kernel.finish_exit_locked(proc, exit_code=status & 0xFF)
    raise ProcessExit(exit_code=status & 0xFF)


@implements("fork")
def sys_fork(kernel, proc, entry=None):
    """fork(2): duplicate the process; child runs *entry* (see DESIGN.md)."""
    kernel.fork_total += 1
    child = kernel.spawn_child_locked(proc, entry)
    # Two return registers, as on the VAX: rv[0] = child pid, rv[1] = 0 in
    # the parent (the child's "return" is its entry function starting).
    return (child.pid, 0)


@implements("vfork")
def sys_vfork(kernel, proc, entry=None):
    """vfork(2): treated as fork in the simulation."""
    return sys_fork(kernel, proc, entry)


@implements("wait")
def sys_wait(kernel, proc):
    """wait(2): block until a child is a zombie; reap and return it."""
    while True:
        if not proc.children:
            raise SyscallError(ECHILD)
        zombie = next((c for c in proc.children if c.state == ZOMBIE), None)
        if zombie is not None:
            return kernel.reap_locked(proc, zombie)
        kernel.sleep_until(
            lambda: any(c.state == ZOMBIE for c in proc.children),
            proc,
            "wait",
        )


@implements("execve")
def sys_execve(kernel, proc, path, argv=None, envp=None):
    """The native exec: atomic image replacement.

    Resets caught signals, applies close-on-exec, and — because the new
    image replaces the whole address space, agent included — clears the
    emulation vector and signal redirection.  An interposition agent that
    wants to survive exec must therefore reimplement this call from the
    lower-level pieces (paper Section 3.5.1).
    """
    kernel.exec_total += 1
    factory, base_argv = kernel.load_image_locked(proc, path)
    given = list(argv if argv is not None else [path])
    argv = base_argv + given[1:] if base_argv else given
    envp = dict(envp or {})

    # Close descriptors marked close-on-exec.
    for fd in list(proc.fdtable.descriptors()):
        if proc.fdtable.get_cloexec(fd):
            proc.fdtable.remove(fd).decref(kernel)

    # Caught signals revert to default; ignored ones stay ignored (BSD).
    from repro.kernel import signals as sig

    for signum, action in proc.dispositions.items():
        if action.handler not in (sig.SIG_DFL, sig.SIG_IGN):
            proc.dispositions[signum] = sig.Sigaction()

    # The new image replaces the address space: interposition is gone.
    proc.emulation_vector.clear()
    proc.dispatch = dispatch_table(kernel, proc.emulation_vector)
    proc.signal_redirect = None
    # ktrace is reset with it: a fresh image starts untraced (the
    # toolkit's jump_to_image, which replaces only the image, keeps it).
    obs = kernel.obs
    if obs is not None:
        if obs.metrics_on:
            obs.metrics.inc(("proc.execve",))
        if obs.wants(proc):
            obs.emit(obs_events.PROC_EXECVE, proc, detail=path)
    proc.ktrace_on = False

    proc.comm = argv[0] if argv else path
    raise ExecImage(factory, argv, envp)


@implements("getpid")
def sys_getpid(kernel, proc):
    """getpid(2)."""
    return proc.pid


@implements("getppid")
def sys_getppid(kernel, proc):
    """getppid(2)."""
    return proc.ppid


@implements("getuid")
def sys_getuid(kernel, proc):
    """getuid(2)."""
    return proc.cred.uid


@implements("geteuid")
def sys_geteuid(kernel, proc):
    """geteuid(2)."""
    return proc.cred.euid


@implements("getgid")
def sys_getgid(kernel, proc):
    """getgid(2)."""
    return proc.cred.gid


@implements("getegid")
def sys_getegid(kernel, proc):
    """getegid(2)."""
    return proc.cred.egid


@implements("setuid")
def sys_setuid(kernel, proc, uid):
    """setuid(2): set both ids; only root may change arbitrarily."""
    if not proc.cred.is_superuser() and uid not in (proc.cred.uid,):
        raise SyscallError(EPERM)
    proc.cred.uid = uid
    proc.cred.euid = uid
    return 0


@implements("getgroups")
def sys_getgroups(kernel, proc):
    """getgroups(2)."""
    return list(proc.cred.groups)


@implements("setgroups")
def sys_setgroups(kernel, proc, groups):
    """setgroups(2): root only; at most NGROUPS entries."""
    if not proc.cred.is_superuser():
        raise SyscallError(EPERM)
    if len(groups) > credmod.NGROUPS:
        raise SyscallError(EINVAL)
    proc.cred.groups = list(groups)
    return 0


@implements("getpgrp")
def sys_getpgrp(kernel, proc):
    """getpgrp(2)."""
    return proc.pgrp


@implements("setpgrp")
def sys_setpgrp(kernel, proc, pid=0, pgrp=0):
    """setpgrp(2): for self or an immediate child."""
    target = proc if pid in (0, proc.pid) else kernel.find_process_locked(pid)
    if target is not proc and target.ppid != proc.pid:
        raise SyscallError(ESRCH)
    target.pgrp = pgrp or target.pid
    return 0


@implements("umask")
def sys_umask(kernel, proc, mask):
    """umask(2): swap the creation mask, returning the old one."""
    old = proc.umask
    proc.umask = mask & 0o777
    return old


@implements("brk")
def sys_brk(kernel, proc, addr):
    """brk(2): record the break; memory is not otherwise modelled."""
    if addr < 0:
        raise SyscallError(EINVAL)
    proc.brk = addr
    return 0


@implements("getpagesize")
def sys_getpagesize(kernel, proc):
    """getpagesize(2)."""
    return kernel.page_size


@implements("gethostname")
def sys_gethostname(kernel, proc):
    """gethostname(2)."""
    return kernel.hostname
