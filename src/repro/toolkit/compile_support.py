"""Transparency analysis for compiled agent-stack dispatch.

:mod:`repro.kernel.compile` flattens a process's agent tower into one
closure per syscall number.  It can only do that for layers it can
*prove* add nothing beyond a fixed, replayable transform — this module
is that proof.  :func:`peel` inspects one emulation-vector handler and
answers: is this a toolkit boilerplate entry whose whole contribution
to *this* call number is (a) filling defaulted arguments, (b) the
numeric layer's errno/two-register marshalling, and (c) forwarding down
— or does agent code actually run here?

The grading ladder, from cheapest to deepest:

* **boilerplate passthrough** — ``handle_syscall`` is
  :meth:`Agent.handle_syscall`: the layer forwards the raw vector with
  no transform at all.
* **numeric passthrough** — ``handle_syscall`` is
  :meth:`NumericSyscall.handle_syscall` with the base ``syscall``:
  the layer contributes only the errno/two-register normalization.
* **symbolic forward** — the routed ``sys_*`` method is the base
  :class:`SymbolicSyscall` body: default-fill plus normalize, then
  forward under the same name with the same argument order.
* **descriptor/pathname routed** — the ``sys_*`` method routes through
  a :class:`DescriptorSet`/:class:`PathnameSet` whose every configured
  class is the toolkit default, so the table bookkeeping (materialised
  default descriptors, no-op refcounts) is observably invisible and the
  route reduces to the same downcall the symbolic body would make.

``fork``/``vfork``/``execve`` are *never* collapsed: their symbolic
bodies wrap the child entry or re-exec the image — real agent
machinery, not a forward.

An opaque layer — real agent code runs — is still entered as directly
as its machinery allows:

* **method** (:func:`peel_entry_method`) — stock entry, symbolic handle
  and numeric layer around an overridden ``sys_*`` body: the compiler
  binds the context and calls the bound method, replaying the fill and
  the normalization itself;
* **around** (:func:`entry_agent`) — stock entry around an overridden
  ``handle_syscall`` (the trace agent, the monitor): the compiler binds
  the context and calls ``handle_syscall``.  When that override calls
  ``super()`` into :meth:`SymbolicSyscall.handle_syscall`, the decode
  below it is itself a compiled row (:func:`symbolic_method`, built by
  :class:`repro.kernel.compile.DecodeTable`).

Anything else is opaque all the way, and opaque is always correct: the
compiler simply keeps calling the original handler there.
"""

from repro.kernel.sysent import SYSCALLS
from repro.toolkit.boilerplate import Agent
from repro.toolkit.descriptors import (
    DescriptorSet,
    DescSymbolicSyscall,
    OpenObject,
)
from repro.toolkit.numeric import BSDNumericSyscall, NumericSyscall
from repro.toolkit.pathnames import (
    Pathname,
    PathnameSet,
    PathSymbolicSyscall,
)
from repro.toolkit.symbolic import SymbolicSyscall

#: symbolic methods that do more than forward — fork/vfork wrap the
#: child entry so the agent rebinds in the child, execve runs the
#: toolkit's reexec — these always run as real agent code
NONLINEAR = frozenset({"fork", "vfork", "execve"})

#: descriptor-routed calls that act through a per-fd open object and
#: never touch the set-level table state (open/close/dup/pipe/fcntl do)
DESC_ROUTE = frozenset({
    "read", "write", "readv", "writev", "lseek", "fstat", "fsync",
    "ftruncate", "fchmod", "fchown", "ioctl", "getdirentries",
})

#: pathname-routed calls whose Pathname methods are pure forwards with
#: the argument vector preserved (open is set-level: it installs)
PATH_ROUTE = frozenset({
    "link", "unlink", "rename", "chdir", "chroot", "mknod", "chmod",
    "chown", "access", "stat", "lstat", "symlink", "readlink",
    "truncate", "mkdir", "rmdir", "utimes",
})


class LayerPlan:
    """What one transparent layer contributes to one call number.

    ``fill`` is ``None`` (no argument shaping) or a
    ``(required, nparams, defaults)`` triple replaying the ``sys_*``
    signature's default-filling; ``normalize`` says the layer passes
    results through the numeric marshalling (errno-only SyscallError,
    two-register tupling).
    """

    __slots__ = ("agent", "fill", "normalize")

    def __init__(self, agent, fill, normalize):
        self.agent = agent
        self.fill = fill
        self.normalize = normalize


#: function -> fill spec; signatures are immutable, so memoize globally
_FILL_CACHE = {}

#: code flags of a ``*args`` or ``**kwargs`` parameter
_VARIADIC = 0x04 | 0x08


def fill_for(func):
    """The ``(required, nparams, defaults)`` spec of a ``sys_*`` body.

    Returns ``None`` for signatures the replay cannot model (keyword-
    only, varargs, positional-only beyond ``self``, or a function whose
    signature is not its code's: a ``__wrapped__`` or ``__signature__``
    override) — the caller treats that as opaque.  ``self`` is dropped;
    every remaining parameter is plain positional-or-keyword, with
    defaults only at the tail.  Read from the code object, which spares
    the process :mod:`inspect` and everything it imports.
    """
    try:
        return _FILL_CACHE[func]
    except KeyError:
        pass
    code = getattr(func, "__code__", None)
    spec = None
    if (code is not None and code.co_argcount >= 1
            and not code.co_flags & _VARIADIC
            and not code.co_kwonlyargcount and code.co_posonlyargcount <= 1
            and not hasattr(func, "__wrapped__")
            and not hasattr(func, "__signature__")):
        nparams = code.co_argcount - 1
        defaults = func.__defaults__ or ()
        # only the parameters after self (a defaulted self is dropped)
        defaults = defaults[max(0, len(defaults) - nparams):]
        spec = (nparams - len(defaults), nparams, defaults)
    _FILL_CACHE[func] = spec
    return spec


def entry_agent(handler):
    """The agent whose stock boilerplate entry *handler* is, or ``None``.

    Any such agent grades at least *around*: the entry only binds the
    context and runs the observers' per-layer frames (the profiler's
    agent frame, the obs ``layer.usec`` accounting) around the agent's
    ``handle_syscall``, so the compiler may enter that directly.
    """
    if getattr(handler, "__func__", None) is not Agent._emulation_entry:
        return None
    return handler.__self__


def _stock_numeric(agent):
    """True when *agent* decodes calls through the stock numeric layer."""
    numeric = getattr(agent, "_numeric", None)
    return (type(numeric) is BSDNumericSyscall
            and numeric.symbolic is agent
            and numeric._down is agent._down)


def symbolic_method(agent, number):
    """Grade the numeric layer's decode of *number* for direct invocation.

    With the stock :class:`BSDNumericSyscall` decoding into *agent*,
    the decode of a call with a ``sys_*`` body is the bound method
    called with default-filled arguments, and the numeric layer's
    errno/two-register marshalling around it.  Returns
    ``(method, fill)`` for the compiler to replay that, or ``None``.
    """
    if not _stock_numeric(agent):
        return None
    method = agent._numeric._methods.get(number)
    if method is None:
        return None
    fill = fill_for(method.__func__)
    if fill is None:
        return None
    return method, fill


def peel_entry_method(handler, number):
    """Grade an *opaque-method* layer for direct invocation.

    The ``sys_*`` body is real agent code — nothing to peel — but when
    the machinery around it is stock (boilerplate entry, symbolic
    handle, stock numeric layer), the compiler may bind the context and
    call the bound method directly, replaying the default-fill and the
    numeric normalization itself and skipping the per-call tower walk
    above the method.  Returns ``(agent, method, fill)`` or ``None``.

    Unlike :func:`peel`, the downcall methods need no check: the method
    runs verbatim, so its downcalls go through the agent's own
    machinery exactly as the tower's would.
    """
    agent = entry_agent(handler)
    if (agent is None
            or type(agent).handle_syscall is not SymbolicSyscall.handle_syscall):
        return None
    found = symbolic_method(agent, number)
    if found is None:
        return None
    return (agent,) + found


def stock_downcalls(agent):
    """True when *agent*'s downcalls go through the stock
    :meth:`Agent.syscall_down_numeric`, so a flattened downcall row
    may replace it (:meth:`Agent.syscall_down` enters the row
    directly)."""
    return type(agent).syscall_down_numeric is Agent.syscall_down_numeric


def _routing_transparent(agent, route):
    """True when *agent*'s descriptor/pathname set is all toolkit-default.

    With every configured class the base one, the set's bookkeeping is
    observably invisible for the routed calls: ``lookup`` materialises
    default descriptors whose operations are pure forwards, refcounts
    guard a no-op ``last_close``, and ``getpn`` builds base
    :class:`Pathname` objects whose methods forward verbatim.
    """
    dset = getattr(agent, "dset", None)
    kind = type(dset)
    if kind is DescriptorSet:
        pathish = False
    elif kind is PathnameSet:
        pathish = True
    else:
        return False
    if route == "path" and not pathish:
        return False
    if dset.sym is not agent or dset.OPEN_OBJECT_CLASS is not OpenObject:
        return False
    if pathish and (dset.PATHNAME_CLASS is not Pathname
                    or dset.DIRECTORY_CLASS is not None):
        return False
    return True


def peel(handler, number):
    """Grade one emulation-vector *handler* for call *number*.

    Returns a :class:`LayerPlan` when the layer is provably transparent
    for this number, else ``None`` (opaque: real agent code runs).
    """
    agent = entry_agent(handler)
    if agent is None:
        return None
    cls = type(agent)
    # Downcall routing must be the stock boilerplate, or the "forward"
    # this analysis assumes is not what actually happens.
    if not stock_downcalls(agent) or cls.syscall_down is not Agent.syscall_down:
        return None
    handle = cls.handle_syscall
    if handle is Agent.handle_syscall:
        return LayerPlan(agent, None, False)
    if handle is NumericSyscall.handle_syscall:
        if (cls.syscall is not NumericSyscall.syscall
                or cls.syscall_down_raw is not NumericSyscall.syscall_down_raw):
            return None
        return LayerPlan(agent, None, True)
    if handle is not SymbolicSyscall.handle_syscall or not _stock_numeric(agent):
        return None
    method = agent._numeric._methods.get(number)
    if method is None:
        # No sys_* body: the stock unknown_syscall is a raw forward.
        if cls.unknown_syscall is not SymbolicSyscall.unknown_syscall:
            return None
        return LayerPlan(agent, None, True)
    entry = SYSCALLS.get(number)
    if entry is None or entry.name in NONLINEAR:
        return None
    func = method.__func__
    base = getattr(SymbolicSyscall, "sys_" + entry.name, None)
    if func is base:
        fill = fill_for(func)
        if fill is None:
            return None
        return LayerPlan(agent, fill, True)
    # Descriptor routing reads the set's mutable per-fd table, so any
    # agent code anywhere on the class could have installed a custom
    # open object: only the stock toolkit classes are provably clean.
    if (entry.name in DESC_ROUTE
            and func is getattr(DescSymbolicSyscall, "sys_" + entry.name, None)
            and cls in (DescSymbolicSyscall, PathSymbolicSyscall)
            and _routing_transparent(agent, "desc")):
        fill = fill_for(func)
        if fill is not None:
            return LayerPlan(agent, fill, True)
        return None
    # Pathname routing never consults the table — getpn builds a fresh
    # Pathname per call — so a subclassed agent with the base sys_*
    # body stays transparent as long as the set itself is stock.
    if (entry.name in PATH_ROUTE
            and func is getattr(PathSymbolicSyscall, "sys_" + entry.name, None)
            and _routing_transparent(agent, "path")):
        fill = fill_for(func)
        if fill is not None:
            return LayerPlan(agent, fill, True)
    return None
