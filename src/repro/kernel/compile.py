"""Dispatch tables: one per emulation vector, one row per call number.

The paper prices interposition at ~37 µs per redirected trap; our
tower pays that price in Python attribute lookups — every interposed
trap walks boilerplate → numeric → symbolic → desc/path routing →
downcall, re-deciding the same route on every call.  This module
decides once per call number, on the number's first use, the way
ASC-Hook rewrites a call site the first time it runs.

A :class:`DispatchTable` maps a syscall number to ``row(ctx, args)``;
:meth:`~repro.kernel.trap.UserContext.trap` calls
``proc.dispatch[number]``, and a miss runs
:func:`build_compiled_dispatch` for that one number.  A row is one of:

* a **kernel terminal** — the number is not interposed: the row enters
  the kernel through :func:`~repro.kernel.trap.kernel_entry`;
* a **compiled chain** — the number is interposed, and every layer that
  :mod:`repro.toolkit.compile_support` can prove transparent collapses
  into one flat closure: default-fill the arguments, run the terminal
  (the kernel through the downcall's own body,
  :func:`~repro.kernel.trap.htg_row`, or the first opaque handler
  below), then apply the numeric layer's errno/two-register
  normalization once.  An opaque handler is entered by a direct call
  of its ``sys_*`` method or, for an *around* layer — an agent that
  overrides ``handle_syscall``, such as the trace agent or the
  monitor — of that override;
* the **tower** — anything else (:func:`~repro.kernel.trap.tower`).

Every toolkit agent also keeps a table of its *downcalls*
(``agent._down_compiled``, over its ``_down`` map), which
:meth:`~repro.toolkit.boilerplate.Agent.syscall_down` enters in one
frame.  Its rows flatten the sub-tower below the agent, so that even
an opaque agent's forwards (the trace agent's log writes, say) skip
it; a ``None`` row means the plain downcall.  And every symbolic agent
keeps a :class:`DecodeTable` (``agent._decode``): the body of
:meth:`~repro.toolkit.symbolic.SymbolicSyscall.handle_syscall`, the
``super()`` an around layer calls, one row per number.

**Observers as a stage.**  Each chain is built twice: the plain
closure an unobserved row runs, and a *staged* twin the row runs
instead when ``kernel.obs`` is set — the same attribute test that
picks the route, so the unobserved path gains no frame.  The staged
twin does the accounting of the ``_emulation_entry`` frames the chain
skips: one ``("agent.call", layer, name)`` and the ``layer.usec``
histograms for every collapsed layer, with the chain's inclusive host
time (see :func:`_stage`).  The downcall's counter, event and recorder
turn need no stage: the kernel terminal *is* the downcall body.

**Sharing and invalidation.**  Rows bind no process, so one table
serves every process with the vector it was built for: fork shares it
by reference, native ``execve`` points the process at the shared
empty-vector table, and ``task_set_emulation`` and guard-rail ejection
give the process a fresh table.  A chain also bakes which handler sits
below each agent, and an agent's ``_down`` map is shared by every
process it serves, so every ``_down`` mutation gives the agent a fresh
downcall table and bumps the global :data:`DOWN_EPOCH`.  A chain
carries the epoch it was built under; on a mismatch it takes the
original route once and evicts its own row, which the next miss
rebuilds against the new chain shape.

**Stand-down.**  A row takes its short route only when that is
observably identical to the tower, so a row stands down only for an
observer that sees something the row skips.  Kernel rows never stand
down: every observer of an uninterposed call (obs, DFSTrace, the
profiler's kernel tick, watches, the recorder's turn) sees only
:func:`~repro.kernel.trap.kernel_entry` or wraps the trap itself.
Chains skip agent layers, so entry chains stand down under the guard
rail and the profiler, and downcall chains under the profiler, which
see those layers.  A decode row runs inside its agent's handler, where
no observer looks, and never stands down.  Obs and the recorder never
change the route.
With the ``trap_fast`` flag off every process uses :data:`_TOWER`,
whose rows are all the tower.
"""

from functools import partial
from time import perf_counter

from repro.kernel.errno import SyscallError
from repro.kernel.sysent import SYSCALLS, TWO_REGISTER_CALLS, name_of
from repro.obs.metrics import layer_keys

#: bumped on every agent ``_down`` mutation; compiled chains carry the
#: epoch they were built under and take the original route on any
#: mismatch (see module docstring: the map is shared across processes)
DOWN_EPOCH = [0]


def note_down_mutation():
    """An agent's ``_down`` chain changed: retire every baked chain."""
    DOWN_EPOCH[0] += 1


class DispatchTable(dict):
    """Rows for one emulation vector, each built on its number's first miss.

    *vector* maps number → handler: a snapshot of a process's emulation
    vector or, with *agent* set, that agent's ``_down`` map.  ``None``
    makes the tower-only table the ``trap_fast`` flag selects when off.
    """

    __slots__ = ("vector", "agent")

    def __init__(self, vector, agent=None):
        super().__init__()
        self.vector = vector
        self.agent = agent

    def __missing__(self, number):
        # Unlocked: two processes missing on the same number at once
        # build equivalent rows, and either store may win.
        row = self[number] = build_compiled_dispatch(self, number)
        return row


#: shared by every process with an empty emulation vector
_EMPTY = DispatchTable({})
#: shared by every process when the ``trap_fast`` flag is off
_TOWER = DispatchTable(None)


def dispatch_table(kernel, vector):
    """The table for a process whose emulation vector is *vector*."""
    if not kernel.fastpaths.trap_fast:
        return _TOWER
    if not vector:
        return _EMPTY
    return DispatchTable(dict(vector))


def _implementation(number):
    """``(impl, sysent entry)`` for *number*, or ``None`` if unimplemented."""
    # Imported here: repro.kernel.syscalls imports the process module,
    # which imports this one — a top-level import would cycle.
    from repro.kernel.syscalls import DISPATCH

    impl = DISPATCH.get(number)
    entry = SYSCALLS.get(number)
    if impl is None or entry is None:
        return None
    return impl, entry


def _kernel_row(number):
    """The row of an uninterposed number: straight into the kernel."""
    from repro.kernel.trap import kernel_entry

    found = _implementation(number)
    if found is None:
        return None
    impl, entry = found

    def row(ctx, args):
        kernel = ctx.kernel
        kernel.trap_fast_total += 1
        return kernel_entry(kernel, ctx.proc, impl, entry, args)

    return row


def _kernel_terminal(number):
    """A chain's kernel terminal: the htg downcall's own body
    (:func:`~repro.kernel.trap.htg_row`), or ``None`` when the kernel
    does not implement *number*."""
    from repro.kernel.trap import HTG_ROWS

    if _implementation(number) is None:
        return None
    return HTG_ROWS[number]


def _call(handler, number):
    """The original route through *handler* (``None``: the htg downcall),
    for a chain's opaque terminal, stand-down, and arity bailout."""
    if handler is None:
        def call(ctx, args):
            return ctx.htg(number, *args)
    else:
        def call(ctx, args):
            return handler(ctx, number, tuple(args))
    return call


def _method_terminal(agent, method):
    """Invoke an overridden ``sys_*`` body directly.

    Used for layers :func:`~repro.toolkit.compile_support.peel_entry_method`
    graded: the body is real agent code and runs verbatim — its
    downcalls go through the agent's normal machinery — but the tower
    walk *above* it (boilerplate entry, symbolic handle, the numeric
    layer's register/EmulRegs allocations) is skipped.  The context
    bind replays the boilerplate entry's; the surrounding chain replays
    the default-fill and the errno/two-register marshalling.
    """
    def terminal(ctx, args):
        agent._bind(ctx)
        return method(*args)
    return terminal


def _opaque_chain(support, handler, number):
    """Collapse an opaque layer's entry tower into a direct method call.

    Returns a ``(chain, staged)`` pair (see :func:`_chains`), or
    ``None`` when the layer's machinery is not provably stock.  Serves
    both as the chain of an opaque *top* layer and as the terminal of a
    collapsed transparent prefix, so even chains that end in real agent
    code shed the per-call layer walk.  An argument count the fill
    cannot replay bails to the original handler, keeping the tower's
    ``TypeError`` byte-identical.
    """
    plan = support.peel_entry_method(handler, number)
    if plan is None:
        return None
    agent, method, fill = plan
    terminal = _method_terminal(agent, method)
    return _chains(number, [fill], True, (terminal, terminal),
                   _call(handler, number), [agent])


def _around_chain(support, handler, number):
    """Enter an *around* layer's ``handle_syscall`` directly.

    Returns a ``(chain, staged)`` pair (see :func:`_chains`), or
    ``None`` when *handler* is not the stock boilerplate entry.  The
    chain replays the entry's context bind and calls the agent's
    ``handle_syscall`` — an override such as the trace agent's runs
    verbatim, and its ``super()`` call takes the agent's decode row
    (:class:`DecodeTable`) — skipping the tower and
    ``_emulation_entry``; the staged twin records the layer's obs
    accounting as the entry would.
    """
    agent = support.entry_agent(handler)
    if agent is None:
        return None
    handle = agent.handle_syscall

    def terminal(ctx, args):
        agent._bind(ctx)
        return handle(number, args)

    return _chains(number, [], False, (terminal, terminal),
                   _call(handler, number), [agent])


def _make_chain(number, fills, normalize, terminal, fallback):
    """Compose fills → terminal → normalization into one closure.

    *fills* replay each collapsed symbolic layer's default-filling; an
    argument count outside a layer's ``[required, nparams]`` band is
    exactly the case where the tower's ``method(*args)`` crashes with
    ``TypeError``, so the chain bails to *fallback* — the original
    route — and the crash (or an opaque handler's own treatment) stays
    byte-identical.  *normalize* replays the numeric layer once: a
    ``SyscallError`` is re-raised errno-only (the message is consumed
    by the layer, and re-raising outside the except block drops the
    implicit context, as the tower's deferred raise does), and
    two-register calls are marshalled through the register pair.
    """
    two_register = normalize and number in TWO_REGISTER_CALLS
    if not fills and not normalize:
        return terminal
    fills = tuple(fills)

    def chain(ctx, args):
        for required, nparams, defaults in fills:
            count = len(args)
            if count < required or count > nparams:
                return fallback(ctx, args)
            if count < nparams:
                args = args + defaults[count - required:]
        if not normalize:
            return terminal(ctx, args)
        error = 0
        value = 0
        try:
            value = terminal(ctx, args)
        except SyscallError as exc:
            error = exc.errno
        if error:
            raise SyscallError(error)
        if two_register:
            if isinstance(value, tuple):
                first, second = value
                return (first, second)
            return (value, 0)
        return value

    return chain


def _stage(chain, number, fills, fallback, agents):
    """*chain* with the obs accounting of the layers it collapses.

    The tower's entry to each collapsed agent records
    ``("agent.call", layer, name)`` and the ``layer.usec`` histograms
    around the agent's handler
    (:meth:`~repro.obs.core.Observability.layer_usec`).  The stage
    times the chain once and gives that inclusive host time to every
    collapsed layer, innermost first, as the tower's unwinding does.
    An argument count the fills cannot replay takes *fallback*
    unrecorded: the original route records its layers itself.
    """
    # innermost first: the tower's entries record as they unwind
    counters, observed = layer_keys(
        [agent.OBS_LAYER for agent in reversed(agents)], name_of(number))
    fills = tuple(fills)

    def staged(ctx, args):
        obs = ctx.kernel.obs
        if obs is None or not obs.metrics_on:
            return chain(ctx, args)
        count = len(args)
        for required, nparams, _ in fills:
            if count < required or count > nparams:
                return fallback(ctx, args)
            if count < nparams:
                count = nparams
        start = perf_counter()
        try:
            return chain(ctx, args)
        finally:
            obs.metrics.update(counters, observed,
                               (perf_counter() - start) * 1e6)

    return staged


def _chains(number, fills, normalize, terminals, fallback, agents):
    """The ``(chain, staged)`` pair of one collapse.

    *terminals* is the terminal's own pair; *agents* the layers this
    collapse skips, outermost first.  ``chain`` is the plain closure
    an unobserved row runs, with no frame added for obs; ``staged``
    runs the same route with the staged terminal and, when anything
    was collapsed, the :func:`_stage` accounting around it.
    """
    terminal, staged_terminal = terminals
    chain = _make_chain(number, fills, normalize, terminal, fallback)
    if staged_terminal is terminal:
        staged = chain
    else:
        staged = _make_chain(number, fills, normalize, staged_terminal,
                             fallback)
    if agents:
        staged = _stage(staged, number, fills, fallback, agents)
    return chain, staged


def _flatten(handler, number, fallback):
    """Collapse the handler chain from *handler* (``None``: the kernel)
    into a ``(chain, staged)`` pair (see :func:`_chains`), or ``None``
    when the chain offers nothing to skip.

    Walks the transparent prefix of toolkit layers down each agent's
    ``_down`` map and terminates at the kernel or at the first opaque
    handler, entered by a direct call of its ``sys_*`` method or, for
    an around layer, of its ``handle_syscall`` where its machinery is
    stock.
    """
    # Imported here: the toolkit imports the kernel modules that import
    # this one — a top-level import would cycle.
    from repro.toolkit import compile_support as support

    plans = []
    cursor = handler
    while cursor is not None:
        plan = support.peel(cursor, number)
        if plan is None or any(each.agent is plan.agent for each in plans):
            break  # opaque, or a cyclic chain: treat the rest as opaque
        plans.append(plan)
        cursor = plan.agent._down.get(number)
    if cursor is None:
        terminal = _kernel_terminal(number)
        terminals = None if terminal is None else (terminal, terminal)
    else:
        terminals = (_opaque_chain(support, cursor, number)
                     or _around_chain(support, cursor, number))
        if terminals is None and plans:
            terminal = _call(cursor, number)
            terminals = (terminal, terminal)
    if terminals is None:
        return None
    fills = [plan.fill for plan in plans if plan.fill is not None]
    normalize = any(plan.normalize for plan in plans)
    return _chains(number, fills, normalize, terminals, fallback,
                   [plan.agent for plan in plans])


def _entry_row(table, number, handler):
    """The row of an interposed number: its compiled chain, or ``None``."""
    from repro.kernel.trap import tower

    chains = _flatten(handler, number, _call(handler, number))
    if chains is None:
        return None
    chain, staged = chains
    epoch = DOWN_EPOCH[0]

    def row(ctx, args):
        kernel = ctx.kernel
        if DOWN_EPOCH[0] != epoch:
            table.pop(number, None)  # stale: the next miss rebuilds it
        elif kernel.guard is None and kernel.profiler is None:
            kernel.trap_compiled_total += 1
            if kernel.obs is None:
                return chain(ctx, args)
            return staged(ctx, args)
        return tower(ctx, number, args)

    return row


def _down_row(table, number):
    """An agent's downcall row: the flattened sub-tower, or ``None``.

    ``None`` also for an agent whose class overrides
    ``syscall_down_numeric``: :meth:`~repro.toolkit.boilerplate.Agent.syscall_down`
    enters a row directly, which would skip the override.
    """
    from repro.toolkit import compile_support as support

    agent = table.agent
    if (not agent.ctx.kernel.fastpaths.trap_fast
            or not support.stock_downcalls(agent)):
        return None
    below = table.vector.get(number)
    fallback = _call(below, number)
    chains = _flatten(below, number, fallback)
    if chains is None:
        return None
    chain, staged = chains
    epoch = DOWN_EPOCH[0]

    def row(ctx, args):
        kernel = ctx.kernel
        if DOWN_EPOCH[0] != epoch:
            table.pop(number, None)  # stale: the next miss rebuilds it
        elif kernel.profiler is None:
            kernel.down_compiled_total += 1
            if kernel.obs is None:
                return chain(ctx, tuple(args))
            return staged(ctx, tuple(args))
        return fallback(ctx, args)

    return row


class DecodeTable(dict):
    """A symbolic agent's decode rows: number → ``row(args)``, the body
    of :meth:`~repro.toolkit.symbolic.SymbolicSyscall.handle_syscall`
    (the ``super()`` an around layer calls), built on first use."""

    __slots__ = ("agent",)

    def __init__(self, agent):
        super().__init__()
        self.agent = agent

    def __missing__(self, number):
        row = self[number] = _decode_row(self.agent, number)
        return row


def _decode_row(agent, number):
    """*agent*'s decode of *number*, as ``row(args)``.

    With ``trap_fast`` on and the stock numeric layer, one chain
    replays it: default-fill, the bound ``sys_*`` method, then the
    errno/two-register normalization, without the numeric layer's
    register vector.  Otherwise, and for a call with no ``sys_*`` body,
    the row is the numeric layer's ``handle_syscall``.  The decode runs
    inside the agent's own handler and no observer sees it, so the row
    never stands down; nothing it bakes changes after the agent is
    built, so it carries no epoch.
    """
    from repro.toolkit import compile_support as support

    handle = agent._numeric.handle_syscall
    found = (agent.ctx.kernel.fastpaths.trap_fast
             and support.symbolic_method(agent, number))
    if not found:
        return partial(handle, number)
    method, fill = found

    def terminal(ctx, args):
        return method(*args)

    def fallback(ctx, args):
        return handle(number, args)

    # The chain's context goes unused: the caller bound the agent.
    return partial(_make_chain(number, [fill], True, terminal, fallback),
                   None)


def build_compiled_dispatch(table, number):
    """Build *table*'s row for *number* (see the module docstring)."""
    if table.agent is not None:
        return _down_row(table, number)
    from repro.kernel.trap import tower

    row = None
    if table.vector is not None:
        handler = table.vector.get(number)
        if handler is None:
            row = _kernel_row(number)
        else:
            row = _entry_row(table, number, handler)
    if row is None:
        def row(ctx, args):
            return tower(ctx, number, args)
    return row
