"""The transactional agent: run unmodified programs transactionally.

One of the paper's motivating examples (Section 1.4): "a simple
``run_transaction`` command could be constructed that runs arbitrary
unmodified programs (e.g., /bin/csh) such that all persistent execution
side effects (e.g., filesystem writes) are remembered and appear within
the transactional environment to have been performed normally, but
where in actuality the user is presented with a commit-or-abort choice
at the end of such a session.  Indeed, one such transactional program
invocation could occur within another, transparently providing nested
transactions."

Mechanism: an overlay.  Writes go to shadow files in a private scratch
directory; removals become whiteouts; reads and directory listings
consult the overlay first, so the client observes its own effects.  On
``commit()`` the overlay is applied to the underlying system interface
— which, thanks to agent stacking, may itself be another transactional
agent: nested transactions fall out of the toolkit's downcall chaining.
"""

from repro.agents import agent
from repro.kernel.errno import (
    EDEADLK,
    EEXIST,
    EINVAL,
    ENOENT,
    ENOTDIR,
    SyscallError,
)
from repro.kernel.ofile import (
    FWRITE,
    O_APPEND,
    O_CREAT,
    O_RDONLY,
    O_TRUNC,
    O_WRONLY,
    open_mode_bits,
)
from repro.agents.union_dirs import normalize
from repro.kernel.inode import Dirent
from repro.toolkit.directory import Directory
from repro.toolkit.pathnames import Pathname, PathnameSet, PathSymbolicSyscall


class TxnPathname(Pathname):
    """A pathname resolved through the transaction overlay."""

    def __init__(self, pset, logical):
        super().__init__(pset, pset.backing_path(logical))
        self.logical = logical

    def _check_visible(self):
        if self.pset.is_whited_out(self.logical):
            raise SyscallError(ENOENT, self.logical)

    def open(self, flags=0, mode=0o666):
        wants_write = bool(
            open_mode_bits(flags) & FWRITE or flags & (O_CREAT | O_TRUNC)
        )
        if self.pset.is_whited_out(self.logical):
            if not flags & O_CREAT:
                raise SyscallError(ENOENT, self.logical)
            # Creating over a whiteout: fresh shadow, no seeding.
            self.pset.clear_whiteout(self.logical)
            self.path = self.pset.shadow_for(self.logical, seed=False)
        elif wants_write:
            seed = not flags & O_TRUNC
            self.path = self.pset.shadow_for(self.logical, seed=seed)
        return super().open(flags, mode)

    def stat(self):
        self._check_visible()
        return super().stat()

    def lstat(self):
        self._check_visible()
        return super().lstat()

    def access(self, mode):
        self._check_visible()
        return super().access(mode)

    def unlink(self):
        self._check_visible()
        # Verify the object exists somewhere, then remember the removal.
        self.pset.syscall_down("lstat", self.path)
        self.pset.record_unlink(self.logical)
        return 0

    def mkdir(self, mode=0o777):
        if self.pset.exists_logically(self.logical):
            raise SyscallError(EEXIST, self.logical)
        self.pset.clear_whiteout(self.logical)
        self.pset.record_mkdir(self.logical, mode)
        return 0

    def rmdir(self):
        self._check_visible()
        self.pset.record_rmdir(self.logical)
        return 0

    def rename(self, newpn):
        self._check_visible()
        self.pset.record_rename(self.logical, newpn.logical)
        return 0

    def chmod(self, mode):
        self._check_visible()
        self.pset.record_chmod(self.logical, mode)
        return 0

    def truncate(self, length):
        self._check_visible()
        data = self.pset.slurp_logical(self.logical)
        padded = data[:length] + b"\0" * max(0, length - len(data))
        self.pset.spill_logical(self.logical, padded)
        return 0


class TxnDirectory(Directory):
    """A directory listing adjusted for the overlay: whiteouts removed,
    transaction-created names added."""

    def __init__(self, dset, pathname):
        super().__init__(dset, pathname)
        self.logical = getattr(pathname, "logical", pathname.path)
        self._extra = None

    def next_direntry(self, fd):
        while True:
            if self._extra is None:
                self._extra = self.dset.overlay_names_in(self.logical)
                self._emitted = set()
            status = super().next_direntry(fd)
            if not status:
                # Underlying entries done; emit transaction-created names.
                while self._extra:
                    name = self._extra.pop(0)
                    if name in self._emitted:
                        continue
                    self.direntry = Dirent(0, name)
                    return 1
                self.direntry = None
                return 0
            name = self.direntry.d_name
            child = self.logical.rstrip("/") + "/" + name
            if name not in (".", "..") and self.dset.is_whited_out(
                normalize(child)
            ):
                continue
            self._emitted.add(name)
            if name in self._extra:
                self._extra.remove(name)
            return 1


class TxnPathnameSet(PathnameSet):
    """A pathname set that remembers effects in an overlay."""
    PATHNAME_CLASS = TxnPathname
    DIRECTORY_CLASS = TxnDirectory

    def __init__(self, scratch_dir):
        super().__init__()
        self.scratch_dir = scratch_dir.rstrip("/")
        self.cwd = "/"
        #: logical path -> shadow path, for every file written
        self.shadows = {}
        #: logical paths removed within the transaction
        self.whiteouts = set()
        #: directories created within the transaction, in order
        self.made_dirs = []
        #: logical path -> mode, for chmods within the transaction
        self.modes = {}
        #: (logical, SyscallError) pairs from the last commit: effects the
        #: next-level interface refused (a sandbox below, permissions, ...)
        self.commit_failures = []
        self._serial = 0
        self._scratch_ready = False
        #: savepoint frames: {"name", "mark" (undo-list length), "cowed"}
        self._sp_stack = []
        #: undo closures, appended only while savepoints are active
        self._undo = []
        #: shadow files kept alive for possible rollback; unlinked when the
        #: savepoint stack drains or the transaction ends
        self._trash = []
        self._sp_serial = 0

    # -- resolution ---------------------------------------------------

    def getpn(self, path, flags=0):
        return TxnPathname(self, normalize(path, self.cwd))

    def chdir(self, path):
        result = super().chdir(path)
        self.cwd = normalize(path, self.cwd)
        return result

    def backing_path(self, logical):
        """Where reads of *logical* actually go (shadow or real)."""
        if logical in self.shadows:
            return self.shadows[logical]
        if logical in self.made_dirs:
            # A directory created in the transaction is backed by a
            # scratch directory so opens and listings work.
            return self._dir_shadow(logical)
        return logical

    # -- overlay state ------------------------------------------------------

    def _ensure_scratch(self):
        if not self._scratch_ready:
            try:
                self.syscall_down("mkdir", self.scratch_dir, 0o700)
            except SyscallError as err:
                if err.errno != EEXIST:
                    raise
            self._scratch_ready = True

    def _new_shadow(self, logical=None):
        """A fresh scratch file for *logical*'s contents.

        A file in a directory the transaction made lives under its own
        name in that directory's shadow, so the shadow holds the entries
        the logical directory has (and ``stat`` reports its size).  Under
        savepoints the name may still belong to a shadow kept for
        rollback, so every shadow gets a fresh serial name there.
        """
        self._ensure_scratch()
        if logical is not None and not self._sp_stack:
            parent, _, name = logical.rpartition("/")
            if parent in self.made_dirs:
                return self._dir_shadow(parent) + "/" + name
        self._serial += 1
        return "%s/shadow.%d" % (self.scratch_dir, self._serial)

    def _dir_shadow(self, logical):
        """The scratch directory backing *logical*, a directory made in
        the transaction: inside its parent's shadow when the transaction
        made the parent too, so the scratch tree mirrors the logical one."""
        parent, _, name = logical.rpartition("/")
        if parent in self.made_dirs:
            return self._dir_shadow(parent) + "/" + name
        return "%s/dir.%s" % (
            self.scratch_dir,
            logical.strip("/").replace("/", "__"),
        )

    def is_whited_out(self, logical):
        """True when the transaction removed *logical*."""
        return logical in self.whiteouts

    def clear_whiteout(self, logical):
        """Forget a removal (the name was recreated)."""
        if self._sp_stack and logical in self.whiteouts:
            self._note_undo(lambda logical=logical: self.whiteouts.add(logical))
        self.whiteouts.discard(logical)

    def exists_logically(self, logical):
        """Does *logical* exist in the client's view?"""
        if self.is_whited_out(logical):
            return False
        try:
            self.syscall_down("lstat", self.backing_path(logical))
            return True
        except SyscallError:
            return False

    def shadow_for(self, logical, seed):
        """The shadow file backing writes to *logical* (created on first use).

        While savepoints are active an existing shadow is copied on first
        write per frame, so ``rollback_to`` can restore the pre-savepoint
        contents by pointing the mapping back at the old shadow file.
        """
        shadow = self.shadows.get(logical)
        if shadow is not None:
            if self._sp_stack and logical not in self._sp_stack[-1]["cowed"]:
                self._sp_stack[-1]["cowed"].add(logical)
                fresh = self._new_shadow()
                self._spill(fresh, self._slurp(shadow))
                self._trash.append(shadow)

                def undo(logical=logical, old=shadow, fresh=fresh):
                    self.shadows[logical] = old
                    if old in self._trash:
                        self._trash.remove(old)
                    self._unlink_quiet(fresh)

                self._note_undo(undo)
                self.shadows[logical] = fresh
            return self.shadows[logical]
        shadow = self._new_shadow(logical)
        if seed:
            try:
                data = self._slurp(logical)
            except SyscallError:
                data = None
            if data is not None:
                self._spill(shadow, data)
        if self._sp_stack:
            self._sp_stack[-1]["cowed"].add(logical)

            def undo(logical=logical, shadow=shadow):
                if self.shadows.get(logical) == shadow:
                    del self.shadows[logical]
                self._unlink_quiet(shadow)

            self._note_undo(undo)
        self.shadows[logical] = shadow
        return shadow

    def record_unlink(self, logical):
        """Remember a removal as a whiteout."""
        shadow = self.shadows.pop(logical, None)
        if self._sp_stack:
            # Keep the shadow file around: a rollback may resurrect it.
            was_white = logical in self.whiteouts
            if shadow is not None:
                self._trash.append(shadow)

            def undo(logical=logical, shadow=shadow, was_white=was_white):
                if shadow is not None:
                    self.shadows[logical] = shadow
                    if shadow in self._trash:
                        self._trash.remove(shadow)
                if not was_white:
                    self.whiteouts.discard(logical)

            self._note_undo(undo)
        elif shadow is not None:
            self._unlink_quiet(shadow)
        self.whiteouts.add(logical)

    def record_mkdir(self, logical, mode=0o777):
        """Remember a directory creation; its shadow gets *mode*."""
        self.made_dirs.append(logical)
        if self._sp_stack:
            def undo(logical=logical):
                if logical in self.made_dirs:
                    self.made_dirs.remove(logical)

            self._note_undo(undo)
        self._ensure_scratch()
        try:
            self.syscall_down("mkdir", self._dir_shadow(logical), mode)
        except SyscallError as err:
            if err.errno != EEXIST:
                raise

    def record_rmdir(self, logical):
        """Remember a directory removal."""
        made_at = self.made_dirs.index(logical) if logical in self.made_dirs else None
        was_white = logical in self.whiteouts
        if made_at is not None:
            del self.made_dirs[made_at]
        if self._sp_stack:
            def undo(logical=logical, made_at=made_at, was_white=was_white):
                if made_at is not None and logical not in self.made_dirs:
                    self.made_dirs.insert(made_at, logical)
                if not was_white:
                    self.whiteouts.discard(logical)

            self._note_undo(undo)
        self.whiteouts.add(logical)

    def record_chmod(self, logical, mode):
        """Remember a mode change for commit time."""
        if self._sp_stack:
            had, old = logical in self.modes, self.modes.get(logical)

            def undo(logical=logical, had=had, old=old):
                if had:
                    self.modes[logical] = old
                else:
                    self.modes.pop(logical, None)

            self._note_undo(undo)
        self.modes[logical] = mode

    def _forget_chmod(self, logical):
        """Drop a remembered mode change (the name went away)."""
        if logical not in self.modes:
            return
        if self._sp_stack:
            old = self.modes[logical]
            self._note_undo(
                lambda logical=logical, old=old: self.modes.__setitem__(logical, old)
            )
        del self.modes[logical]

    def record_rename(self, old, new):
        """Remember a rename: contents and mode move to *new*, *old* goes away.

        The destination may have been unlinked earlier in the transaction;
        recreating the name must clear that whiteout or the renamed file
        would be invisible (and the commit-time unlink would destroy it).
        """
        data = self.slurp_logical(old)
        self.clear_whiteout(new)
        self.spill_logical(new, data)
        mode = self.modes.get(old)
        if mode is not None:
            self.record_chmod(new, mode)
            self._forget_chmod(old)
        self.record_unlink(old)

    def overlay_names_in(self, logical_dir):
        """Names created by the transaction that belong in *logical_dir*."""
        prefix = logical_dir.rstrip("/") + "/" if logical_dir != "/" else "/"
        names = []
        for logical in list(self.shadows) + self.made_dirs:
            if logical.startswith(prefix):
                rest = logical[len(prefix):]
                if "/" not in rest and rest not in names:
                    names.append(rest)
        return sorted(names)

    # -- savepoints ---------------------------------------------------

    def _note_undo(self, fn):
        self._undo.append(fn)

    def _unlink_quiet(self, path):
        try:
            self.syscall_down("unlink", path)
        except SyscallError:
            pass

    def _drain_trash(self):
        for shadow in self._trash:
            self._unlink_quiet(shadow)
        self._trash = []

    def _frame_index(self, name):
        for index in range(len(self._sp_stack) - 1, -1, -1):
            if self._sp_stack[index]["name"] == name:
                return index
        raise SyscallError(EINVAL, "no savepoint %r" % name)

    def savepoint(self, name=None):
        """Mark a point the overlay can be rolled back to.  Returns the name."""
        if name is None:
            self._sp_serial += 1
            name = "sp.%d" % self._sp_serial
        self._sp_stack.append(
            {"name": name, "mark": len(self._undo), "cowed": set()}
        )
        return name

    def release(self, name):
        """Drop savepoint *name* (and any nested inside it), keeping changes."""
        index = self._frame_index(name)
        del self._sp_stack[index:]
        if not self._sp_stack:
            self._undo = []
            self._drain_trash()

    def rollback_to(self, name):
        """Restore the overlay to its state at savepoint *name*.

        SQL semantics: savepoints nested inside *name* are destroyed, but
        *name* itself survives and can be rolled back to again.
        """
        index = self._frame_index(name)
        frame = self._sp_stack[index]
        while len(self._undo) > frame["mark"]:
            self._undo.pop()()
        del self._sp_stack[index + 1:]
        frame["cowed"] = set()

    # -- data movement helpers -------------------------------------------------

    def _slurp(self, path):
        fd = self.syscall_down("open", path, O_RDONLY, 0)
        try:
            chunks = []
            while True:
                chunk = self.syscall_down("read", fd, 8192)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)
        finally:
            self.syscall_down("close", fd)

    def _spill(self, path, data):
        fd = self.syscall_down("open", path, O_WRONLY | O_CREAT | O_TRUNC, 0o600)
        try:
            offset = 0
            while offset < len(data):
                offset += self.syscall_down("write", fd, data[offset:offset + 8192])
        finally:
            self.syscall_down("close", fd)

    def slurp_logical(self, logical):
        """Read *logical*'s current (overlay-aware) contents."""
        return self._slurp(self.backing_path(logical))

    def spill_logical(self, logical, data):
        """Write *data* as *logical*'s new overlay contents."""
        self._spill(self.shadow_for(logical, seed=False), data)

    # -- transaction outcome ----------------------------------------------------------

    def commit(self, deadline_usec=None):
        """Apply every remembered effect to the next-level interface.

        Effects the next level refuses (a sandbox interposed below, say)
        are recorded in :attr:`commit_failures` rather than crashing the
        exiting client; the rest of the transaction still applies.

        When *deadline_usec* is given and virtual time passes it mid-way
        (another transaction holding what we need, a slow interface
        below), the remaining effects are abandoned and recorded with
        ``EDEADLK`` instead of blocking forever.
        """
        self.commit_failures = []
        expired = SyscallError(EDEADLK, "commit deadline passed")
        effects = []
        for made in self.made_dirs:
            effects.append(("mkdir", made))
        for logical, shadow in sorted(self.shadows.items()):
            effects.append(("spill", logical, shadow))
        for logical in sorted(self.whiteouts, key=len, reverse=True):
            effects.append(("whiteout", logical))
        for logical, mode in sorted(self.modes.items()):
            effects.append(("chmod", logical, mode))
        for index, effect in enumerate(effects):
            if deadline_usec is not None and self._now_usec() > deadline_usec:
                for late in effects[index:]:
                    self.commit_failures.append((late[1], expired))
                break
            self._apply_effect(effect)
        self._discard()

    def _now_usec(self):
        return self.syscall_down("gettimeofday").to_usec()

    def _apply_effect(self, effect):
        kind, logical = effect[0], effect[1]
        if kind == "mkdir":
            try:
                self.syscall_down("mkdir", logical, 0o755)
            except SyscallError as err:
                if err.errno != EEXIST:
                    self.commit_failures.append((logical, err))
        elif kind == "spill":
            try:
                self._spill(logical, self._slurp(effect[2]))
            except SyscallError as err:
                self.commit_failures.append((logical, err))
        elif kind == "whiteout":
            try:
                self.syscall_down("unlink", logical)
            except SyscallError as err:
                try:
                    self.syscall_down("rmdir", logical)
                except SyscallError as dir_err:
                    if dir_err.errno == ENOENT and err.errno == ENOENT:
                        # Created and destroyed within the transaction:
                        # nothing below to remove, nothing went wrong.
                        return
                    if dir_err.errno in (ENOENT, ENOTDIR):
                        # Not a directory, so the unlink error is the
                        # meaningful one.
                        self.commit_failures.append((logical, err))
                    else:
                        self.commit_failures.append((logical, dir_err))
        else:
            try:
                self.syscall_down("chmod", logical, effect[2])
            except SyscallError as err:
                if err.errno != ENOENT:
                    self.commit_failures.append((logical, err))

    def abort(self):
        """Forget every remembered effect."""
        self._discard()

    def _discard(self):
        for shadow in self.shadows.values():
            self._unlink_quiet(shadow)
        self.shadows = {}
        self.whiteouts = set()
        self.made_dirs = []
        self.modes = {}
        self._sp_stack = []
        self._undo = []
        self._drain_trash()


@agent("txn")
class TxnAgent(PathSymbolicSyscall):
    """Run clients transactionally; decide commit or abort at the end.

    ``outcome`` may be ``"commit"``, ``"abort"``, or ``"ask"`` — the
    latter prints a prompt and reads the choice from the client's
    terminal when the initial client exits, the interactive session the
    paper describes.
    """

    DESCRIPTOR_SET_CLASS = TxnPathnameSet

    def __init__(self, scratch_dir="/tmp/txn.scratch", outcome="commit"):
        super().__init__(pset=TxnPathnameSet(scratch_dir))
        self.outcome = outcome
        self.decided = None
        self._client_pid = None
        #: virtual-time budget for commit(); ``None`` means unbounded
        self.commit_timeout_usec = None
        self._commit_hooks = []
        self._abort_hooks = []
        #: (fn, exception) pairs from hooks that raised at decision time
        self.hook_failures = []
        self._nested = []

    def init(self, agentargv):
        if agentargv:
            self.outcome = agentargv[0]
        if len(agentargv) > 1:
            self.pset.scratch_dir = agentargv[1].rstrip("/")
        super().init(agentargv)
        self._client_pid = self.syscall_down("getpid")

    def commit(self, timeout_usec=None):
        """Apply the session's remembered effects now.

        *timeout_usec* (or :attr:`commit_timeout_usec`) bounds the apply
        phase in virtual time; effects past the deadline land in
        ``pset.commit_failures`` with ``EDEADLK`` — the deadlock-avoidance
        shape: give up and report rather than hold the interface forever.
        """
        self.decided = "commit"
        if timeout_usec is None:
            timeout_usec = self.commit_timeout_usec
        deadline = None
        if timeout_usec is not None:
            deadline = self.pset._now_usec() + timeout_usec
        self.pset.commit(deadline_usec=deadline)
        self._run_hooks(self._commit_hooks)

    def abort(self):
        """Discard the session's remembered effects now."""
        self.decided = "abort"
        self.pset.abort()
        self._run_hooks(self._abort_hooks)

    # -- hooks and nesting --------------------------------------------

    def on_commit(self, fn):
        """Call *fn()* after a successful commit decision."""
        self._commit_hooks.append(fn)

    def on_abort(self, fn):
        """Call *fn()* after an abort decision."""
        self._abort_hooks.append(fn)

    def _run_hooks(self, hooks):
        for fn in hooks:
            try:
                fn()
            except Exception as err:  # a hook must not undo the decision
                self.hook_failures.append((fn, err))

    def savepoint(self, name=None):
        """Mark a rollback point in the live overlay."""
        return self.pset.savepoint(name)

    def release(self, name):
        """Drop savepoint *name*, keeping the changes made since."""
        self.pset.release(name)

    def rollback_to(self, name):
        """Restore the overlay to its state at savepoint *name*."""
        self.pset.rollback_to(name)

    def begin_nested(self):
        """Start a nested transaction (§1.4: "one such transactional
        program invocation could occur within another").  Nested
        transactions map onto savepoints in this agent's overlay."""
        name = self.pset.savepoint()
        self._nested.append(name)
        return name

    def commit_nested(self):
        """Commit the innermost nested transaction into its parent."""
        self.pset.release(self._nested.pop())

    def abort_nested(self):
        """Abort the innermost nested transaction."""
        name = self._nested.pop()
        self.pset.rollback_to(name)
        self.pset.release(name)

    def sys_exit(self, status=0):
        if self.syscall_down("getpid") == self._client_pid and self.decided is None:
            choice = self.outcome
            if choice == "ask":
                self.syscall_down(
                    "write", 2, b"txn: commit changes? [y/n] "
                )
                answer = self.syscall_down("read", 0, 16)
                choice = "commit" if answer[:1].lower() == b"y" else "abort"
            if choice == "commit":
                self.commit()
            else:
                self.abort()
        return super().sys_exit(status)
