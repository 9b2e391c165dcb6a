"""The 4.3BSD directory name lookup cache, in-core edition.

4.3BSD kept a hash of recently used ``(directory, component)`` → inode
translations because pathname resolution dominated system call time;
``namei`` consulted it before scanning directory blocks.  This module
reproduces that cache for the simulated kernel: one :class:`NameCache`
per kernel, shared by every volume the kernel creates, consulted per
component by :func:`repro.kernel.namei.namei`.

Differences from the historical cache, chosen for this kernel's shape:

* Entries are keyed by the directory *inode object* and component name.
  Inode numbers are never reused within a volume (``Filesystem._next_ino``
  is monotonic), so object identity is stable for the life of an entry.
* The cached value is the **post-mount-crossing** child (and a flag for
  symlinks, which are never crossed): a hit skips the directory hash
  probe, the inode-table probe, the symlink type test, and the mount
  walk.  Mount topology changes are rare and purge the whole cache
  (``Kernel.mount``/``Kernel.umount``), keeping that shortcut safe.
* No negative caching: absent names miss every time, exactly as the
  seed kernel re-raises ``ENOENT`` every time.
* Permission checks are **not** cached — ``namei`` still calls
  ``check_access`` per component on hits, so EACCES behaviour is
  identical with the cache on or off.

Invalidation happens at the directory mutation points themselves
(:meth:`Directory.enter`, ``remove``, ``replace`` — which every create,
unlink, rename, rmdir, symlink and mkdir path funnels through, including
the union/txn/sandbox agents' operations, since those route through
``htg_unix_syscall`` into the same kernel), plus whole-directory purges
on rmdir and whole-cache purges on mount/umount.

Counters are plain attributes (no locking beyond the kernel's own big
lock) and are exported through ``Observability.snapshot()`` and the
``kernel_stats`` trap.
"""

from collections import OrderedDict

#: the capacity every kernel boots with (4.3BSD sized its nc hash by maxusers)
DEFAULT_CAPACITY = 4096


class NameCache:
    """A capacity-bounded LRU map of ``(directory, name)`` → child."""

    __slots__ = ("capacity", "_entries", "_lru_floor", "lru_live", "hits",
                 "misses", "evictions", "invalidations", "purges")

    def __init__(self, capacity=DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("name cache capacity must be positive")
        self.capacity = capacity
        self._entries = OrderedDict()
        #: below this population, hits skip the LRU reshuffle: recency
        #: order only matters once eviction is plausible, and
        #: ``move_to_end`` per hit is the single biggest cost of the
        #: hot path.  Half of capacity — tiny test caches cross the
        #: floor within an entry or two (exact LRU where eviction is
        #: live), the 4096-entry production cache reshuffles only once
        #: real pressure builds.
        self._lru_floor = capacity // 2
        #: ``len(self._entries) > self._lru_floor``, maintained at every
        #: size change so the hot path (inlined in ``namei``) tests one
        #: boolean instead of calling ``len`` per hit
        self.lru_live = False
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.purges = 0

    def __len__(self):
        return len(self._entries)

    # -- the namei hot path ----------------------------------------------
    #
    # namei inlines the hit probe against ``_entries``/``lru_live``
    # directly (one dict.get per component beats any method call); the
    # methods below are the same contract for every other caller.

    def get(self, directory, name):
        """The cached ``(child, is_link)`` for *name* in *directory*.

        Returns ``None`` on a miss.  A hit refreshes the entry's LRU
        position once the cache is past the pressure floor (below it,
        eviction is distant and insertion order is a fine stand-in).
        """
        entries = self._entries
        key = (directory, name)
        entry = entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        if self.lru_live:
            entries.move_to_end(key)
        return entry

    def put(self, directory, name, child, is_link):
        """Remember *name* in *directory* → *child*, evicting LRU at capacity."""
        entries = self._entries
        key = (directory, name)
        if key not in entries and len(entries) >= self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
        entries[key] = (child, is_link)
        self.lru_live = len(entries) > self._lru_floor

    # -- invalidation (directory mutation points) -------------------------

    def invalidate(self, directory, name):
        """Drop the entry for *name* in *directory*, if cached."""
        if self._entries.pop((directory, name), None) is not None:
            self.invalidations += 1
            self.lru_live = len(self._entries) > self._lru_floor

    def purge_dir(self, directory):
        """Drop every entry cached under *directory* (rmdir)."""
        entries = self._entries
        stale = [key for key in entries if key[0] is directory]
        for key in stale:
            del entries[key]
        self.invalidations += len(stale)
        self.lru_live = len(entries) > self._lru_floor

    def purge_fs(self, fs):
        """Drop every entry whose directory lives on *fs*."""
        entries = self._entries
        stale = [key for key in entries if key[0].fs is fs]
        for key in stale:
            del entries[key]
        self.invalidations += len(stale)
        self.lru_live = len(entries) > self._lru_floor

    def purge(self):
        """Drop everything (mount topology changed)."""
        self._entries.clear()
        self.purges += 1
        self.lru_live = False

    # -- reporting --------------------------------------------------------

    def hit_rate(self):
        """Hits as a fraction of lookups (0.0 when never consulted)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self):
        """Counters as a plain dict (obs snapshot / kernel_stats shape)."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate(), 4),
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "purges": self.purges,
        }

    def __repr__(self):
        return "<NameCache %d/%d hits=%d misses=%d>" % (
            len(self._entries), self.capacity, self.hits, self.misses)
