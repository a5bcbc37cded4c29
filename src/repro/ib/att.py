"""The HCA's address-translation-table (ATT) cache.

Registered memory regions store their page translations in adapter
memory; the adapter keeps a small on-chip cache of recently used entries.
Every DMA access must translate its target page — a cached entry is free,
a miss stalls the DMA engine while the entry is fetched from adapter
memory (or host memory, depending on the design).

The paper's mechanism (§5.1, §6): with 4 KB translations a multi-megabyte
transfer touches a new entry every 4 KB and the cache thrashes; with the
patched driver sending 2 MB translations the working set shrinks 512×,
"less ATT misses on the adapter ... can also result in bigger network
bandwidth due to less dispatched stalls" — visible on the Xeon's PCI-X
system where the bus has no slack to hide the stalls.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro import sanitize
from repro.analysis.counters import CounterSet


@dataclass(frozen=True)
class ATTConfig:
    """ATT cache geometry and miss cost.

    Attributes
    ----------
    entries: on-chip translation-cache entries (page-size agnostic).
    fetch_ns: stall to fetch one entry on a miss.
    """

    entries: int = 64
    fetch_ns: float = 250.0

    def __post_init__(self) -> None:
        if self.entries < 1:
            raise ValueError("ATT cache needs at least one entry")
        if self.fetch_ns < 0:
            raise ValueError("fetch cost cannot be negative")


class ATTCache:
    """Fully-associative LRU cache of translation entries.

    Keys are ``(mr_id, entry_index)`` pairs — an entry translates one
    *registered page* of one memory region, at whatever page size the
    driver uploaded.

    Unlike the TLB and the data cache, the ATT keeps an ``OrderedDict``
    rather than a run-length :class:`~repro.mem.lru.RunLRU`: it holds
    only 64 entries and sees mostly short sweeps, where per-key dict
    operations are cheaper than run bookkeeping.  Moved onto runs, the
    perfbench ``ops_per_s`` fell from 17.9 to 15.8 on verbs-train and
    from 27.5 to 23.4 on imb-sendrecv.
    """

    def __init__(self, config: ATTConfig, counters: Optional[CounterSet] = None):
        self.config = config
        self.counters = counters if counters is not None else CounterSet()
        self._cache: OrderedDict = OrderedDict()

    def access(self, mr_id: int, entry_index: int) -> Tuple[bool, float]:
        """Translate through entry *entry_index* of region *mr_id*.

        Returns ``(hit, stall_ns)``.
        """
        san = sanitize._active
        if san is not None and san.mr:
            san.check_att(mr_id, entry_index, 1)
        key = (mr_id, entry_index)
        if key in self._cache:
            self._cache.move_to_end(key)
            self.counters.add("att.hit")
            return True, 0.0
        self.counters.add("att.miss")
        while len(self._cache) >= self.config.entries:
            self._cache.popitem(last=False)
        self._cache[key] = True
        return False, self.config.fetch_ns

    def sweep_range(self, mr_id: int, first_entry: int, n_entries: int) -> Tuple[int, int]:
        """Translate a sequential run of entries in one call.

        Exactly equivalent to per-entry :meth:`access` calls on
        ``(mr_id, first_entry) .. (mr_id, first_entry+n_entries-1)``:
        identical hit/miss totals and counters, identical final cache
        content and LRU order.  Returns ``(hits, misses)``; the stall is
        ``misses * config.fetch_ns``.
        """
        if n_entries <= 0:
            raise ValueError(f"n_entries must be positive, got {n_entries}")
        san = sanitize._active
        if san is not None and san.mr:
            san.check_att(mr_id, first_entry, n_entries)
        cache = self._cache
        capacity = self.config.entries
        end = first_entry + n_entries
        resident = 0
        if len(cache) <= n_entries:
            for mr, idx in cache:
                if mr == mr_id and first_entry <= idx < end:
                    resident += 1
        else:
            for idx in range(first_entry, end):
                if (mr_id, idx) in cache:
                    resident += 1
        if resident == 0:
            hits, misses = 0, n_entries
            if n_entries >= capacity:
                cache.clear()
                for idx in range(end - capacity, end):
                    cache[(mr_id, idx)] = True
            else:
                overflow = len(cache) + n_entries - capacity
                for _ in range(overflow if overflow > 0 else 0):
                    cache.popitem(last=False)
                for idx in range(first_entry, end):
                    cache[(mr_id, idx)] = True
        elif resident == n_entries:
            # all hits: nothing inserted, so nothing evicted
            hits, misses = n_entries, 0
            for idx in range(first_entry, end):
                cache.move_to_end((mr_id, idx))
        elif (
            resident == capacity
            and len(cache) == capacity
            and n_entries >= 2 * capacity
            and all(
                key == expect
                for key, expect in zip(
                    cache, ((mr_id, i) for i in range(end - capacity, end))
                )
            )
        ):
            # repeated long sweep: the cache holds exactly the last
            # `capacity` swept entries in sweep order.  With n >= 2 *
            # capacity the first n - capacity misses evict every one of
            # them before the cursor reaches it, and the last `capacity`
            # misses re-insert the same keys in the same order — all
            # misses, final state unchanged, O(capacity) instead of O(n)
            hits, misses = 0, n_entries
        else:
            hits = 0
            for idx in range(first_entry, end):
                key = (mr_id, idx)
                if key in cache:
                    cache.move_to_end(key)
                    hits += 1
                else:
                    while len(cache) >= capacity:
                        cache.popitem(last=False)
                    cache[key] = True
            misses = n_entries - hits
        if hits:
            self.counters.add("att.hit", hits)
        if misses:
            self.counters.add("att.miss", misses)
        return hits, misses

    def invalidate_region(self, mr_id: int) -> int:
        """Drop all cached entries of one region (deregistration).

        Returns the number of entries dropped.
        """
        doomed = [k for k in self._cache if k[0] == mr_id]
        for k in doomed:
            del self._cache[k]
        return len(doomed)

    @property
    def resident(self) -> int:
        """Live cached entries."""
        return len(self._cache)

    def flush(self) -> None:
        """Drop everything."""
        self._cache.clear()

    # -- checkpointing ------------------------------------------------------
    def dump_state(self) -> list:
        """Picklable snapshot: ``(mr_id, entry_index)`` keys in LRU
        order (oldest first)."""
        return [tuple(key) for key in self._cache]

    def load_state(self, state: list) -> None:
        """Restore a :meth:`dump_state` snapshot."""
        self._cache.clear()
        for key in state:
            self._cache[tuple(key)] = True
