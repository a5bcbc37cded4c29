"""Exact LRU over integer keys, kept as runs of consecutive keys.

The TLB and the data cache are fully-associative LRU arrays whose
accesses come in sequential sweeps: a stream translates page after page,
a touch reads line after line.  With one map entry per resident key, a
sweep costs O(keys): a sweep over 544 or more pages rewrites all 544
TLB entries.  :class:`RunLRU` stores the same state as a handful of key
runs and replays a whole sweep in O(runs), using the LRU stack property:

*a key hits iff fewer than ``capacity`` distinct keys were touched since
its previous access.*

For a sweep over ``[a, a + n)`` and a resident key ``k``, the distinct
keys touched since ``k``'s last access are the ``r_k`` old keys more
recent than ``k``, plus the ``k - a`` swept keys before it, minus the
``m_k`` keys counted twice (old keys more recent than ``k`` that lie in
``[a, k)``).  Inside one run ``r_k + (k - a)`` is constant, and the
double-counted keys all lie in more recent runs, below the run's part of
the sweep, so ``m_k`` is constant too: each run's overlap with the sweep
hits or misses as a whole, decided by one comparison.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple


class RunLRU:
    """Fully-associative LRU set of integer keys, stored as key runs.

    Recency is a list of half-open runs ``(lo, hi)``, oldest run first;
    inside a run the keys ascend in recency (``hi - 1`` is the most
    recent).  Every operation is exactly equivalent to replaying its
    keys one by one on an insertion-ordered map (front = oldest)::

        if key in lru: lru.move_to_end(key)                  # hit
        else:                                                # miss
            while len(lru) >= capacity: lru.popitem(last=False)
            lru[key] = True

    in hit/miss totals and in the final content and order of the keys.
    """

    __slots__ = ("capacity", "_runs", "_size")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"LRU capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._runs: List[Tuple[int, int]] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: int) -> bool:
        for lo, hi in self._runs:
            if lo <= key < hi:
                return True
        return False

    def __iter__(self) -> Iterator[int]:
        """Resident keys in LRU order, oldest first."""
        for lo, hi in self._runs:
            yield from range(lo, hi)

    def clear(self) -> None:
        self._runs = []
        self._size = 0

    def access(self, key: int) -> bool:
        """Touch one key; True on a hit.  Same result as ``sweep(key, 1)``
        (one key hits iff it is resident), edited in place."""
        runs = self._runs
        hit = False
        for i in range(len(runs) - 1, -1, -1):
            lo, hi = runs[i]
            if lo <= key < hi:
                if i == len(runs) - 1 and key == hi - 1:
                    return True  # already the most recent key
                # cut the key out of its run; it is appended below
                runs[i:i + 1] = [run for run in ((lo, key), (key + 1, hi))
                                 if run[0] < run[1]]
                hit = True
                break
        if runs and runs[-1][1] == key:
            runs[-1] = (runs[-1][0], key + 1)
        else:
            runs.append((key, key + 1))
        if not hit:
            self._size += 1
            self._trim()
        return hit

    def sweep(self, first: int, n: int) -> int:
        """Touch keys ``first .. first + n - 1`` in order; returns the hits."""
        end = first + n
        capacity = self.capacity
        runs = self._runs
        hits = overlap = newer = 0
        # the sweep's overlaps with runs more recent than the one at hand
        seen: List[Tuple[int, int]] = []
        for lo, hi in reversed(runs):
            if lo < end and hi > first:
                s = lo if lo > first else first
                e = hi if hi < end else end
                # the double-counted keys: more recent overlaps below s
                before = 0
                for x, y in seen:
                    if y <= s:
                        before += y - x
                if newer + hi - first - capacity <= before:
                    hits += e - s
                seen.append((s, e))
                overlap += e - s
            newer += hi - lo
        if n >= capacity:
            self._runs = [(end - capacity, end)]
            self._size = capacity
            return hits
        # cut the sweep out of every run (what is left keeps its place),
        # then append it as the most recent run; adjacent pieces merge
        pieces = [piece for lo, hi in runs
                  for piece in ((lo, min(hi, first)), (max(lo, end), hi))]
        pieces.append((first, end))
        kept: List[Tuple[int, int]] = []
        for lo, hi in pieces:
            if lo >= hi:
                continue
            if kept and kept[-1][1] == lo:
                kept[-1] = (kept[-1][0], hi)
            else:
                kept.append((lo, hi))
        self._runs = kept
        self._size = self._size - overlap + n
        self._trim()
        return hits

    def dump_state(self) -> List[int]:
        """Picklable snapshot: the keys in LRU order, oldest first."""
        return list(self)

    def load_state(self, keys: Iterable[int]) -> None:
        """Restore a :meth:`dump_state` snapshot: distinct *keys* in LRU
        order, oldest first; the oldest are dropped beyond ``capacity``."""
        runs: List[Tuple[int, int]] = []
        size = 0
        for key in keys:
            if runs and runs[-1][1] == key:
                runs[-1] = (runs[-1][0], key + 1)
            else:
                runs.append((key, key + 1))
            size += 1
        self._runs = runs
        self._size = size
        self._trim()

    def _trim(self) -> None:
        """Evict the oldest keys down to ``capacity``."""
        excess = self._size - self.capacity
        if excess <= 0:
            return
        runs = self._runs
        drop = 0
        while excess >= runs[drop][1] - runs[drop][0]:
            excess -= runs[drop][1] - runs[drop][0]
            drop += 1
        if excess:
            runs[drop] = (runs[drop][0] + excess, runs[drop][1])
        del runs[:drop]
        self._size = self.capacity
