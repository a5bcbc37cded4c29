"""Physical memory: frame pools for base pages and hugepages.

Two properties of real machines matter for the paper's results and are
modelled here:

1. **Hugepages are physically contiguous.**  A 2 MB hugepage is one 2 MB
   aligned frame, so the hardware prefetcher can stream across what would
   otherwise be 512 unrelated 4 KB frames.
2. **The 4 KB frame pool is fragmented.**  On a machine that has been up
   for a while, consecutive virtual pages map to scattered physical
   frames.  We model this by handing out 4 KB frames in a seeded
   pseudo-random order (the ``fragmentation`` knob interpolates between
   fully sequential and fully scattered).

The 4 KB pool is lazy: frames are drawn from shuffle *windows* of 4096
frames (16 MB) generated on demand, so constructing a 16 GB machine does
not materialise four million frame addresses.  Scattering within a 16 MB
window is exactly what the prefetcher model cares about — consecutive
virtual pages land on non-adjacent frames.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

import numpy as np

#: base page size (bytes)
PAGE_4K = 4096
#: hugepage size (bytes)
PAGE_2M = 2 * 1024 * 1024
#: frames per hugepage
FRAMES_PER_HUGEPAGE = PAGE_2M // PAGE_4K
#: frames per lazy shuffle window
_WINDOW_FRAMES = 4096


def first_bad_frame(frames: array, alignment: int,
                    limit: Optional[int] = None) -> int:
    """Index of the first of *frames* not aligned to *alignment* (or not
    below *limit*), or -1.  Short arrays are scanned in Python: under
    about 64 frames numpy's fixed per-call cost exceeds the whole scan."""
    if len(frames) < 64:
        for i, f in enumerate(frames):
            if f % alignment or (limit is not None and f >= limit):
                return i
        return -1
    view = np.frombuffer(frames, dtype=np.uint64)
    bad = view % alignment != 0
    if limit is not None:
        bad |= view >= limit
    return int(bad.argmax()) if bad.any() else -1


class OutOfMemoryError(MemoryError):
    """Raised when a frame pool is exhausted."""


def is_aligned(value: int, alignment: int) -> bool:
    """True if *value* is a multiple of *alignment*."""
    return value % alignment == 0


def align_up(value: int, alignment: int) -> int:
    """Round *value* up to the next multiple of *alignment*."""
    return (value + alignment - 1) // alignment * alignment


def align_down(value: int, alignment: int) -> int:
    """Round *value* down to a multiple of *alignment*."""
    return value - value % alignment


class PhysicalMemory:
    """Physical memory split into a 4 KB pool and a hugepage pool.

    Parameters
    ----------
    total_bytes:
        Total physical memory.  The hugepage pool is carved from the top.
    hugepages:
        Number of 2 MB hugepages reserved at boot (``hugetlb_pool``).
    fragmentation:
        0.0 = 4 KB frames handed out in address order (freshly booted
        machine); 1.0 = fully shuffled within each window (long-running
        machine).  The paper's test systems are busy cluster nodes, so
        presets default to high fragmentation.
    seed:
        Seed for the frame-order shuffling (determinism).
    """

    def __init__(
        self,
        total_bytes: int,
        hugepages: int = 0,
        fragmentation: float = 1.0,
        seed: int = 2006,
    ):
        if total_bytes <= 0 or not is_aligned(total_bytes, PAGE_2M):
            raise ValueError(
                f"total_bytes must be a positive multiple of {PAGE_2M}, got {total_bytes}"
            )
        if not 0.0 <= fragmentation <= 1.0:
            raise ValueError(f"fragmentation must be in [0,1], got {fragmentation}")
        huge_bytes = hugepages * PAGE_2M
        if huge_bytes >= total_bytes:
            raise ValueError(
                f"hugepage pool ({huge_bytes} B) does not fit in {total_bytes} B"
            )
        self.total_bytes = total_bytes
        self.fragmentation = fragmentation

        # hugepage pool sits at the top of physical memory
        self._huge_base = total_bytes - huge_bytes
        self._free_huge: List[int] = [
            self._huge_base + i * PAGE_2M for i in range(hugepages)
        ]
        self._total_huge = hugepages

        # lazy 4 KB pool below it
        self._total_small = self._huge_base // PAGE_4K
        self._cursor = 0  # next never-touched frame index
        self._window = array("Q")  # current shuffle window (pop from end)
        self._returned = array("Q")  # freed frames (reused first, LIFO)
        self._rng = np.random.default_rng(seed)
        # CoW sharing: refcounts > 1 for frames mapped by several address
        # spaces after a fork; freeing a shared frame just drops a ref
        self._shared: dict = {}

    # -- 4 KB frames ------------------------------------------------------
    @property
    def free_small_frames(self) -> int:
        """Number of free 4 KB frames."""
        return (
            (self._total_small - self._cursor)
            + len(self._window)
            + len(self._returned)
        )

    def _refill_window(self) -> None:
        n = min(_WINDOW_FRAMES, self._total_small - self._cursor)
        if n <= 0:
            raise OutOfMemoryError("4 KB frame pool exhausted")
        order = np.arange(self._cursor, self._cursor + n, dtype=np.int64)
        self._cursor += n
        if self.fragmentation > 0.0 and n > 1:
            n_shuffle = int(n * self.fragmentation)
            if n_shuffle > 1:
                idx = self._rng.choice(n, size=n_shuffle, replace=False)
                order[np.sort(idx)] = order[self._rng.permutation(np.sort(idx))]
        # hand out in index order: pop() takes from the end, so reverse
        self._window = array(
            "Q", (order[::-1] * PAGE_4K).astype(np.uint64).tobytes()
        )

    def alloc_frame(self) -> int:
        """Allocate one 4 KB frame; returns its physical address."""
        if self._returned:
            return self._returned.pop()
        if not self._window:
            self._refill_window()
        return self._window.pop()

    def alloc_frames(self, n: int) -> array:
        """Allocate *n* 4 KB frames in one call, as an ``array('Q')``.

        Returns exactly the frames ``n`` consecutive :meth:`alloc_frame`
        calls would return, in the same order (freed frames first, then
        shuffle-window frames) — allocation order feeds the prefetcher
        model, so the bulk path must not perturb it.  On exhaustion the
        partial allocation is returned to the pool (mirroring the
        allocate-then-rollback idiom of the per-frame callers) and
        :class:`OutOfMemoryError` propagates.
        """
        if n <= 0:
            raise ValueError(f"frame count must be positive, got {n}")
        frames = array("Q")
        try:
            # both pools pop from their end: take reversed tail slices
            returned = self._returned
            take = min(n, len(returned))
            if take:
                frames += returned[-1 : -take - 1 : -1]
                del returned[-take:]
            while len(frames) < n:
                if not self._window:
                    self._refill_window()
                window = self._window
                take = min(n - len(frames), len(window))
                frames += window[-1 : -take - 1 : -1]
                del window[-take:]
        except OutOfMemoryError:
            self.free_frames(frames)
            raise
        return frames

    def free_frame(self, paddr: int) -> None:
        """Return a 4 KB frame to the pool (or drop a CoW reference)."""
        if not is_aligned(paddr, PAGE_4K) or paddr >= self._huge_base:
            raise ValueError(f"bad 4 KB frame address {paddr:#x}")
        if self._drop_share(paddr):
            return
        self._returned.append(paddr)

    def free_frames(self, frames: array) -> None:
        """:meth:`free_frame` for each of *frames*, in order."""
        if self._shared:
            for paddr in frames:
                self.free_frame(paddr)
            return
        bad = first_bad_frame(frames, PAGE_4K, self._huge_base)
        if bad >= 0:
            raise ValueError(f"bad 4 KB frame address {frames[bad]:#x}")
        self._returned.extend(frames)

    # -- CoW sharing --------------------------------------------------------
    def share_frame(self, paddr: int) -> None:
        """Register one more owner of *paddr* (any frame size)."""
        self._shared[paddr] = self._shared.get(paddr, 1) + 1

    def _drop_share(self, paddr: int) -> bool:
        """Drop a reference; True if other owners remain (don't free)."""
        count = self._shared.get(paddr)
        if count is None:
            return False
        if count == 2:
            del self._shared[paddr]  # one owner left: back to unshared
        else:
            self._shared[paddr] = count - 1
        return True

    def shared_owners(self, paddr: int) -> int:
        """Current owner count of a frame (1 when unshared)."""
        return self._shared.get(paddr, 1)

    # -- hugepage frames ---------------------------------------------------
    @property
    def total_hugepages(self) -> int:
        """Configured size of the hugepage pool."""
        return self._total_huge

    @property
    def free_hugepages(self) -> int:
        """Number of free 2 MB frames."""
        return len(self._free_huge)

    def alloc_hugepage(self) -> int:
        """Allocate one 2 MB frame; returns its physical address."""
        if not self._free_huge:
            raise OutOfMemoryError("hugepage pool exhausted")
        return self._free_huge.pop()

    def free_hugepage(self, paddr: int) -> None:
        """Return a 2 MB frame to the pool (or drop a CoW reference)."""
        if not is_aligned(paddr, PAGE_2M) or paddr < self._huge_base:
            raise ValueError(f"bad hugepage frame address {paddr:#x}")
        if self._drop_share(paddr):
            return
        self._free_huge.append(paddr)

    def contains_hugepage(self, paddr: int) -> bool:
        """True if *paddr* lies in the hugepage pool region."""
        return paddr >= self._huge_base

    # -- checkpointing ------------------------------------------------------
    def dump_state(self) -> dict:
        """Picklable snapshot of the mutable pool state (geometry —
        total bytes, pool sizes — is reconstructed from the MachineSpec,
        not stored here)."""
        return {
            "cursor": self._cursor,
            "window": list(self._window),
            "returned": list(self._returned),
            "free_huge": list(self._free_huge),
            "shared": dict(self._shared),
            "rng_state": self._rng.bit_generator.state,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`dump_state` snapshot onto identical geometry."""
        self._cursor = state["cursor"]
        self._window = array("Q", state["window"])
        self._returned = array("Q", state["returned"])
        self._free_huge = list(state["free_huge"])
        self._shared = dict(state["shared"])
        self._rng.bit_generator.state = state["rng_state"]
