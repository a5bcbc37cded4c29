"""Page tables as extents.

A :class:`PageTable` maps virtual pages to physical frames for two page
sizes (4 KB base pages and 2 MB hugepages, which on x86-64 are leaf
entries one level up the radix tree — hence the cheaper walk).

The table stores no object per page.  Each mapping is a :class:`Run`:
consecutive virtual pages of one size with an exact frame array
(``array('Q')`` — the 4 KB pool hands frames out in a shuffled order the
prefetcher model reads, so frames are never assumed contiguous),
interval pin counts and the set of pages still shared Copy-on-Write.
Mapping, unmapping and pinning cost O(runs), not O(pages) — the paper's
own point that per-page translation work is what hurts.

Per-page :class:`PageView` snapshots are built on demand by
:meth:`~PageTable.lookup`, :meth:`~PageTable.pages_in_range` and
:meth:`~PageTable.entries` for the reference loops.  Translation returns
both the physical address and the page size so callers (TLB,
registration engine, DMA) can behave page-size-aware.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.mem.physical import PAGE_2M, PAGE_4K, first_bad_frame


class TranslationFault(Exception):
    """Raised when a virtual address has no mapping (a segfault)."""

    def __init__(self, vaddr: int):
        super().__init__(f"no translation for {vaddr:#x}")
        self.vaddr = vaddr


class PinError(ValueError):
    """Raised when unpinning a page whose pin count is already zero."""

    def __init__(self, vaddr: int):
        super().__init__(f"page {vaddr:#x} is not pinned")
        self.vaddr = vaddr


class PageView(NamedTuple):
    """One leaf translation read out of a :class:`Run` — a snapshot:
    change the table through :class:`PageTable`, never through a view."""

    vaddr: int
    paddr: int
    page_size: int
    #: number of holders that pinned this page (registration)
    pin_count: int = 0
    #: Copy-on-Write: shared with another address space after a fork;
    #: the first write must copy the frame
    cow: bool = False


class Run:
    """Consecutive virtual pages of one size: one extent of a page table.

    Attributes
    ----------
    base: virtual address of the first page.
    page_size: 4096 or 2 MB.
    frames: physical frame base of each page (``array('Q')``).
    pins: pin counts as a difference map ``{page_idx: delta}`` — page
        *i*'s count is the sum of the deltas at indices <= *i*.  Pinning
        ``[lo, hi)`` adds +1 at ``lo`` and -1 at ``hi``; zero deltas are
        dropped, so an empty map means nothing is pinned.
    cow: indices of the pages still shared Copy-on-Write.
    """

    __slots__ = ("base", "page_size", "frames", "pins", "cow", "_breaks")

    def __init__(self, base: int, page_size: int, frames: array,
                 pins: Optional[Dict[int, int]] = None,
                 cow: Optional[Set[int]] = None):
        self.base = base
        self.page_size = page_size
        self.frames = frames
        self.pins: Dict[int, int] = pins if pins is not None else {}
        self.cow: Set[int] = cow if cow is not None else set()
        #: prefix count of physical discontinuities (see :meth:`restarts`),
        #: built on first use and dropped whenever ``frames`` changes
        self._breaks: Optional[np.ndarray] = None

    @property
    def n_pages(self) -> int:
        """Number of pages in the run."""
        return len(self.frames)

    @property
    def end(self) -> int:
        """One past the last mapped byte."""
        return self.base + len(self.frames) * self.page_size

    def vaddr(self, idx: int) -> int:
        """Virtual base of page *idx*."""
        return self.base + idx * self.page_size

    def view(self, idx: int, pin_count: Optional[int] = None) -> PageView:
        """The :class:`PageView` of page *idx*."""
        if pin_count is None:
            pin_count = sum(d for i, d in self.pins.items() if i <= idx)
        return PageView(self.vaddr(idx), self.frames[idx], self.page_size,
                        pin_count, idx in self.cow)

    # -- pin counts ----------------------------------------------------------
    def pin_levels(self, lo: int, hi: int) -> List[Tuple[int, int, int]]:
        """Pin counts over pages ``[lo, hi)`` as ``(seg_lo, seg_hi,
        count)`` pieces of constant count, in page order."""
        level = 0
        cursor = lo
        out = []
        for idx in sorted(self.pins):
            if idx >= hi:
                break
            if idx > lo:
                out.append((cursor, idx, level))
                cursor = idx
            level += self.pins[idx]
        out.append((cursor, hi, level))
        return out

    def add_pins(self, lo: int, hi: int, delta: int) -> None:
        """Add *delta* to the pin count of pages ``[lo, hi)``."""
        for idx, d in ((lo, delta), (hi, -delta)):
            value = self.pins.get(idx, 0) + d
            if value:
                self.pins[idx] = value
            else:
                del self.pins[idx]

    # -- physical adjacency --------------------------------------------------
    def break_prefix(self) -> np.ndarray:
        """``prefix[i]`` = pages ``j`` in ``1..i`` whose frame does not
        physically follow frame ``j-1``."""
        frames = np.frombuffer(self.frames, dtype=np.uint64)
        prefix = np.zeros(len(frames), dtype=np.int64)
        np.cumsum(frames[1:] != frames[:-1] + np.uint64(self.page_size),
                  out=prefix[1:])
        return prefix

    def restarts(self, first: int, last: int) -> int:
        """Prefetcher stream restarts over pages [first..last]: one cold
        start plus one per physical discontinuity inside the range."""
        if self._breaks is None:
            self._breaks = self.break_prefix()
        return 1 + int(self._breaks[last] - self._breaks[first])

    def breaks_stale(self) -> bool:
        """True when the cached prefix disagrees with the frames (a frame
        changed without dropping the cache)."""
        return self._breaks is not None and not np.array_equal(
            self._breaks, self.break_prefix())

    def cut(self, lo: int, hi: int) -> "Run":
        """Pages ``[lo, hi)`` as a new run.  Pages ``lo-1`` and ``hi``
        must be unpinned, as around every range the table removes."""
        return Run(self.vaddr(lo), self.page_size, self.frames[lo:hi],
                   {i - lo: d for i, d in self.pins.items() if lo <= i <= hi},
                   {i - lo for i in self.cow if lo <= i < hi})


class PageTable:
    """A two-granularity, extent-based page table for one address space."""

    #: page-walk depth for each page size (x86-64: 4 levels for 4 KB
    #: leaves, 3 for 2 MB leaves)
    WALK_LEVELS = {PAGE_4K: 4, PAGE_2M: 3}

    def __init__(self) -> None:
        # per page size: runs sorted by base, and their bases for bisect
        self._runs: Dict[int, List[Run]] = {PAGE_4K: [], PAGE_2M: []}
        self._bases: Dict[int, List[int]] = {PAGE_4K: [], PAGE_2M: []}

    def find(self, page_size: int, vaddr: int) -> Optional[Run]:
        """The run of *page_size* covering *vaddr* (shadowed or not)."""
        if page_size not in self._runs:
            raise ValueError(f"unsupported page size {page_size}")
        i = bisect_right(self._bases[page_size], vaddr) - 1
        if i < 0:
            return None
        run = self._runs[page_size][i]
        return run if vaddr < run.end else None

    def _first_mapped(self, page_size: int, start: int, end: int) -> Optional[int]:
        """Lowest address in ``[start, end)`` mapped at *page_size*."""
        bases = self._bases[page_size]
        i = bisect_right(bases, start) - 1
        if i >= 0 and self._runs[page_size][i].end > start:
            return start
        if i + 1 < len(bases) and bases[i + 1] < end:
            return bases[i + 1]
        return None

    def _insert(self, run: Run) -> None:
        i = bisect_right(self._bases[run.page_size], run.base)
        self._bases[run.page_size].insert(i, run.base)
        self._runs[run.page_size].insert(i, run)

    def _replace(self, run: Run, parts: List[Run]) -> None:
        """Swap *run* for *parts* (pieces of it, in address order)."""
        i = bisect_right(self._bases[run.page_size], run.base) - 1
        self._runs[run.page_size][i:i + 1] = parts
        self._bases[run.page_size][i:i + 1] = [p.base for p in parts]

    # -- mapping -----------------------------------------------------------
    def map(self, vaddr: int, paddr: int, page_size: int) -> PageView:
        """Install one leaf translation; *vaddr*/*paddr* must be aligned."""
        run = self.bulk_map(vaddr, (paddr,), page_size)
        return run.view((vaddr - run.base) // page_size)

    def bulk_map(self, vaddr: int, frames: Sequence[int], page_size: int) -> Run:
        """Install consecutive leaf translations starting at *vaddr*, one
        per physical frame in *frames*; returns the run now holding them.

        Pages mapped right after a run of their size extend it, so a
        growing mapping (``brk``) stays one run.
        """
        prev = self.find(page_size, vaddr - page_size)  # checks the size too
        new = frames if isinstance(frames, array) else array("Q", frames)
        if not new:
            raise ValueError("bulk_map needs at least one frame")
        if vaddr % page_size:
            raise ValueError(f"unaligned mapping {vaddr:#x} ({page_size} B page)")
        bad = first_bad_frame(new, page_size)
        if bad >= 0:
            raise ValueError(f"unaligned mapping {vaddr + bad * page_size:#x} -> "
                             f"{new[bad]:#x} ({page_size} B page)")
        end = vaddr + len(new) * page_size
        if page_size == PAGE_2M and self._first_mapped(PAGE_4K, vaddr, end) is not None:
            raise ValueError(f"{vaddr:#x} overlaps existing 4 KB mappings")
        clash = self._first_mapped(page_size, vaddr, end)
        if clash is not None:
            raise ValueError(f"{clash:#x} is already mapped")
        if prev is not None:
            prev.frames.extend(new)
            prev._breaks = None
            return prev
        run = Run(vaddr, page_size, array("Q", new))
        self._insert(run)
        return run

    def unmap_range(self, vaddr: int, length: int, page_size: int) -> array:
        """Remove the *page_size* leaves covering ``[vaddr, vaddr+length)``
        and return their frames in page order.

        All or nothing: every page must be mapped (else
        :class:`TranslationFault`, checked first) and none pinned (else
        ValueError), and both are checked before anything is removed.
        """
        if vaddr % page_size:
            raise ValueError(f"unaligned unmap {vaddr:#x} ({page_size} B page)")
        end = vaddr + length
        pieces = []
        cursor = vaddr
        while cursor < end:
            run = self.find(page_size, cursor)
            if run is None:
                raise TranslationFault(cursor)
            lo = (cursor - run.base) // page_size
            hi = min(run.n_pages, (end - run.base + page_size - 1) // page_size)
            pieces.append((run, lo, hi))
            cursor = run.vaddr(hi)
        for run, lo, hi in pieces:
            for seg_lo, _, count in run.pin_levels(lo, hi) if run.pins else ():
                if count > 0:
                    raise ValueError(f"cannot unmap pinned page {run.vaddr(seg_lo):#x}")
        freed = array("Q")
        for run, lo, hi in pieces:
            freed += run.frames[lo:hi]
            if lo and hi == run.n_pages:
                # shrinking from the top (brk) keeps the run in place
                del run.frames[lo:]
                run.pins = {i: d for i, d in run.pins.items() if i <= lo}
                run.cow = {i for i in run.cow if i < lo}
                run._breaks = None
            else:
                self._replace(run, [run.cut(a, b) for a, b in
                                    ((0, lo), (hi, run.n_pages)) if a < b])
        return freed

    def unmap(self, vaddr: int, page_size: int) -> PageView:
        """Remove one leaf translation; pinned pages may not be unmapped."""
        run = self.find(page_size, vaddr)
        if run is None:
            raise TranslationFault(vaddr)
        view = run.view((vaddr - run.base) // page_size)
        self.unmap_range(view.vaddr, page_size, page_size)
        return view

    def set_frame(self, vaddr: int, paddr: int) -> int:
        """Point the page at *vaddr* to frame *paddr* and end its CoW
        sharing (a Copy-on-Write copy); returns the old frame."""
        run = self.run_at(vaddr)
        if run is None:
            raise TranslationFault(vaddr)
        if paddr % run.page_size:
            raise ValueError(f"unaligned frame {paddr:#x} ({run.page_size} B page)")
        idx = (vaddr - run.base) // run.page_size
        old = run.frames[idx]
        run.frames[idx] = paddr
        run.cow.discard(idx)
        run._breaks = None
        return old

    def fork(self) -> "PageTable":
        """A copy of the table sharing every frame; all pages of both
        tables become Copy-on-Write."""
        child = PageTable()
        for run in self.runs():
            run.cow = set(range(run.n_pages))
            child._insert(Run(run.base, run.page_size, run.frames[:],
                              cow=set(run.cow)))
        return child

    # -- pinning -------------------------------------------------------------
    def pin(self, vaddr: int, length: int) -> List[Tuple[Run, int, int]]:
        """Pin every page covering ``[vaddr, vaddr+length)``; returns the
        :meth:`segments` it pinned (faults before pinning anything)."""
        segments = list(self.segments(vaddr, length))
        for run, lo, hi in segments:
            run.add_pins(lo, hi, 1)
        return segments

    def unpin(self, vaddr: int, length: int) -> None:
        """Unpin every page covering ``[vaddr, vaddr+length)``; raises
        :class:`PinError`, before changing anything, when one of them is
        not pinned."""
        segments = list(self.segments(vaddr, length))
        for run, lo, hi in segments:
            for seg_lo, _, count in run.pin_levels(lo, hi):
                if count < 1:
                    raise PinError(run.vaddr(seg_lo))
        for run, lo, hi in segments:
            run.add_pins(lo, hi, -1)

    # -- lookup ------------------------------------------------------------
    def run_at(self, vaddr: int) -> Optional[Run]:
        """The run whose leaf translates *vaddr* (hugepages win), or None."""
        run = self.find(PAGE_2M, vaddr)
        return run if run is not None else self.find(PAGE_4K, vaddr)

    def single_run(self, vaddr: int, nbytes: int) -> Optional[Tuple[Run, int, int]]:
        """``(run, first, last)`` when one run translates all of
        ``[vaddr, vaddr+nbytes)`` — pages ``first..last`` inclusive —
        else None (the caller then walks page by page)."""
        run = self.run_at(vaddr)
        end = vaddr + nbytes
        if run is None or end > run.end or (
                run.page_size == PAGE_4K
                and self._first_mapped(PAGE_2M, vaddr, end) is not None):
            return None  # off the run's end, or a hugepage leaf shadows it
        ps = run.page_size
        return run, (vaddr - run.base) // ps, (end - 1 - run.base) // ps

    def lookup(self, vaddr: int) -> PageView:
        """The leaf covering *vaddr* (hugepages win)."""
        run = self.run_at(vaddr)
        if run is None:
            raise TranslationFault(vaddr)
        return run.view((vaddr - run.base) // run.page_size)

    def try_lookup(self, vaddr: int) -> Optional[PageView]:
        """Like :meth:`lookup` but returns None instead of faulting."""
        run = self.run_at(vaddr)
        return None if run is None else run.view((vaddr - run.base) // run.page_size)

    def translate(self, vaddr: int) -> Tuple[int, int]:
        """Return ``(paddr, page_size)`` for *vaddr*."""
        run = self.run_at(vaddr)
        if run is None:
            raise TranslationFault(vaddr)
        off = vaddr - run.base
        return run.frames[off // run.page_size] + off % run.page_size, run.page_size

    def is_mapped(self, vaddr: int) -> bool:
        """True if *vaddr* has a translation."""
        return self.run_at(vaddr) is not None

    def walk_levels(self, vaddr: int) -> int:
        """Radix-walk depth needed to translate *vaddr* (miss cost input)."""
        return self.WALK_LEVELS[self.lookup(vaddr).page_size]

    # -- ranges -----------------------------------------------------------
    def segments(self, vaddr: int, length: int) -> Iterator[Tuple[Run, int, int]]:
        """The leaves covering ``[vaddr, vaddr+length)`` in address order,
        as ``(run, lo, hi)`` page-index ranges.  Lazy: faults only on
        reaching an unmapped address (the range start or a page base)."""
        if length <= 0:
            raise ValueError(f"non-positive length {length}")
        end = vaddr + length
        cursor = vaddr
        huge_bases = self._bases[PAGE_2M]
        while cursor < end:
            run = self.find(PAGE_2M, cursor)
            stop = end
            if run is None:
                run = self.find(PAGE_4K, cursor)
                if run is None:
                    raise TranslationFault(cursor)
                # stop where a hugepage leaf starts shadowing
                i = bisect_right(huge_bases, cursor)
                if i < len(huge_bases):
                    stop = min(stop, huge_bases[i])
            stop = min(stop, run.end)
            ps = run.page_size
            lo = (cursor - run.base) // ps
            hi = (stop - run.base + ps - 1) // ps
            yield run, lo, hi
            cursor = run.vaddr(hi)

    def pages_in_range(self, vaddr: int, length: int) -> Iterator[PageView]:
        """Yield a view of each leaf covering ``[vaddr, vaddr+length)`` in
        address order.  Faults if any byte of the range is unmapped."""
        for run, lo, hi in self.segments(vaddr, length):
            for seg_lo, seg_hi, count in run.pin_levels(lo, hi):
                for idx in range(seg_lo, seg_hi):
                    yield run.view(idx, count)

    def runs(self) -> Iterator[Run]:
        """All runs (4 KB then 2 MB, address order)."""
        yield from self._runs[PAGE_4K]
        yield from self._runs[PAGE_2M]

    def entries(self) -> Iterator[PageView]:
        """Views of all leaves (4 KB then 2 MB, address order)."""
        for run in self.runs():
            for lo, hi, count in run.pin_levels(0, run.n_pages):
                for idx in range(lo, hi):
                    yield run.view(idx, count)

    @property
    def n_small(self) -> int:
        """Number of 4 KB leaf entries."""
        return sum(run.n_pages for run in self._runs[PAGE_4K])

    @property
    def n_huge(self) -> int:
        """Number of 2 MB leaf entries."""
        return sum(run.n_pages for run in self._runs[PAGE_2M])

    # -- checkpointing -----------------------------------------------------
    def dump_runs(self) -> list:
        """Picklable state: one dict per run (4 KB then 2 MB, address
        order)."""
        return [{"page_size": run.page_size, "base": run.base,
                 "frames": run.frames.tobytes(),
                 "pins": sorted(run.pins.items()), "cow": sorted(run.cow)}
                for size in (PAGE_4K, PAGE_2M) for run in self._runs[size]]

    def load_runs(self, state: list) -> None:
        """Replace the table's contents with a :meth:`dump_runs` state."""
        self._runs = {PAGE_4K: [], PAGE_2M: []}
        self._bases = {PAGE_4K: [], PAGE_2M: []}
        for rec in state:
            self._insert(Run(rec["base"], rec["page_size"],
                             array("Q", rec["frames"]), dict(rec["pins"]),
                             set(rec["cow"])))
