"""Virtual-memory substrate.

Models the pieces of the Linux memory system the paper's placement
strategies interact with:

- :mod:`repro.mem.physical` — physical memory as pools of 4 KB frames and
  2 MB hugepage frames (with realistic fragmentation of the 4 KB pool).
- :mod:`repro.mem.paging` — page tables and page-walk costing.
- :mod:`repro.mem.address_space` — per-process VMAs, ``mmap``/``brk``.
- :mod:`repro.mem.hugetlbfs` — the HugeTLBfs hugepage pool with the
  fork/Copy-on-Write reserve the paper's mapping layer must keep.
- :mod:`repro.mem.tlb` — a split TLB (separate 4 KB / 2 MB entry arrays,
  like the AMD Opteron's 544 vs 8 entries).
- :mod:`repro.mem.cache` — data cache + hardware prefetcher model whose
  effectiveness depends on *physical* contiguity.
- :mod:`repro.mem.access` — a timed memory-access engine combining all of
  the above into per-operation tick costs.
"""

from repro.mem.physical import (
    PAGE_4K,
    PAGE_2M,
    OutOfMemoryError,
    PhysicalMemory,
)
from repro.mem.paging import PageTable, PageView, Run
from repro.mem.address_space import AddressSpace, VMA, MappingError
from repro.mem.hugetlbfs import HugeTLBfs, HugePagePoolExhausted
from repro.mem.tlb import SplitTLB, TLBConfig
from repro.mem.cache import CacheConfig, DataCache, Prefetcher
from repro.mem.access import AccessCost, MemoryAccessEngine

__all__ = [
    "AccessCost",
    "AddressSpace",
    "CacheConfig",
    "DataCache",
    "HugePagePoolExhausted",
    "HugeTLBfs",
    "MappingError",
    "MemoryAccessEngine",
    "OutOfMemoryError",
    "PAGE_2M",
    "PAGE_4K",
    "PageTable",
    "PageView",
    "PhysicalMemory",
    "Prefetcher",
    "Run",
    "SplitTLB",
    "TLBConfig",
    "VMA",
]
