"""Tests for fork/Copy-on-Write — the reason for the fork reserve (§3.1)."""

import pytest

from repro.alloc import HugepageLibraryAllocator, HugepageLibraryConfig
from repro.core import preload_hugepage_library
from repro.engine import SimKernel
from repro.ib.verbs import ProtectionDomain
from repro.mem import (
    AddressSpace,
    HugePagePoolExhausted,
    HugeTLBfs,
    MappingError,
    PAGE_2M,
    PAGE_4K,
    PhysicalMemory,
)
from repro.systems import Machine, presets

MB = 1024 * 1024


@pytest.fixture
def pm():
    return PhysicalMemory(256 * MB, hugepages=8)


@pytest.fixture
def aspace(pm):
    return AddressSpace(pm, HugeTLBfs(pm))


class TestAddressSpaceFork:
    def test_child_sees_same_layout(self, aspace):
        vma = aspace.mmap(4 * PAGE_4K)
        child = aspace.fork()
        assert child.find_vma(vma.start).length == vma.length
        # identical translation before any write
        assert child.translate(vma.start) == aspace.translate(vma.start)

    def test_fork_allocates_nothing(self, aspace, pm):
        aspace.mmap(16 * PAGE_4K)
        aspace.mmap(2 * PAGE_2M, page_size=PAGE_2M)
        small_before = pm.free_small_frames
        huge_before = pm.free_hugepages
        aspace.fork()
        assert pm.free_small_frames == small_before
        assert pm.free_hugepages == huge_before

    def test_write_fault_copies_4k(self, aspace, pm):
        vma = aspace.mmap(PAGE_4K)
        child = aspace.fork()
        before = pm.free_small_frames
        assert child.write_fault(vma.start)
        assert pm.free_small_frames == before - 1
        # diverged: different frames now
        assert child.translate(vma.start)[0] != aspace.translate(vma.start)[0]
        # a second write is not a fault
        assert not child.write_fault(vma.start)

    def test_write_fault_copies_hugepage_from_pool(self, aspace, pm):
        vma = aspace.mmap(PAGE_2M, page_size=PAGE_2M)
        child = aspace.fork()
        before = pm.free_hugepages
        assert child.write_fault(vma.start)
        assert pm.free_hugepages == before - 1

    def test_cow_fault_fails_on_empty_pool(self, aspace, pm):
        """The §3.1 hazard: no reserve -> the child's first write dies."""
        vma = aspace.mmap(pm.free_hugepages * PAGE_2M, page_size=PAGE_2M)
        child = aspace.fork()  # pool now empty, all pages shared
        with pytest.raises(HugePagePoolExhausted):
            child.write_fault(vma.start)

    def test_library_reserve_saves_the_fork(self, pm):
        """With the mapping layer's fork reserve, the same scenario
        leaves pages for the CoW fault."""
        aspace = AddressSpace(pm, HugeTLBfs(pm))
        lib = HugepageLibraryAllocator(
            aspace, config=HugepageLibraryConfig(fork_reserve_pages=2)
        )
        # a pool-sized request falls back to base pages (reserve kept)
        spill = lib.malloc(8 * PAGE_2M)
        assert not lib.is_hugepage_backed(spill)
        buf = lib.malloc(6 * PAGE_2M)  # reserve of 2 survives
        child = aspace.fork()
        assert child.write_fault(buf)  # CoW succeeds from the reserve
        assert child.write_fault(buf + PAGE_2M)

    def test_shared_frames_not_double_freed(self, aspace, pm):
        vma = aspace.mmap(4 * PAGE_4K)
        small_baseline = pm.free_small_frames
        child = aspace.fork()
        child.munmap(vma.start)  # child drops its refs
        assert pm.free_small_frames == small_baseline  # parent still owns
        paddr, _ = aspace.translate(vma.start)  # parent still mapped
        aspace.munmap(vma.start)
        assert pm.free_small_frames == small_baseline + 4

    def test_fork_with_pinned_pages_refused(self, aspace):
        """The classic InfiniBand fork hazard is an explicit error."""
        machine = Machine(SimKernel(), presets.opteron_infinihost_pcie())
        proc = machine.new_process()
        vma = proc.aspace.mmap(PAGE_4K)
        machine.reg_engine.register(proc.aspace, ProtectionDomain.fresh(),
                                    vma.start, PAGE_4K)
        with pytest.raises(MappingError, match="pinned"):
            proc.aspace.fork()

    def test_parent_write_also_faults(self, aspace):
        vma = aspace.mmap(PAGE_4K)
        original, _ = aspace.translate(vma.start)
        child = aspace.fork()
        assert aspace.write_fault(vma.start)  # parent copies too
        # the child's page keeps the original frame; the parent's moved
        assert child.translate(vma.start)[0] == original
        assert aspace.translate(vma.start)[0] != original
        assert not aspace.page_table.lookup(vma.start).cow
        assert aspace.physical.shared_owners(original) == 1


class TestOSProcessFork:
    def test_fork_produces_working_child(self):
        machine = Machine(SimKernel(), presets.opteron_infinihost_pcie())
        parent = machine.new_process("parent")
        handle = preload_hugepage_library(parent)
        buf = parent.malloc(2 * MB)
        child = parent.fork()
        assert child in machine.processes
        assert child.aspace is not parent.aspace
        # child can read the inherited buffer (same translation)
        assert child.aspace.translate(buf) == parent.aspace.translate(buf)
        # child can run its own allocations
        p = child.malloc(64 * 1024)
        assert child.aspace.translate(p)

    def test_child_counters_fresh(self):
        machine = Machine(SimKernel(), presets.opteron_infinihost_pcie())
        parent = machine.new_process()
        buf = parent.malloc(1 * MB)
        parent.engine.stream(buf, 1 * MB)
        child = parent.fork()
        assert child.counters.get("tlb.4k.miss") == 0
