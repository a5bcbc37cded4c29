"""Unit tests for the ATT cache (repro.ib.att)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import fastpath
from repro.analysis import CounterSet
from repro.engine import SimKernel
from repro.ib.att import ATTCache, ATTConfig
from repro.ib.verbs import MemoryRegion, ProtectionDomain
from repro.systems import presets
from repro.systems.machine import Machine


@pytest.fixture
def att():
    return ATTCache(ATTConfig(entries=4, fetch_ns=100.0))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ATTConfig(entries=0)
        with pytest.raises(ValueError):
            ATTConfig(fetch_ns=-1.0)


class TestAccess:
    def test_miss_then_hit(self, att):
        hit, ns = att.access(1, 0)
        assert not hit and ns == 100.0
        hit, ns = att.access(1, 0)
        assert hit and ns == 0.0

    def test_distinct_regions_distinct_entries(self, att):
        att.access(1, 0)
        hit, _ = att.access(2, 0)
        assert not hit

    def test_lru_eviction(self, att):
        for i in range(4):
            att.access(1, i)
        att.access(1, 0)  # refresh entry 0
        att.access(1, 99)  # evicts entry 1
        assert att.access(1, 0)[0] is True
        assert att.access(1, 1)[0] is False

    def test_counters(self):
        counters = CounterSet()
        att = ATTCache(ATTConfig(), counters)
        att.access(1, 0)
        att.access(1, 0)
        assert counters["att.miss"] == 1
        assert counters["att.hit"] == 1


class TestStreamStall:
    """Sequential sweeps through :meth:`ATTCache.sweep_range`; the stall
    is ``misses * fetch_ns``."""

    @staticmethod
    def stall_ns(att, mr_id, first_entry, n_entries):
        _, misses = att.sweep_range(mr_id, first_entry, n_entries)
        return misses * att.config.fetch_ns

    def test_cold_stream_all_misses(self, att):
        ns = self.stall_ns(att, 1, 0, 3)
        assert ns == 300.0

    def test_warm_small_stream_free(self, att):
        self.stall_ns(att, 1, 0, 3)
        assert self.stall_ns(att, 1, 0, 3) == 0.0

    def test_large_stream_thrashes(self, att):
        """More entries than the cache holds: every pass re-misses —
        the 4 KB-translation behaviour behind the Xeon result."""
        self.stall_ns(att, 1, 0, 100)
        ns = self.stall_ns(att, 1, 0, 100)
        assert ns == 100 * 100.0

    def test_negative_rejected(self, att):
        with pytest.raises(ValueError):
            att.sweep_range(1, 0, -1)


class TestInvalidation:
    def test_invalidate_region(self, att):
        att.access(1, 0)
        att.access(1, 1)
        att.access(2, 0)
        dropped = att.invalidate_region(1)
        assert dropped == 2
        assert att.resident == 1
        assert att.access(2, 0)[0] is True

    def test_flush(self, att):
        att.access(1, 0)
        att.flush()
        assert att.resident == 0


# ---------------------------------------------------------------------------
# HCA._att_range_ns against the closed-form LRU stack-distance rule
# ---------------------------------------------------------------------------
KB = 1024
MB = 1024 * 1024

#: (entry page size, translation entries) of the oracle's regions: 4 KB
#: translations from the stock driver, 2 MB ones from the patched driver
_MR_SHAPES = ((4 * KB, 48), (2 * MB, 6), (4 * KB, 20), (2 * MB, 3))


def _regions():
    """Registered-looking regions, each at its own entry-aligned base."""
    regions = []
    for i, (page, n_entries) in enumerate(_MR_SHAPES):
        base = (i + 1) << 32
        regions.append(MemoryRegion(
            mr_id=100 + i, pd=ProtectionDomain.fresh(), vaddr=base,
            length=page * n_entries, entry_page_size=page,
            n_entries=n_entries, base=base, lkey=1000 + i, rkey=2000 + i))
    return regions


def _hca(capacity, fetch_ns):
    hca = Machine(SimKernel(), presets.opteron_infinihost_pcie()).hca
    hca.att = ATTCache(ATTConfig(entries=capacity, fetch_ns=fetch_ns))
    return hca


class StackDistanceOracle:
    """Infinite LRU stack: an entry hits iff fewer than *capacity*
    distinct entries were touched since its last use."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.stack = []  # least recently used first

    def sweep(self, mr, addr, nbytes):
        misses = 0
        for entry in mr.entries_for(addr, nbytes):
            key = (mr.mr_id, entry)
            if key in self.stack:
                distance = len(self.stack) - 1 - self.stack.index(key)
                misses += distance >= self.capacity
                self.stack.remove(key)
            else:
                misses += 1
            self.stack.append(key)
        return misses

    def resident(self):
        return self.stack[-self.capacity:]


_sweep = st.tuples(st.integers(0, len(_MR_SHAPES) - 1),
                   st.floats(0.0, 1.0), st.floats(0.0, 1.0))


def _span(mr, start_frac, len_frac):
    """A DMA range inside *mr* from two fractions of its length."""
    start = mr.vaddr + int(start_frac * (mr.length - 1))
    nbytes = 1 + int(len_frac * (mr.vaddr + mr.length - start - 1))
    return start, nbytes


class TestATTRangeOracle:
    @pytest.mark.parametrize("fast", [True, False])
    @settings(max_examples=60, deadline=None)
    @given(capacity=st.integers(1, 24),
           fetch_ns=st.sampled_from([250.0, 137.5, 1.0]),
           sweeps=st.lists(_sweep, min_size=1, max_size=25))
    def test_matches_stack_distance_rule(self, fast, capacity, fetch_ns, sweeps):
        hca, oracle, mrs = _hca(capacity, fetch_ns), StackDistanceOracle(capacity), _regions()
        with fastpath.forced(fast):
            for which, start_frac, len_frac in sweeps:
                mr = mrs[which]
                addr, nbytes = _span(mr, start_frac, len_frac)
                misses = oracle.sweep(mr, addr, nbytes)
                assert hca._att_range_ns(mr, addr, nbytes) == misses * fetch_ns
        assert hca.att.dump_state() == oracle.resident()

    @pytest.mark.parametrize("fast", [True, False])
    def test_cold_sweep_costs_every_entry(self, fast):
        hca, mr = _hca(8, 250.0), _regions()[0]
        with fastpath.forced(fast):
            assert hca._att_range_ns(mr, mr.vaddr, mr.length) == 48 * 250.0
        assert hca.att.dump_state() == [(mr.mr_id, i) for i in range(40, 48)]

    @pytest.mark.parametrize("fast", [True, False])
    def test_repeat_within_capacity_is_free(self, fast):
        hca, (small, huge, *_) = _hca(16, 250.0), _regions()
        with fastpath.forced(fast):
            # 10 x 4 KB entries + 6 x 2 MB entries = 16 = capacity
            assert hca._att_range_ns(small, small.vaddr, 40 * KB) == 10 * 250.0
            assert hca._att_range_ns(huge, huge.vaddr, huge.length) == 6 * 250.0
            assert hca._att_range_ns(small, small.vaddr + 4 * KB, 36 * KB) == 0.0
            assert hca._att_range_ns(huge, huge.vaddr + MB, 3 * MB) == 0.0
