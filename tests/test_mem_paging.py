"""Unit tests for page tables (repro.mem.paging)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mem.paging import PageTable, PinError, TranslationFault
from repro.mem.physical import PAGE_2M, PAGE_4K


@pytest.fixture
def pt():
    return PageTable()


class TestMapping:
    def test_map_and_translate_4k(self, pt):
        pt.map(0x1000, 0x20000, PAGE_4K)
        paddr, size = pt.translate(0x1234)
        assert paddr == 0x20234
        assert size == PAGE_4K

    def test_map_and_translate_2m(self, pt):
        pt.map(0, 0x200000, PAGE_2M)
        paddr, size = pt.translate(0x12345)
        assert paddr == 0x200000 + 0x12345
        assert size == PAGE_2M

    def test_unaligned_rejected(self, pt):
        with pytest.raises(ValueError):
            pt.map(0x1001, 0x2000, PAGE_4K)
        with pytest.raises(ValueError):
            pt.map(0x1000, 0x2001, PAGE_4K)

    def test_double_map_rejected(self, pt):
        pt.map(0x1000, 0x2000, PAGE_4K)
        with pytest.raises(ValueError):
            pt.map(0x1000, 0x3000, PAGE_4K)

    def test_bad_page_size_rejected(self, pt):
        with pytest.raises(ValueError):
            pt.map(0, 0, 8192)

    def test_huge_overlapping_small_rejected(self, pt):
        pt.map(0x1000, 0x2000, PAGE_4K)
        with pytest.raises(ValueError):
            pt.map(0, 0x200000, PAGE_2M)

    def test_counts(self, pt):
        pt.map(0x1000, 0x2000, PAGE_4K)
        pt.map(0x200000, 0x400000, PAGE_2M)
        assert pt.n_small == 1
        assert pt.n_huge == 1


class TestLookup:
    def test_fault_on_unmapped(self, pt):
        with pytest.raises(TranslationFault):
            pt.lookup(0xDEAD000)

    def test_try_lookup_returns_none(self, pt):
        assert pt.try_lookup(0xDEAD000) is None

    def test_is_mapped(self, pt):
        pt.map(0x1000, 0x2000, PAGE_4K)
        assert pt.is_mapped(0x1FFF)
        assert not pt.is_mapped(0x2000)

    def test_hugepage_wins_at_same_region(self, pt):
        pt.map(0x200000, 0x400000, PAGE_2M)
        entry = pt.lookup(0x200000 + 0x1000)
        assert entry.page_size == PAGE_2M

    def test_walk_levels(self, pt):
        pt.map(0x1000, 0x2000, PAGE_4K)
        pt.map(0x200000, 0x400000, PAGE_2M)
        assert pt.walk_levels(0x1000) == 4
        assert pt.walk_levels(0x200000) == 3


class TestUnmap:
    def test_unmap(self, pt):
        pt.map(0x1000, 0x2000, PAGE_4K)
        entry = pt.unmap(0x1000, PAGE_4K)
        assert entry.paddr == 0x2000
        assert not pt.is_mapped(0x1000)

    def test_unmap_missing_faults(self, pt):
        with pytest.raises(TranslationFault):
            pt.unmap(0x1000, PAGE_4K)

    def test_pinned_page_cannot_be_unmapped(self, pt):
        pt.map(0x1000, 0x2000, PAGE_4K)
        pt.pin(0x1000, PAGE_4K)
        with pytest.raises(ValueError):
            pt.unmap(0x1000, PAGE_4K)
        pt.unpin(0x1000, PAGE_4K)
        pt.unmap(0x1000, PAGE_4K)

    def test_shrunk_then_regrown_run_starts_clean(self, pt):
        """brk shrinks a run from the top and grows it again: the new
        pages must not inherit pins or CoW state from the old ones."""
        base = 0x10000
        pt.bulk_map(base, [0x100000 + i * 3 * PAGE_4K for i in range(8)], PAGE_4K)
        pt.pin(base, 4 * PAGE_4K)  # the pin interval ends at page 4
        pt.fork()  # every page CoW
        pt.unmap_range(base + 4 * PAGE_4K, 4 * PAGE_4K, PAGE_4K)
        pt.bulk_map(base + 4 * PAGE_4K, [0x900000, 0x901000], PAGE_4K)
        views = list(pt.pages_in_range(base, 6 * PAGE_4K))
        assert [v.pin_count for v in views] == [1, 1, 1, 1, 0, 0]
        assert [v.cow for v in views] == [True] * 4 + [False] * 2


class TestRangeIteration:
    def test_pages_in_range_4k(self, pt):
        for i in range(4):
            pt.map(0x1000 + i * PAGE_4K, 0x10000 + i * PAGE_4K, PAGE_4K)
        entries = list(pt.pages_in_range(0x1800, 2 * PAGE_4K))
        assert [e.vaddr for e in entries] == [0x1000, 0x2000, 0x3000]

    def test_pages_in_range_mixed_fault(self, pt):
        pt.map(0x1000, 0x2000, PAGE_4K)
        with pytest.raises(TranslationFault):
            list(pt.pages_in_range(0x1000, 3 * PAGE_4K))

    def test_pages_in_range_huge(self, pt):
        pt.map(0x200000, 0x400000, PAGE_2M)
        pt.map(0x400000, 0x800000, PAGE_2M)
        entries = list(pt.pages_in_range(0x200000 + 5, PAGE_2M))
        assert [e.vaddr for e in entries] == [0x200000, 0x400000]

    def test_non_positive_length_rejected(self, pt):
        pt.map(0x1000, 0x2000, PAGE_4K)
        with pytest.raises(ValueError):
            list(pt.pages_in_range(0x1000, 0))


class TestRunsMatchPerPageModel:
    """The run representation against the simplest possible model: a
    dict per page size of ``vaddr -> [paddr, pin_count, cow]``.  The 4 KB
    work stays inside 64 pages straddling the 2 MB boundary, so
    operations collide often; hugepages go in the slots at 0 and 2 MB,
    next to or shadowing them."""

    N_SMALL = 64
    LOW = PAGE_2M - 32 * PAGE_4K  # the first 4 KB page

    @staticmethod
    def _model_lookup(model, vaddr):
        huge = model[PAGE_2M].get(vaddr - vaddr % PAGE_2M)
        if huge is not None:
            return vaddr - vaddr % PAGE_2M, PAGE_2M, huge
        small = model[PAGE_4K].get(vaddr - vaddr % PAGE_4K)
        if small is None:
            return None
        return vaddr - vaddr % PAGE_4K, PAGE_4K, small

    def _check(self, pt, model):
        expect = [(v, *e, ps) for ps in (PAGE_4K, PAGE_2M)
                  for v, e in sorted(model[ps].items())]
        got = [(e.vaddr, e.paddr, e.pin_count, e.cow, e.page_size)
               for e in pt.entries()]
        assert got == expect
        assert pt.n_small == len(model[PAGE_4K])
        assert pt.n_huge == len(model[PAGE_2M])
        probes = [self.LOW + i * PAGE_4K + 123 for i in range(-1, self.N_SMALL + 1)]
        for vaddr in probes + [5, 2 * PAGE_2M - 1]:
            hit = self._model_lookup(model, vaddr)
            if hit is None:
                assert pt.try_lookup(vaddr) is None
                continue
            base, ps, (paddr, pins, cow) = hit
            assert pt.lookup(vaddr) == (base, paddr, ps, pins, cow)
            assert pt.translate(vaddr) == (paddr + vaddr - base, ps)
        for run in pt.runs():
            # the cached adjacency prefix must follow every frame change
            assert not run.breaks_stale()
            run.restarts(0, run.n_pages - 1)

    @given(st.booleans(), st.lists(st.tuples(
        st.sampled_from(["map4k", "map4k", "map2m", "unmap", "pin", "pin",
                         "unpin", "unpin", "frame", "fork"]),
        st.integers(0, N_SMALL // 4 - 1).map(lambda i: 4 * i + i % 3),
        st.integers(1, 8)), max_size=40))
    @settings(max_examples=300, deadline=None)
    # a hole after a pinned page: the missing page is reported, not the pin
    @example(False, [("unmap", 24, 1), ("pin", 17, 6), ("unmap", 22, 3)])
    def test_random_operation_sequences(self, huge_first, ops):
        pt = PageTable()
        model = {PAGE_4K: {}, PAGE_2M: {}}
        if huge_first:  # the upper half of the 4 KB pages is shadowed
            pt.map(PAGE_2M, 4 * PAGE_2M, PAGE_2M)
            model[PAGE_2M][PAGE_2M] = [4 * PAGE_2M, 0, False]
        # start from one 64-page run so most operations land on pages;
        # its frames come in physically contiguous fours
        start = [8 * PAGE_2M + (i + i // 4) * PAGE_4K for i in range(self.N_SMALL)]
        pt.bulk_map(self.LOW, start, PAGE_4K)
        for i, f in enumerate(start):
            model[PAGE_4K][self.LOW + i * PAGE_4K] = [f, 0, False]
        next_frame = [16 * PAGE_2M]
        for op, page, n in ops:
            vaddr = self.LOW + page * PAGE_4K
            n = min(n, self.N_SMALL - page)
            if op in ("map4k", "map2m"):
                ps = PAGE_4K if op == "map4k" else PAGE_2M
                if ps == PAGE_2M:
                    vaddr, n = (page % 2) * PAGE_2M, 1
                bases = [vaddr + i * ps for i in range(n)]
                clash = any(b in model[ps] for b in bases) or (
                    ps == PAGE_2M and any(vaddr <= s < vaddr + ps
                                          for s in model[PAGE_4K]))
                # scattered frames; the next allocation stays 2 MB aligned
                frames = [next_frame[0] + i * 3 * ps for i in range(n)]
                next_frame[0] += -(-3 * ps * n // PAGE_2M) * PAGE_2M
                if clash:
                    with pytest.raises(ValueError):
                        pt.bulk_map(vaddr, frames, ps)
                else:
                    pt.bulk_map(vaddr, frames, ps)
                    for b, f in zip(bases, frames):
                        model[ps][b] = [f, 0, False]
            elif op == "unmap":
                bases = [vaddr + i * PAGE_4K for i in range(n)]
                entries = [model[PAGE_4K].get(b) for b in bases]
                if any(e is None for e in entries):
                    with pytest.raises(TranslationFault):
                        pt.unmap_range(vaddr, n * PAGE_4K, PAGE_4K)
                elif any(e[1] for e in entries):
                    with pytest.raises(ValueError, match="pinned"):
                        pt.unmap_range(vaddr, n * PAGE_4K, PAGE_4K)
                else:
                    freed = pt.unmap_range(vaddr, n * PAGE_4K, PAGE_4K)
                    assert list(freed) == [e[0] for e in entries]
                    for b in bases:
                        del model[PAGE_4K][b]
            elif op in ("pin", "unpin"):
                length = n * PAGE_4K - 7
                hits, cursor = [], vaddr
                while cursor < vaddr + length:
                    hit = self._model_lookup(model, cursor)
                    if hit is None:
                        break
                    hits.append(hit[2])
                    cursor = hit[0] + hit[1]
                if cursor < vaddr + length:
                    with pytest.raises(TranslationFault):
                        getattr(pt, op)(vaddr, length)
                elif op == "unpin" and any(e[1] < 1 for e in hits):
                    with pytest.raises(PinError):
                        pt.unpin(vaddr, length)
                else:
                    getattr(pt, op)(vaddr, length)
                    for e in hits:
                        e[1] += 1 if op == "pin" else -1
            elif op == "frame":  # a Copy-on-Write copy moves one page
                hit = self._model_lookup(model, vaddr)
                if hit is None:
                    with pytest.raises(TranslationFault):
                        pt.set_frame(vaddr, next_frame[0])
                else:
                    assert pt.set_frame(vaddr, next_frame[0]) == hit[2][0]
                    hit[2][0], hit[2][2] = next_frame[0], False
                next_frame[0] += PAGE_2M
            else:  # fork: parent and child share every page CoW
                child = pt.fork()
                for table in model.values():
                    for e in table.values():
                        e[2] = True
                assert [v._replace(pin_count=0) for v in pt.entries()] == \
                    list(child.entries())
            self._check(pt, model)
