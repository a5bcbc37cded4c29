"""Memory registration: pin, translate, upload (§3 of the paper).

    "three important steps have to be done:
     1. All pages of the communication buffer have to stay in memory and
        must be pinned.
     2. The virtual start address of each page has to be translated into
        a physical one.
     3. The address translations have to be sent to the NIC."

Each step's cost is per *page* (steps 1-2, at the kernel's real page
granularity) or per *translation entry* (step 3, at the granularity the
driver chose — see :mod:`repro.ib.driver`).  A 4 MB buffer costs 1024
pin+translate+upload units on base pages but only 2 on hugepages with the
patched driver, which is the mechanism behind the paper's "memory
registration time decreased extremely (down to 1 % of the time as with
small pages)" (§5.1).

Deregistration unpins and drops the adapter-side entries; the ATT cache
invalidates that region.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

from repro import fastpath, sanitize
from repro.analysis.counters import CounterSet
from repro.faults import (
    FaultInjector,
    PermanentRegistrationError,
    TransientRegistrationError,
)
from repro.ib.att import ATTCache
from repro.ib.driver import OpenIBDriver
from repro.ib.verbs import IBVerbsError, MemoryRegion, ProtectionDomain
from repro.mem.address_space import AddressSpace
from repro.mem.paging import PinError
from repro.mem.physical import PAGE_2M, PAGE_4K

_keys = itertools.count(0x1000)


@dataclass(frozen=True)
class RegistrationCosts:
    """Per-step costs (ns), sized to era measurements (~90 µs/MB on
    base pages for large buffers, dominated by per-page work)."""

    base_ns: float = 15_000.0
    per_4k_pin_ns: float = 180.0
    per_2m_pin_ns: float = 420.0
    per_page_translate_ns: float = 80.0
    per_entry_upload_ns: float = 60.0
    dereg_base_ns: float = 8_000.0
    per_entry_dereg_ns: float = 25.0

    def pin_ns(self, page_size: int) -> float:
        """Pinning cost for one page of *page_size*."""
        if page_size == PAGE_4K:
            return self.per_4k_pin_ns
        if page_size == PAGE_2M:
            return self.per_2m_pin_ns
        raise ValueError(f"unsupported page size {page_size}")


class RegistrationEngine:
    """Registers/deregisters user buffers against one HCA."""

    def __init__(
        self,
        driver: OpenIBDriver,
        att: ATTCache,
        costs: Optional[RegistrationCosts] = None,
        counters: Optional[CounterSet] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.driver = driver
        self.att = att
        self.costs = costs if costs is not None else RegistrationCosts()
        self.counters = counters if counters is not None else CounterSet()
        self.faults = faults if (faults is not None and faults.active) else None

    def register(
        self,
        aspace: AddressSpace,
        pd: ProtectionDomain,
        vaddr: int,
        length: int,
    ) -> Tuple[MemoryRegion, float]:
        """Register ``[vaddr, vaddr+length)``; returns ``(MR, cost_ns)``.

        The whole range must be mapped (HPC apps touch buffers before
        sending; demand-fault-during-registration is out of scope).
        """
        if length <= 0:
            raise IBVerbsError(f"registration length must be positive, got {length}")
        if self.faults is not None:
            # decide before pinning anything, so a failed registration
            # leaves no pinned pages behind
            outcome = self.faults.registration_outcome()
            if outcome == "permanent":
                raise PermanentRegistrationError(
                    f"registration of [{vaddr:#x}+{length}] failed permanently "
                    "(adapter translation table exhausted)"
                )
            if outcome == "transient":
                raise TransientRegistrationError(
                    f"registration of [{vaddr:#x}+{length}] failed transiently "
                    "(driver resource shortage; retry may succeed)"
                )
        table = aspace.page_table
        costs = self.costs
        ns = costs.base_ns
        # step 1: pin (faults before pinning anything if the range is
        # not wholly mapped) + step 2: translate, per real kernel page
        segments = table.pin(vaddr, length)
        if fastpath.enabled():
            extents = [(run.page_size, hi - lo) for run, lo, hi in segments]
            for page_size, n in extents:
                ns += n * (costs.pin_ns(page_size) + costs.per_page_translate_ns)
        else:
            extents = []
            for page in table.pages_in_range(vaddr, length):
                ns += costs.pin_ns(page.page_size)
                ns += costs.per_page_translate_ns
                extents.append((page.page_size, 1))
        n_pages = sum(n for _, n in extents)
        # step 3: upload translations at the driver's chosen granularity
        entry_page_size, n_entries = self.driver.plan_entries(extents)
        ns += n_entries * costs.per_entry_upload_ns
        first_run, first_idx, _ = segments[0]
        mr = MemoryRegion(
            mr_id=next(_keys),
            pd=pd,
            vaddr=vaddr,
            length=length,
            entry_page_size=entry_page_size,
            n_entries=n_entries,
            base=first_run.vaddr(first_idx),
            lkey=next(_keys),
            rkey=next(_keys),
        )
        self.counters.add("reg.register")
        self.counters.add("reg.entries_uploaded", n_entries)
        self.counters.add("reg.pages_pinned", n_pages)
        san = sanitize._active
        if san is not None and san.mr:
            san.on_register(mr, aspace)
        return mr, ns

    def deregister(self, aspace: AddressSpace, mr: MemoryRegion) -> float:
        """Deregister *mr*; returns the cost in ns."""
        if not mr.registered:
            raise IBVerbsError(f"MR {mr.mr_id} already deregistered")
        ns = self.costs.dereg_base_ns + mr.n_entries * self.costs.per_entry_dereg_ns
        try:
            aspace.page_table.unpin(mr.vaddr, mr.length)
        except PinError as err:
            raise IBVerbsError(
                f"unpin of page {err.vaddr:#x} that is not pinned"
            ) from None
        self.att.invalidate_region(mr.mr_id)
        mr.registered = False
        self.counters.add("reg.deregister")
        san = sanitize._active
        if san is not None and san.mr:
            san.on_deregister(mr)
        return ns
