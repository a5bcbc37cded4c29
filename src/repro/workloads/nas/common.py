"""Shared infrastructure for the mini NAS kernels.

The paper's Fig 6 setup: "We benchmarked 2 nodes with 4 processes each,
so that we had an overall process count of 8. ... we did not only
preload our library for hugepage tests ..." — :func:`run_nas` reproduces
exactly that: 2 nodes × ppn ranks, optionally preloading the hugepage
library onto every rank before the kernel starts, mpiP-style profiling,
and PAPI-style counter collection.

Modelling notes (also recorded in DESIGN.md):

- Each kernel allocates its large arrays through the rank's *active
  allocator* (``proc.malloc``), so the hugepage library's placement
  policy — not the benchmark — decides page sizes.
- Per-iteration temporaries are malloc'd and freed every iteration, the
  Fortran workspace churn of the originals.  Under libc these cycle
  through ``mmap``/``munmap`` (invalidating the MPI registration cache);
  under the hugepage library the same virtual range is reused and cached
  registrations stay warm — the paper's "more effective memory
  registration" channel for communication improvement.
- Compute phases run on the timed memory-access engine against the
  really-allocated addresses; per-kernel phase mixes (stream vs rotation
  vs random) encode each kernel's access personality and drive both the
  prefetch benefit and the §5.2 TLB-miss behaviour.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

from repro.core.library import preload_hugepage_library
from repro.faults import FaultPlan
from repro.mpi.api import MPIConfig, MPIWorld
from repro.systems.machine import Cluster, MachineSpec

MB = 1024 * 1024
KB = 1024

#: one memo per live run, dropped with the run's world
_PER_RUN: "weakref.WeakKeyDictionary[MPIWorld, dict]" = weakref.WeakKeyDictionary()


def per_run(comm, fn: Callable[..., Any], *args) -> Any:
    """``fn(*args)``, computed once per run and shared read-only by every
    rank of *comm*'s world (host-side and untimed, so no tick moves).
    The result must not refer to the world."""
    memo = _PER_RUN.setdefault(comm.world, {})
    key = (fn, *args)
    if key not in memo:
        memo[key] = fn(*args)
    return memo[key]


@dataclass
class NASRunResult:
    """Aggregated outcome of one kernel run on one configuration."""

    kernel: str
    klass: str
    machine: str
    hugepages: bool
    #: slowest rank's wall ticks (the job's runtime)
    total_ticks: int
    #: mean per-rank MPI time
    comm_ticks: float
    #: mean per-rank non-MPI time
    compute_ticks: float
    #: every rank's numerical check passed
    verified: bool
    #: aggregate data TLB misses (4 KB / 2 MB arrays)
    tlb_misses_4k: int
    tlb_misses_2m: int
    #: aggregate registration-cache behaviour
    regcache_hits: int
    regcache_misses: int

    @property
    def tlb_misses_total(self) -> int:
        """All data TLB misses, both page sizes."""
        return self.tlb_misses_4k + self.tlb_misses_2m


def run_nas(
    program: Callable,
    spec: MachineSpec,
    hugepages: bool,
    klass: str = "W",
    ppn: int = 4,
    n_nodes: int = 2,
    lazy_dereg: bool = True,
    nas_hugepage_pool: Optional[int] = None,
    cluster_sink: Optional[list] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> NASRunResult:
    """Run one NAS kernel program under one placement configuration.

    *program* is a kernel module's ``program(comm, klass)``; it must
    return a dict containing at least ``verified`` (bool).
    *cluster_sink*, when given, receives the finished cluster (the
    checkpoint/audit harness reads its tick count and invariants; the
    result dataclass itself stays plain and picklable).
    """
    if nas_hugepage_pool is not None:
        spec = replace(spec, hugepages=nas_hugepage_pool)
    cluster = Cluster(spec, n_nodes=n_nodes, fault_plan=fault_plan)
    world = MPIWorld(cluster, ppn=ppn, config=MPIConfig(lazy_dereg=lazy_dereg))

    def rank_program(comm):
        if hugepages:
            preload_hugepage_library(comm.proc)
        return (yield from program(comm, klass))

    results = world.run(rank_program)
    if cluster_sink is not None:
        cluster_sink.append(cluster)
    verified = all(r.value.get("verified", False) for r in results)
    counters = cluster.aggregate_counters()
    name = getattr(program, "kernel_name", program.__module__.rsplit(".", 1)[-1])
    return NASRunResult(
        kernel=name.upper().strip("_"),
        klass=klass,
        machine=spec.name,
        hugepages=hugepages,
        total_ticks=max(r.app_ticks for r in results),
        comm_ticks=sum(r.profiler.comm_ticks for r in results) / len(results),
        compute_ticks=sum(r.profiler.compute_ticks for r in results) / len(results),
        verified=verified,
        tlb_misses_4k=counters.get("tlb.4k.miss", 0),
        tlb_misses_2m=counters.get("tlb.2m.miss", 0),
        regcache_hits=counters.get("regcache.hit", 0),
        regcache_misses=counters.get("regcache.miss", 0),
    )


@dataclass
class HugepageComparison:
    """Small-pages vs hugepages, the Fig 6 decomposition for one kernel."""

    kernel: str
    machine: str
    small: NASRunResult
    huge: NASRunResult

    @property
    def comm_improvement_pct(self) -> float:
        """Communication-time improvement (positive = hugepages faster)."""
        if self.small.comm_ticks == 0:
            return 0.0
        return (1.0 - self.huge.comm_ticks / self.small.comm_ticks) * 100.0

    @property
    def other_improvement_pct(self) -> float:
        """Computation-time ('other') improvement."""
        if self.small.compute_ticks == 0:
            return 0.0
        return (1.0 - self.huge.compute_ticks / self.small.compute_ticks) * 100.0

    @property
    def overall_improvement_pct(self) -> float:
        """Total-runtime improvement."""
        return (1.0 - self.huge.total_ticks / self.small.total_ticks) * 100.0

    @property
    def tlb_miss_ratio(self) -> float:
        """TLB misses with hugepages relative to small pages (>1 = more
        misses with hugepages, the §5.2 observation)."""
        if self.small.tlb_misses_total == 0:
            return float("inf")
        return self.huge.tlb_misses_total / self.small.tlb_misses_total


def compare_hugepages(
    program: Callable,
    spec: MachineSpec,
    klass: str = "W",
    ppn: int = 4,
    n_nodes: int = 2,
    nas_hugepage_pool: Optional[int] = None,
    cluster_sink: Optional[list] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> HugepageComparison:
    """Run one kernel twice (small pages, then the preloaded library)
    on fresh identical clusters and decompose the improvement."""
    small = run_nas(program, spec, hugepages=False, klass=klass, ppn=ppn,
                    n_nodes=n_nodes, nas_hugepage_pool=nas_hugepage_pool,
                    cluster_sink=cluster_sink, fault_plan=fault_plan)
    huge = run_nas(program, spec, hugepages=True, klass=klass, ppn=ppn,
                   n_nodes=n_nodes, nas_hugepage_pool=nas_hugepage_pool,
                   cluster_sink=cluster_sink, fault_plan=fault_plan)
    if not (small.verified and huge.verified):
        raise RuntimeError(f"{small.kernel}: numerical verification failed")
    return HugepageComparison(
        kernel=small.kernel, machine=spec.name, small=small, huge=huge
    )
