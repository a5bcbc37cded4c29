"""NAS IS: integer sort (bucketed key exchange).

Communication: each ranking iteration redistributes the key population
with a large alltoallv (class C moves several MB between every rank
pair) — the heaviest communication of the suite.

Memory personality: the bucket-scatter loop writes into *many* distinct
bucket regions in rotation, far more than the 8 hugepage TLB entries, so
IS is the kernel where the hugepage TLB penalty outweighs the prefetch
gains — the paper's Fig 6 shows IS as the only benchmark whose *overall*
time got worse with hugepages.

Functional payload: a real distributed bucket sort of random ints,
verified by global order across rank boundaries and element conservation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List

import numpy as np

from repro.workloads.nas.common import KB, MB


@dataclass(frozen=True)
class ISParams:
    """Per-class scaling."""

    iterations: int
    a2a_bytes_per_peer: int  # alltoallv bytes to each other rank
    key_array_mb: int        # streamed key array
    buckets: int             # distinct bucket regions (rotation width)
    bucket_kb: int
    scatter_switches: int    # bucket-scatter bursts per iteration
    bucket_array_mb: int     # big bucket array hit with a pow2 stride
    strided_accesses: int    # strided writes per iteration
    keys_mini: int           # real keys per rank
    key_range_mini: int


CLASSES: Dict[str, ISParams] = {
    "W": ISParams(iterations=3, a2a_bytes_per_peer=128 * KB, key_array_mb=4,
                  buckets=24, bucket_kb=128, scatter_switches=4_000,
                  bucket_array_mb=8, strided_accesses=2_500,
                  keys_mini=4_000, key_range_mini=1 << 16),
    "B": ISParams(iterations=10, a2a_bytes_per_peer=2 * MB, key_array_mb=16,
                  buckets=24, bucket_kb=256, scatter_switches=20_000,
                  bucket_array_mb=16, strided_accesses=12_000,
                  keys_mini=8_000, key_range_mini=1 << 19),
    "C": ISParams(iterations=10, a2a_bytes_per_peer=8 * MB, key_array_mb=32,
                  buckets=32, bucket_kb=256, scatter_switches=40_000,
                  bucket_array_mb=32, strided_accesses=25_000,
                  keys_mini=10_000, key_range_mini=1 << 19),
}


def program(comm, klass: str = "W") -> Generator:
    """IS rank program; returns ``{"verified": bool, ...}``."""
    p = CLASSES[klass]
    proc = comm.proc
    n, rank = comm.size, comm.rank

    key_array = proc.malloc(p.key_array_mb * MB)
    buckets: List[int] = [proc.malloc(p.bucket_kb * KB) for _ in range(p.buckets)]
    bucket_array = proc.malloc(p.bucket_array_mb * MB)

    rng = np.random.default_rng(5150 + rank)
    keys = rng.integers(0, p.key_range_mini, size=p.keys_mini, dtype=np.int64)
    splitter = p.key_range_mini // n  # uniform keys: fixed splitters

    # the key redistribution buffers are persistent arrays in the
    # original (so IS gets no registration-churn benefit; its hugepage
    # story is purely the computation-side pathology)
    temp = proc.malloc(max(64 * KB, p.a2a_bytes_per_peer))

    sorted_keys = None
    for _ in range(p.iterations):
        # compute: key sweep + bucket rotation + pow2-strided scatter
        # into the big bucket array (the hugepage page-colouring
        # pathology: conflict misses when frames are contiguous)
        cost = proc.engine.stream(key_array, p.key_array_mb * MB)
        cost = cost + proc.engine.rotate(
            [(b, p.bucket_kb * KB) for b in buckets], p.scatter_switches, 128
        )
        cost = cost + proc.engine.strided(
            bucket_array, p.bucket_array_mb * MB, 256 * KB, p.strided_accesses
        )
        yield from comm.compute(cost)

        # real bucketing
        dest_of = np.minimum(keys // splitter, n - 1)
        outgoing = [keys[dest_of == d] for d in range(n)]

        sizes = [p.a2a_bytes_per_peer if d != rank else 0 for d in range(n)]
        incoming = yield from comm.alltoallv(
            sizes,
            payloads=outgoing,
            addrs=[temp] * n,
            recv_addrs=[temp] * n,
        )

        mine = np.concatenate([arr for arr in incoming if arr is not None])
        sorted_keys = np.sort(mine)

    # verification: local order, rank-boundary order, conservation
    lo = float(sorted_keys[0]) if sorted_keys.size else float("inf")
    hi = float(sorted_keys[-1]) if sorted_keys.size else float("-inf")
    boundaries = yield from comm.allgather(16, value=(lo, hi))
    count_total = yield from comm.allreduce(8, value=int(sorted_keys.size))

    ordered = bool(np.all(np.diff(sorted_keys) >= 0))
    cross_ok = all(
        boundaries[i][1] <= boundaries[i + 1][0]
        for i in range(n - 1)
        if boundaries[i][1] != float("-inf") and boundaries[i + 1][0] != float("inf")
    )
    conserved = count_total == p.keys_mini * n
    in_range = bool(
        sorted_keys.size == 0
        or (rank * splitter <= lo and (rank == n - 1 or hi < (rank + 1) * splitter))
    )
    verified = ordered and cross_ok and conserved and in_range
    return {"verified": bool(verified), "keys_held": int(sorted_keys.size)}


program.kernel_name = "IS"
