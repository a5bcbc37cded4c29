"""NAS EP: embarrassingly parallel gaussian-pair generation.

Almost no communication (a handful of final reductions), so EP's Fig 6
behaviour is dominated by computation.  Its memory personality is the
interesting part: the inner loop touches *many distinct small tables*
(per-annulus counters, scratch blocks, the multiplier tables) in
rotation — more concurrent regions than the Opteron's **8** hugepage TLB
entries, so preloading the library multiplies TLB misses "up to eight
times" (§5.2) even while the long sequential sweeps over the random-pair
buffer get faster from hugepage physical contiguity.

Functional payload: real Marsaglia-style pair acceptance counting with
numpy, reduced across ranks and verified on every rank against the
sequential sum of all blocks, each generated once per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Tuple

import numpy as np

from repro.workloads.nas.common import KB, MB, per_run


@dataclass(frozen=True)
class EPParams:
    """Per-class scaling."""

    blocks: int          # outer blocks (each = one timed compute phase)
    pair_buffer_mb: int  # streamed random-number buffer
    tables: int          # distinct scratch/counter regions in rotation
    table_kb: int
    rotate_switches: int
    pairs_mini: int      # real pairs generated per block for verification


CLASSES: Dict[str, EPParams] = {
    "W": EPParams(blocks=4, pair_buffer_mb=4, tables=16, table_kb=64,
                  rotate_switches=13_000, pairs_mini=4_000),
    "B": EPParams(blocks=12, pair_buffer_mb=12, tables=16, table_kb=64,
                  rotate_switches=65_000, pairs_mini=8_000),
    "C": EPParams(blocks=24, pair_buffer_mb=16, tables=16, table_kb=64,
                  rotate_switches=85_000, pairs_mini=10_000),
}


def _block(pairs: int, rank: int, block: int) -> Tuple[float, float, np.ndarray]:
    """Gaussian-pair partials ``(sx, sy, counts)`` of one seeded block."""
    rng = np.random.default_rng(777 + rank * 1000 + block)
    u = rng.uniform(-1.0, 1.0, size=(pairs, 2))
    t = np.sum(u * u, axis=1)
    accept = t <= 1.0
    tt = t[accept]
    factor = np.sqrt(-2.0 * np.log(tt) / tt)
    gx = u[accept, 0] * factor
    gy = u[accept, 1] * factor
    mag = np.maximum(np.abs(gx), np.abs(gy)).astype(np.int64)
    counts = np.bincount(np.minimum(mag, 9), minlength=10)
    return float(gx.sum()), float(gy.sum()), counts


def _partials(comm, p: EPParams, ranks) -> Tuple[float, float, np.ndarray]:
    """Sequential sum of the block partials of *ranks*, rank by rank."""
    sx = sy = 0.0
    counts = np.zeros(10, dtype=np.int64)
    for r in ranks:
        for block in range(p.blocks):
            bsx, bsy, bcounts = per_run(comm, _block, p.pairs_mini, r, block)
            sx += bsx
            sy += bsy
            counts += bcounts
    return sx, sy, counts


def program(comm, klass: str = "W") -> Generator:
    """EP rank program; returns ``{"verified": bool, ...}``."""
    p = CLASSES[klass]
    proc = comm.proc

    pair_buffer = proc.malloc(int(p.pair_buffer_mb * MB * 1.1) + 4096)
    tables: List[int] = [proc.malloc(p.table_kb * KB) for _ in range(p.tables)]

    # the original deals seed blocks unevenly; the last rank sweeps ~10 %
    # more (this imbalance is what the final reductions wait out)
    imbalance = 1.0 + 0.1 * comm.rank / max(1, comm.size - 1)

    for _ in range(p.blocks):
        # compute personality: long sweep + many-table rotation
        cost = proc.engine.stream(pair_buffer, int(p.pair_buffer_mb * MB * imbalance))
        cost = cost + proc.engine.rotate(
            [(t, p.table_kb * KB) for t in tables], p.rotate_switches, 256
        )
        yield from comm.compute(cost)

    # real gaussian-pair work (untimed: summed after the timed phases)
    sx, sy, counts = _partials(comm, p, [comm.rank])

    # final reductions: the only communication EP does
    total_counts = yield from comm.allreduce(
        80, value=counts, op=lambda a, b: a + b
    )
    total_sx = yield from comm.allreduce(8, value=sx)
    total_sy = yield from comm.allreduce(8, value=sy)

    # verification: the sequential sum of every rank's block partials
    ref_sx, ref_sy, ref_counts = _partials(comm, p, range(comm.size))

    verified = bool(
        np.array_equal(total_counts, ref_counts)
        and abs(total_sx - ref_sx) < 1e-6
        and abs(total_sy - ref_sy) < 1e-6
    )
    return {"verified": verified, "gaussian_pairs": int(total_counts.sum())}


program.kernel_name = "EP"
