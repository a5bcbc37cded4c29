"""NAS LU: a pipelined wavefront solver (SSOR).

Communication: the wavefront pipelines many *medium* messages — each
sweep step sends boundary slabs (tens of KB, class C ≈ 40 KB) to the
south/east neighbours of a 2D rank grid.  These sit right in the RDMA
rendezvous regime, so registration efficiency shows directly in the
communication time.

Memory personality: LU sweeps a *small number* of large arrays in long
regular streams — at most four concurrent streams, which fit even the
8-entry hugepage TLB array.  This is the kernel the paper singles out in
§5.2: TLB misses did **not** increase with hugepages ("except for LU"),
while the prefetcher benefits fully.

Functional payload: a real 2D recurrence (``v[i,j] = v[i-1,j] + v[i,j-1]
+ a[i,j]``) computed by wavefront pipelining across the rank grid and
verified by the last-corner rank against a sequential reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator

import numpy as np

from repro.workloads.nas.common import KB, MB


@dataclass(frozen=True)
class LUParams:
    """Per-class scaling."""

    steps: int            # wavefront sweeps (time steps)
    boundary_bytes: int   # south/east slab size per step
    field_mb: int         # per-rank field arrays (4 of them)
    block_mini: int       # functional local block edge


CLASSES: Dict[str, LUParams] = {
    "W": LUParams(steps=8, boundary_bytes=24 * KB, field_mb=4, block_mini=12),
    "B": LUParams(steps=60, boundary_bytes=40 * KB, field_mb=12, block_mini=16),
    "C": LUParams(steps=150, boundary_bytes=40 * KB, field_mb=24, block_mini=16),
}


def _grid_shape(n: int):
    """A px x py factorisation of the world size (px >= py)."""
    px = int(np.sqrt(n))
    while n % px:
        px -= 1
    return max(px, n // px), min(px, n // px)


def _recurrence(a: np.ndarray, top: np.ndarray, left: np.ndarray) -> np.ndarray:
    """``v[i, j] = v[i-1, j] + v[i, j-1] + a[i, j]``, with *top* as row -1
    and *left* as column -1, summed over Python floats in that order."""
    rows = []
    up = top.tolist()
    for a_row, lf in zip(a.tolist(), left.tolist()):
        row = []
        for up_j, a_ij in zip(up, a_row):
            lf = up_j + lf + a_ij
            row.append(lf)
        rows.append(row)
        up = row
    return np.array(rows)


def program(comm, klass: str = "W") -> Generator:
    """LU rank program; returns ``{"verified": bool, ...}``."""
    p = CLASSES[klass]
    proc = comm.proc
    n, rank = comm.size, comm.rank
    px, py = _grid_shape(n)
    ix, iy = rank % px, rank // px
    west = rank - 1 if ix > 0 else None
    east = rank + 1 if ix < px - 1 else None
    north = rank - px if iy > 0 else None
    south = rank + px if iy < py - 1 else None

    # four field arrays: few long streams (fits the hugepage TLB)
    fields = [proc.malloc(p.field_mb * MB) for _ in range(4)]

    # functional block: same global a on every rank, sliced locally
    bm = p.block_mini
    rng = np.random.default_rng(31337)
    a_global = rng.uniform(0.0, 1.0, size=(py * bm, px * bm))
    a_local = a_global[iy * bm:(iy + 1) * bm, ix * bm:(ix + 1) * bm]

    v_local = None
    for step in range(p.steps):
        # wavefront receive: top row from north, left column from west
        top = np.zeros(bm)
        left = np.zeros(bm)
        if north is not None:
            payload, _, _, _ = yield from comm.recv(north, 900_000 + 2 * step, addr=fields[2])
            top = payload
        if west is not None:
            payload, _, _, _ = yield from comm.recv(west, 900_001 + 2 * step, addr=fields[3])
            left = payload

        # compute: a few long streams over the field arrays
        cost = proc.engine.stream(fields[0], p.field_mb * MB)
        for f in fields[1:]:
            cost = cost + proc.engine.stream(f, p.field_mb * MB // 2)
        yield from comm.compute(cost)

        # real recurrence with halo boundary conditions
        v_local = _recurrence(a_local, top, left)

        # wavefront send: bottom row south, right column east
        if south is not None:
            yield from comm.send(south, 900_000 + 2 * step, p.boundary_bytes,
                                 addr=fields[0], payload=v_local[-1, :].copy())
        if east is not None:
            yield from comm.send(east, 900_001 + 2 * step, p.boundary_bytes,
                                 addr=fields[1], payload=v_local[:, -1].copy())

    # verification at the last-corner rank: sequential reference
    verified = True
    if rank == n - 1:
        ref = _recurrence(a_global, np.zeros(px * bm), np.zeros(py * bm))
        expected = ref[iy * bm:(iy + 1) * bm, ix * bm:(ix + 1) * bm]
        verified = bool(np.allclose(v_local, expected))
    ok = yield from comm.allreduce(1, value=bool(verified),
                                   op=lambda x, y: bool(x) and bool(y))
    return {"verified": bool(ok), "corner": float(v_local[-1, -1])}


program.kernel_name = "LU"
