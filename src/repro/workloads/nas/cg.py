"""NAS CG: conjugate gradient with an irregular sparse matrix.

Communication pattern (per CG iteration): large vector exchanges for the
distributed matvec plus two scalar allreduces for the dot products.  The
original exchanges run over a 2D processor grid transpose; we use a ring
allgather of the direction vector — the same per-iteration byte volume
and large-message character (class C moves ~600 KB per exchange, well
into the RDMA-rendezvous regime where registration matters).

Memory personality: streaming the sparse-matrix slab (row-major sweeps —
prefetch-friendly, hugepages help), rotation over the handful of CG
vectors (few streams: fits even the small hugepage TLB array), and the
irregular gather of ``x[col_index]`` (random within the vector region).

Functional payload: a real distributed CG solve of a small SPD system
(``A = M^T M + n·I``, built once per run), verified by the
residual-norm reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator

import numpy as np

from repro.workloads.nas.common import KB, MB, per_run


@dataclass(frozen=True)
class CGParams:
    """Per-class scaling of the timed loop."""

    iterations: int
    exchange_bytes: int  # vector-exchange size per allgather step
    matrix_mb: int       # per-rank sparse-slab stream per iteration
    vector_kb: int       # size of each CG vector region
    gather_accesses: int  # irregular x[] gathers per iteration
    temp_mb: int         # per-iteration workspace (malloc/free churn)
    n_mini: int          # functional system size (global)


CLASSES: Dict[str, CGParams] = {
    "W": CGParams(iterations=6, exchange_bytes=80 * KB, matrix_mb=2,
                  vector_kb=256, gather_accesses=20_000, temp_mb=2, n_mini=128),
    "B": CGParams(iterations=25, exchange_bytes=300 * KB, matrix_mb=18,
                  vector_kb=600, gather_accesses=150_000, temp_mb=4, n_mini=192),
    "C": CGParams(iterations=75, exchange_bytes=600 * KB, matrix_mb=50,
                  vector_kb=1200, gather_accesses=400_000, temp_mb=8, n_mini=256),
}


def _spd_system(n: int) -> np.ndarray:
    """The seeded ``M^T M + n·I`` system, read-only."""
    m = np.random.default_rng(20061).standard_normal((n, n))
    a = m.T @ m + n * np.eye(n)
    a.flags.writeable = False
    return a


def program(comm, klass: str = "W") -> Generator:
    """CG rank program; returns ``{"verified": bool, ...}``."""
    p = CLASSES[klass]
    proc = comm.proc
    n, rank = comm.size, comm.rank
    rows = p.n_mini // n

    # -- functional setup: the same SPD system on every rank ------------
    a_rows = per_run(comm, _spd_system, p.n_mini)[rank * rows:(rank + 1) * rows]
    b_local = np.ones(rows)

    # -- timed arrays through the active allocator -----------------------
    matrix_slab = proc.malloc(p.matrix_mb * MB)
    vectors = [proc.malloc(p.vector_kb * KB) for _ in range(5)]
    # column-index blocks: together with the vectors these put more
    # concurrent regions in play than the hugepage TLB has entries
    index_blocks = [proc.malloc(256 * KB) for _ in range(8)]
    x_region = vectors[0]

    # -- CG state ---------------------------------------------------------
    x = np.zeros(rows)
    r = b_local.copy()
    direction = r.copy()
    rho = None
    rho0 = None

    transpose_partner = rank ^ (n // 2) if n > 1 else rank

    for it in range(p.iterations):
        # compute: matvec personality
        cost = proc.engine.stream(matrix_slab, p.matrix_mb * MB)
        cost = cost + proc.engine.rotate(
            [(v, p.vector_kb * KB) for v in vectors]
            + [(b, 256 * KB) for b in index_blocks],
            max(8000, 500 * p.matrix_mb), 512,
        )
        cost = cost + proc.engine.random(
            x_region, p.vector_kb * KB, p.gather_accesses
        )
        yield from comm.compute(cost)

        # per-iteration workspace churn (Fortran scoped temporaries)
        temp = proc.malloc(n * p.exchange_bytes + p.temp_mb * MB)
        xpose = proc.malloc(2 * p.exchange_bytes + 8192)

        # the 2D-grid transpose exchange with the opposite half
        if transpose_partner != rank:
            yield from comm.sendrecv(
                transpose_partner, 4200 + it, p.exchange_bytes,
                source=transpose_partner, recvtag=4200 + it,
                send_addr=xpose, recv_addr=xpose + p.exchange_bytes + 4096,
                payload=None,
            )

        # rho = r . r (global)
        rho_local = float(r @ r)
        rho = yield from comm.allreduce(8, value=rho_local)
        if rho0 is None:
            rho0 = rho

        # exchange direction vector, then local matvec
        parts = yield from comm.allgather(
            p.exchange_bytes, value=direction, addr=temp
        )
        p_full = np.concatenate(parts)
        q = a_rows @ p_full

        # alpha = rho / (p . q) (global)
        pq_local = float(direction @ q)
        pq = yield from comm.allreduce(8, value=pq_local)
        alpha = rho / pq
        x = x + alpha * direction
        r = r - alpha * q

        rho_new_local = float(r @ r)
        rho_new = yield from comm.allreduce(8, value=rho_new_local)
        beta = rho_new / rho
        direction = r + beta * direction
        final_rho = rho_new

        proc.free(xpose)
        proc.free(temp)

    # converged? class W runs few iterations, so check the reduction
    reduction = final_rho / rho0 if rho0 else 0.0
    verified = bool(rho0 > 0 and reduction < 1e-4)
    return {"verified": verified, "residual_reduction": reduction}


program.kernel_name = "CG"
