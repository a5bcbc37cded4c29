"""NAS MG: multigrid V-cycles with nearest-neighbour halo exchange.

Communication: halo exchanges at *every grid level* — large faces at the
fine level (hundreds of KB for class C) but rapidly shrinking towards
the coarse levels where messages are small and go eager.  That mix is
why MG's communication benefit from hugepages stays below the 8 % the
other kernels show (Fig 6): only the fine-level rendezvous traffic sees
the registration savings.

Memory personality: per-level streams over the grid hierarchy (one
stream at a time; prefetch-friendly, no hugepage TLB pressure) plus a
moderate stencil rotation between the ``u``/``v``/``r`` arrays.

Functional payload: a real 1D two-grid V-cycle (damped Jacobi smoothing,
full-weighting restriction, linear prolongation) on a distributed
Poisson problem, verified by residual-norm reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Generator, List

import numpy as np

from repro.workloads.nas.common import KB, MB

if TYPE_CHECKING:
    from repro.mpi.api import Endpoint


@dataclass(frozen=True)
class MGParams:
    """Per-class scaling."""

    cycles: int
    levels: int
    fine_halo_bytes: int   # fine-level face size (halves per level)
    grid_mb: int           # fine-level per-rank grid (halves per level)
    points_mini: int       # functional fine-grid points per rank


CLASSES: Dict[str, MGParams] = {
    "W": MGParams(cycles=4, levels=3, fine_halo_bytes=64 * KB, grid_mb=4,
                  points_mini=64),
    "B": MGParams(cycles=20, levels=5, fine_halo_bytes=128 * KB, grid_mb=16,
                  points_mini=64),
    "C": MGParams(cycles=20, levels=6, fine_halo_bytes=256 * KB, grid_mb=28,
                  points_mini=64),
}


def program(comm, klass: str = "W") -> Generator:
    """MG rank program; returns ``{"verified": bool, ...}``."""
    p = CLASSES[klass]
    proc = comm.proc
    n, rank = comm.size, comm.rank
    left = rank - 1 if rank > 0 else None
    right = rank + 1 if rank < n - 1 else None

    # grid hierarchy through the active allocator (level sizes halve);
    # three arrays per level (u, v, r) like the original
    grids: List[int] = []
    grid_bytes: List[int] = []
    stencil_regions: List[tuple] = []
    for level in range(p.levels):
        nbytes = max(64 * KB, (p.grid_mb * MB) >> level)
        grids.append(proc.malloc(nbytes))
        grid_bytes.append(nbytes)
        for _ in range(2):  # v and r companions of u
            stencil_regions.append((proc.malloc(nbytes), nbytes))
        stencil_regions.append((grids[-1], nbytes))

    # functional 1D Poisson problem: -u'' = f, u(0)=u(1)=0
    m = p.points_mini
    h = 1.0 / (n * m + 1)
    xs = (np.arange(rank * m, (rank + 1) * m) + 1) * h
    f = np.sin(np.pi * xs)
    u = np.zeros(m)

    # distinct receive targets per side: two concurrent inbound RDMA
    # writes must not land at the same (rkey, address)
    recv_slot_l = grids[0]
    recv_slot_r = grids[0] + grid_bytes[0] // 2

    def halo_exchange(vec, tag_base, size_bytes):
        """Exchange boundary values with both neighbours; returns
        (left_ghost, right_ghost).  Timed as MPI_Halo in the profiler."""
        t0 = comm.kernel.now
        lg = rg = 0.0
        ep: Endpoint = comm.endpoint
        sends = []
        if right is not None:
            sends.append(ep.send(right, tag_base, size_bytes, addr=grids[1],
                                 payload=float(vec[-1])))
        if left is not None:
            sends.append(ep.send(left, tag_base + 1, size_bytes, addr=grids[1],
                                 payload=float(vec[0])))
        recvs = []
        if left is not None:
            recvs.append(ep.recv(left, tag_base, recv_slot_l))
        if right is not None:
            recvs.append(ep.recv(right, tag_base + 1, recv_slot_r))
        results = yield comm.kernel.join(sends + recvs)
        received = results[len(sends):]
        if left is not None:
            lg = received.pop(0)[0]
        if right is not None:
            rg = received.pop(0)[0]
        comm.profiler.record("MPI_Halo", comm.kernel.now - t0, 2 * size_bytes)
        return lg, rg

    def residual_norm(u_vec, lg, rg):
        um = np.concatenate([[lg], u_vec, [rg]])
        r = f - (-(um[:-2] - 2 * um[1:-1] + um[2:]) / (h * h))
        return float(r @ r)

    lg, rg = yield from halo_exchange(u, 100, p.fine_halo_bytes)
    rho0 = yield from comm.allreduce(8, value=residual_norm(u, lg, rg))

    smooth_steps = 0
    tag = 200
    for _cycle in range(p.cycles):
        # V-cycle down and up: streams + halos per level
        for level in range(p.levels):
            cost = proc.engine.stream(grids[level], grid_bytes[level])
            yield from comm.compute(cost)
            halo = max(1 * KB, p.fine_halo_bytes >> level)
            yield from halo_exchange(u, tag, halo)
            tag += 2
        for level in reversed(range(p.levels)):
            cost = proc.engine.stream(grids[level], grid_bytes[level])
            yield from comm.compute(cost)
        # stencil transitions touch u/v/r across all levels in rotation
        # (work scales with the fine-grid size)
        cost = proc.engine.rotate(stencil_regions, 1500 * p.grid_mb, 512)
        yield from comm.compute(cost)

        # functional smoothing sweeps with real halo data
        for _ in range(3):
            lg, rg = yield from halo_exchange(u, tag, 1 * KB)
            tag += 2
            um = np.concatenate([[lg], u, [rg]])
            u = um[1:-1] + 0.6 * (h * h * f + um[:-2] - 2 * um[1:-1] + um[2:]) / 2.0
            smooth_steps += 1

    lg, rg = yield from halo_exchange(u, tag, p.fine_halo_bytes)
    rho_final = yield from comm.allreduce(8, value=residual_norm(u, lg, rg))

    # verification: the distributed smoother must match a sequential
    # reference of the same sweeps exactly (this checks the halo data,
    # which is what the distribution can get wrong)
    slices = yield from comm.allgather(m * 8, value=u)
    verified = True
    if rank == 0:
        u_ref = np.zeros(n * m)
        xs_all = (np.arange(n * m) + 1) * h
        f_all = np.sin(np.pi * xs_all)
        for _ in range(smooth_steps):
            um = np.concatenate([[0.0], u_ref, [0.0]])
            u_ref = um[1:-1] + 0.6 * (
                h * h * f_all + um[:-2] - 2 * um[1:-1] + um[2:]
            ) / 2.0
        verified = bool(np.allclose(np.concatenate(slices), u_ref))
    verified = yield from comm.bcast(0, 1, payload=verified)
    reduction = rho_final / rho0 if rho0 else 1.0
    return {"verified": bool(verified), "residual_reduction": reduction}


program.kernel_name = "MG"
