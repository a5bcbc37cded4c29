"""Collective operations over the point-to-point layer.

Classic MPICH-era algorithms: dissemination barrier, binomial-tree
broadcast/reduce, recursive-doubling allreduce (power-of-two worlds,
reduce+bcast otherwise), ring allgather and pairwise-exchange alltoallv.
The NAS kernels run entirely on these plus point-to-point.

Every collective uses its own tag space with a per-communicator epoch so
back-to-back collectives cannot cross-match.
"""

from __future__ import annotations

import itertools
from typing import (TYPE_CHECKING, Any, Callable, Generator, List,
                    Optional)

if TYPE_CHECKING:
    from repro.mpi.api import Communicator, Endpoint

# tag bases, far above user tags
_BARRIER = 1 << 20
_BCAST = 2 << 20
_REDUCE = 3 << 20
_ALLRED = 4 << 20
_GATHER = 5 << 20
_A2A = 6 << 20
_GATHERV = 7 << 20
_SCATTER = 8 << 20
_SCAN = 9 << 20
_EPOCH_STRIDE = 64  # rounds per epoch


def _epoch(comm: Communicator, counter_name: str) -> int:
    counters = comm.__dict__.setdefault("_coll_epochs", {})
    seq = counters.setdefault(counter_name, itertools.count())
    return next(seq)


def _default_op(a: Any, b: Any) -> Any:
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def barrier(comm: Communicator) -> Generator:
    """Dissemination barrier: ceil(log2(n)) rounds of 1-byte exchanges."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return
        yield  # pragma: no cover
    base = _BARRIER + _epoch(comm, "barrier") % 4096 * _EPOCH_STRIDE
    ep: Endpoint = comm.endpoint
    k = 0
    dist = 1
    while dist < size:
        dest = (rank + dist) % size
        src = (rank - dist) % size
        tag = base + k
        yield comm.kernel.join([ep.send(dest, tag, 1), ep.recv(src, tag)])
        dist <<= 1
        k += 1


def bcast(comm: Communicator, root: int, size: int, payload: Any = None,
          addr: Optional[int] = None) -> Generator:
    """Binomial-tree broadcast; returns the payload at every rank."""
    n, rank = comm.size, comm.rank
    if n == 1:
        return payload
    tag = _BCAST + _epoch(comm, "bcast") % 4096 * _EPOCH_STRIDE
    ep: Endpoint = comm.endpoint
    vrank = (rank - root) % n
    mask = 1
    value = payload if rank == root else None
    while mask < n:
        if vrank & mask:
            src = (vrank - mask + root) % n
            value, _, _, _ = yield from ep.recv(src, tag, addr)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank & mask:
            break
        dest_v = vrank + mask
        if dest_v < n:
            dest = (dest_v + root) % n
            yield from ep.send(dest, tag, size, addr, value)
        mask >>= 1
    return value


def reduce(comm: Communicator, root: int, size: int, value: Any = None,
           op: Optional[Callable[[Any, Any], Any]] = None,
           addr: Optional[int] = None) -> Generator:
    """Binomial-tree reduction; returns the result at *root*."""
    n, rank = comm.size, comm.rank
    if op is None:
        op = _default_op
    if n == 1:
        return value
    tag = _REDUCE + _epoch(comm, "reduce") % 4096 * _EPOCH_STRIDE
    ep: Endpoint = comm.endpoint
    vrank = (rank - root) % n
    acc = value
    mask = 1
    while mask < n:
        if vrank & mask == 0:
            src_v = vrank | mask
            if src_v < n:
                src = (src_v + root) % n
                other, _, _, _ = yield from ep.recv(src, tag, addr)
                acc = op(acc, other)
        else:
            dest = (vrank - mask + root) % n
            yield from ep.send(dest, tag, size, addr, acc)
            return None
        mask <<= 1
    return acc if rank == root else None


def allreduce(comm: Communicator, size: int, value: Any = None,
              op: Optional[Callable[[Any, Any], Any]] = None,
              addr: Optional[int] = None) -> Generator:
    """Recursive-doubling allreduce (reduce+bcast for odd world sizes)."""
    n, rank = comm.size, comm.rank
    if op is None:
        op = _default_op
    if n == 1:
        return value
    if n & (n - 1):
        acc = yield from reduce(comm, 0, size, value, op, addr)
        return (yield from bcast(comm, 0, size, acc, addr))
    tag = _ALLRED + _epoch(comm, "allreduce") % 4096 * _EPOCH_STRIDE
    ep: Endpoint = comm.endpoint
    acc = value
    mask = 1
    k = 0
    while mask < n:
        partner = rank ^ mask
        _, (other, _, _, _) = yield comm.kernel.join([
            ep.send(partner, tag + k, size, addr, acc),
            ep.recv(partner, tag + k, addr),
        ])
        acc = op(acc, other)
        mask <<= 1
        k += 1
    return acc


def allgather(comm: Communicator, size: int, value: Any = None,
              addr: Optional[int] = None) -> Generator:
    """Ring allgather; returns the list of per-rank values in rank order.

    *addr* is the output buffer used as the send/receive target when
    *size* exceeds the RDMA threshold (rendezvous needs real buffers).
    Like a real ring allgather, each step receives into that segment of
    the output array which belongs to the segment's owner rank — the
    buffer should therefore hold ``comm.size`` segments of *size* bytes.
    """
    n, rank = comm.size, comm.rank
    values: List[Any] = [None] * n
    values[rank] = value
    if n == 1:
        return values
    tag = _GATHER + _epoch(comm, "allgather") % 4096 * _EPOCH_STRIDE
    ep: Endpoint = comm.endpoint
    right = (rank + 1) % n
    left = (rank - 1) % n
    carry_idx = rank
    for step in range(n - 1):
        incoming_idx = (rank - step - 1) % n
        send_addr = addr + carry_idx * size if addr is not None else None
        recv_addr = addr + incoming_idx * size if addr is not None else None
        _, ((idx, val), _, _, _) = yield comm.kernel.join([
            ep.send(right, tag + step, size, send_addr,
                    (carry_idx, values[carry_idx])),
            ep.recv(left, tag + step, recv_addr),
        ])
        values[idx] = val
        carry_idx = idx
    return values


def alltoallv(comm: Communicator, sizes: List[int], payloads: Optional[List[Any]] = None,
              addrs: Optional[List[Optional[int]]] = None,
              recv_addrs: Optional[List[Optional[int]]] = None) -> Generator:
    """Pairwise-exchange alltoallv.

    *sizes[d]* is the byte count this rank sends to rank *d*;
    *payloads[d]* / *addrs[d]* optionally give the data / source buffer;
    *recv_addrs[s]* the receive buffer for data from rank *s* (required
    when the inbound message exceeds the RDMA threshold).
    Returns the list of received payloads indexed by source rank.
    """
    n, rank = comm.size, comm.rank
    if len(sizes) != n:
        raise ValueError(f"sizes has {len(sizes)} entries for {n} ranks")
    payloads = payloads if payloads is not None else [None] * n
    addrs = addrs if addrs is not None else [None] * n
    recv_addrs = recv_addrs if recv_addrs is not None else [None] * n
    received: List[Any] = [None] * n
    received[rank] = payloads[rank]
    if n == 1:
        return received
    tag = _A2A + _epoch(comm, "alltoallv") % 4096 * _EPOCH_STRIDE
    ep: Endpoint = comm.endpoint
    for step in range(1, n):
        dest = (rank + step) % n
        src = (rank - step) % n
        _, (received[src], _, _, _) = yield comm.kernel.join([
            ep.send(dest, tag + step, sizes[dest], addrs[dest], payloads[dest]),
            ep.recv(src, tag + step, recv_addrs[src]),
        ])
    return received


def gather(comm: Communicator, root: int, size: int, value: Any = None) -> Generator:
    """Binomial-tree gather; the root returns the rank-ordered list of
    values, everyone else None."""
    n, rank = comm.size, comm.rank
    if n == 1:
        return [value]
    tag = _GATHERV + _epoch(comm, "gather") % 4096 * _EPOCH_STRIDE
    ep: Endpoint = comm.endpoint
    vrank = (rank - root) % n
    bundle = {vrank: value}
    mask = 1
    while mask < n:
        if vrank & mask == 0:
            src_v = vrank | mask
            if src_v < n:
                src = (src_v + root) % n
                other, _, _, _ = yield from ep.recv(src, tag)
                bundle.update(other)
        else:
            dest = (vrank - mask + root) % n
            # subtree payload size grows with the bundle
            yield from ep.send(dest, tag, size * len(bundle), None, bundle)
            return None
        mask <<= 1
    if rank != root:
        return None
    return [bundle[(r - root) % n] for r in range(n)]


def scatter(comm: Communicator, root: int, size: int,
            values: Optional[List[Any]] = None) -> Generator:
    """Binomial-tree scatter; every rank returns its element of the
    root's *values* list."""
    n, rank = comm.size, comm.rank
    if n == 1:
        return values[0] if values else None
    if rank == root:
        if values is None or len(values) != n:
            raise ValueError(f"scatter root needs {n} values")
        bundle = {(r - root) % n: values[r] for r in range(n)}
    else:
        bundle = None
    tag = _SCATTER + _epoch(comm, "scatter") % 4096 * _EPOCH_STRIDE
    ep: Endpoint = comm.endpoint
    vrank = (rank - root) % n
    mask = 1
    while mask < n:
        if vrank & mask:
            src = (vrank - mask + root) % n
            bundle, _, _, _ = yield from ep.recv(src, tag)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank & mask:
            break
        dest_v = vrank + mask
        if dest_v < n:
            dest = (dest_v + root) % n
            subtree = {k: v for k, v in bundle.items() if k >= dest_v}
            bundle = {k: v for k, v in bundle.items() if k < dest_v}
            yield from ep.send(dest, tag, size * max(1, len(subtree)), None,
                               subtree)
        mask >>= 1
    return bundle[vrank]


def scan(comm: Communicator, size: int, value: Any = None,
         op: Optional[Callable[[Any, Any], Any]] = None) -> Generator:
    """Inclusive prefix scan (MPI_Scan): rank r returns
    op(value_0, ..., value_r)."""
    n, rank = comm.size, comm.rank
    if op is None:
        op = _default_op
    if n == 1:
        return value
    tag = _SCAN + _epoch(comm, "scan") % 4096 * _EPOCH_STRIDE
    ep: Endpoint = comm.endpoint
    result = value        # inclusive prefix so far
    carry = value         # contribution this rank forwards upward
    mask = 1
    k = 0
    while mask < n:
        partner_up = rank + mask
        partner_down = rank - mask
        halves = []
        if partner_up < n:
            halves.append(ep.send(partner_up, tag + k, size, None, carry))
        if partner_down >= 0:
            halves.append(ep.recv(partner_down, tag + k))
        if halves:
            results = yield comm.kernel.join(halves)
        if partner_down >= 0:
            other = results[-1][0]
            result = op(other, result)
            carry = op(other, carry)
        mask <<= 1
        k += 1
    return result
