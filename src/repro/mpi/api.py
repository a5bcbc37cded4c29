"""MPI world, endpoints and the communicator API.

:class:`MPIWorld` launches rank programs (generator functions taking a
:class:`Communicator`) over a :class:`~repro.systems.machine.Cluster`
with block rank placement (the paper's "2 nodes with 4 processes each"
is ``ppn=4`` over a 2-node cluster: ranks 0-3 on node 0, 4-7 on node 1).

Transport selection per message:

========================  ==========================================
peer on the same node     shared-memory two-copy transport
size ≤ 8 KB               eager  (:mod:`repro.mpi.eager`)
8 KB < size ≤ 16 KB       copy rendezvous (:mod:`repro.mpi.eager`)
size > 16 KB              RDMA rendezvous (:mod:`repro.mpi.rendezvous`)
========================  ==========================================

Every communicator call is timed into the rank's mpiP-style profiler, so
Fig 6's communication/computation split is measured, not assumed.

Progress runs inside the library, as in MPICH2 over InfiniBand: there is
no progress thread.  Each endpoint's completion queues call its handlers
as the adapter writes a CQE; a handler charges one poll, then matches
the envelope and reposts the bounce buffer (receive side) or completes
the waiting sender (send side).  ``sendrecv``, the nonblocking requests
and every collective step run their send and receive halves as
generators driven from the events they yield
(:meth:`~repro.engine.core.SimKernel.join`), so the only DES processes
are the rank programs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, Generator, List,
                    Optional, Sequence, Tuple)

from repro.engine.core import Event, SimKernel
from repro.engine.resources import Channel, Store
from repro.faults import MPITransportError
from repro.ib.verbs import (
    SGE,
    CompletionQueue,
    MemoryRegion,
    ProtectionDomain,
    QueuePair,
    RecvWR,
    SendWR,
    WorkCompletion,
)
from repro.mpi import eager as eager_mod
from repro.mpi import rendezvous as rndv_mod
from repro.mpi.datatypes import pack_sges
from repro.mpi.profiler import MPIProfiler
from repro.mpi.regcache import RegistrationCache
from repro.systems.machine import Cluster, OSProcess

if TYPE_CHECKING:
    from repro.mem.access import AccessCost


@dataclass(frozen=True)
class MPIConfig:
    """Message-layer tunables (MVAPICH2-era defaults)."""

    eager_threshold: int = 8 * 1024
    rdma_threshold: int = 16 * 1024
    lazy_dereg: bool = True
    regcache_capacity: Optional[int] = None
    eager_buf_bytes: int = 16 * 1024
    prepost_depth: int = 8
    bounce_buffers: int = 16
    intra_copy_ns_per_byte: float = 0.25
    intra_latency_ns: float = 600.0
    #: §7 future-work feature: map non-contiguous sends onto SGE lists
    #: instead of CPU packing
    use_sge_pack: bool = False
    #: rendezvous data movement: "write" (the era's MVAPICH2 scheme) or
    #: "read" (receiver-pulls; one less control message)
    rndv_protocol: str = "write"

    def __post_init__(self) -> None:
        if self.eager_threshold > self.eager_buf_bytes:
            raise ValueError("eager threshold exceeds bounce buffer size")
        if self.rdma_threshold < self.eager_threshold:
            raise ValueError("RDMA threshold below eager threshold")
        if self.rndv_protocol not in ("write", "read"):
            raise ValueError(f"unknown rendezvous protocol "
                             f"{self.rndv_protocol!r}")


@dataclass
class Envelope:
    """Protocol header riding on every wire/intra message."""

    kind: str  # eager | rts | cts | fin | rdat
    src: int
    dst: int
    tag: int
    size: int
    payload: Any = None
    rndv: int = 0
    remote_addr: int = 0
    rkey: int = 0


class Endpoint:
    """One rank's transport state (see module docstring)."""

    CTRL_BYTES = 64

    def __init__(self, world: "MPIWorld", rank: int, proc: OSProcess,
                 config: MPIConfig):
        self.world = world
        self.rank = rank
        self.proc = proc
        self.config = config
        self.machine = proc.machine
        self.hca = self.machine.hca
        self.kernel: SimKernel = world.kernel
        self.pd = ProtectionDomain.fresh()
        self.send_cq = CompletionQueue(self.kernel)
        self.recv_cq = CompletionQueue(self.kernel)
        self.qps: Dict[int, QueuePair] = {}  # peer rank -> QP
        self.match_channel = Channel(self.kernel)
        self.cts_channel = Channel(self.kernel)
        self.fin_channel = Channel(self.kernel)
        self.bounce_pool = Store(self.kernel)
        self.regcache = RegistrationCache(
            self.hca,
            proc.aspace,
            self.pd,
            enabled=config.lazy_dereg,
            capacity_bytes=config.regcache_capacity,
            counters=proc.counters,
            owner=f"rank{rank}",
        )
        proc.aspace.unmap_hooks.append(self.regcache.invalidate_range)
        self._wr_ids = itertools.count(1)
        self._rndv_ids = itertools.count(1)
        self._send_events: Dict[int, Event] = {}
        #: posted eager receive WR id -> (QP, bounce buffer, its MR)
        self._recv_slots: Dict[int, Tuple[QueuePair, int, MemoryRegion]] = {}

    # -- identity helpers ------------------------------------------------------
    def node_of(self, rank: int) -> int:
        """Node index hosting *rank*."""
        return self.world.node_of(rank)

    def is_local(self, rank: int) -> bool:
        """True when *rank* lives on this endpoint's node."""
        return self.node_of(rank) == self.node_of(self.rank)

    def qp_for(self, dest: int) -> QueuePair:
        """The QP towards remote rank *dest*."""
        qp = self.qps.get(dest)
        if qp is None:
            raise ValueError(f"rank {self.rank} has no QP to rank {dest}")
        return qp

    def make_envelope(self, kind: str, dest: int, tag: int, size: int,
                      payload: Any = None, rndv: int = 0,
                      remote_addr: int = 0, rkey: int = 0) -> Envelope:
        """Build a protocol header originating at this rank."""
        return Envelope(kind=kind, src=self.rank, dst=dest, tag=tag, size=size,
                        payload=payload, rndv=rndv, remote_addr=remote_addr,
                        rkey=rkey)

    def next_wr_id(self) -> int:
        return next(self._wr_ids)

    def next_rndv_id(self) -> int:
        # namespaced per rank so concurrent rendezvous cannot collide
        return (self.rank << 32) | next(self._rndv_ids)

    def expect_send_completion(self, wr_id: int) -> Event:
        """Event that fires when the send WR *wr_id* completes locally."""
        ev = self.kernel.event()
        self._send_events[wr_id] = ev
        return ev

    # -- setup -------------------------------------------------------------------
    def setup(self) -> Generator:
        """Allocate and register bounce buffers, pre-post receives,
        install the CQ handlers.  Timed (runs before the profiled
        window)."""
        from repro import trace

        tracer = trace.active()
        if tracer is None:
            yield from self._setup_impl()
            return
        with tracer.span("mpi.setup", track=f"rank{self.rank}.tx",
                         rank=self.rank):
            yield from self._setup_impl()

    def _setup_impl(self) -> Generator:
        cfg = self.config
        n_qps = max(1, len(self.qps))
        n_recv_bufs = cfg.prepost_depth * n_qps
        total = (cfg.bounce_buffers + n_recv_bufs) * cfg.eager_buf_bytes
        slab = self.proc.malloc(total)
        # registered through the regcache's retry policy so a transient
        # driver failure during setup is retried, not fatal
        mr = yield from self.regcache.register_with_retry(slab, total)
        cursor = slab
        for _ in range(cfg.bounce_buffers):
            self.bounce_pool.put((cursor, mr))
            cursor += cfg.eager_buf_bytes
        for peer, qp in self.qps.items():
            for _ in range(cfg.prepost_depth):
                yield from self.hca.post_recv(qp, self._eager_recv(qp, cursor, mr))
                cursor += cfg.eager_buf_bytes
        self.recv_cq.set_handler(self._on_recv_cqe)
        self.send_cq.set_handler(self._on_send_cqe)

    def _eager_recv(self, qp: QueuePair, buf: int, mr: MemoryRegion) -> RecvWR:
        """The receive WR that posts bounce buffer *buf* for eager traffic."""
        wr_id = self.next_wr_id()
        self._recv_slots[wr_id] = (qp, buf, mr)
        return RecvWR(wr_id=wr_id, sges=[SGE(buf, self.config.eager_buf_bytes, mr.lkey)])

    # -- completion handlers ----------------------------------------------------------
    # The CQs call these as the adapter writes each CQE, one at a time per
    # CQ: the poll's cost first, then the protocol work on its result.
    def _on_recv_cqe(self, wc: WorkCompletion) -> None:
        self.hca.poll_cost(wc).callbacks.append(self._recv_polled)

    def _recv_polled(self, polled: Event) -> None:
        """Dispatch the envelope, then repost its bounce buffer."""
        wc = polled.value
        qp, buf, mr = self._recv_slots.pop(wc.wr_id)
        self._dispatch(wc.payload)
        wr = self._eager_recv(qp, buf, mr)
        self.kernel.timeout(self.hca.post_recv_ticks(qp, wr),
                            (qp, wr)).callbacks.append(self._reposted)

    def _reposted(self, posted: Event) -> None:
        qp, wr = posted.value
        qp.recv_q.put_nowait(wr)
        self.recv_cq.handled()

    def _on_send_cqe(self, wc: WorkCompletion) -> None:
        self.hca.poll_cost(wc).callbacks.append(self._send_polled)

    def _send_polled(self, polled: Event) -> None:
        """Complete (or fail) the event the sender waits on."""
        wc = polled.value
        ev = self._send_events.pop(wc.wr_id, None)
        if ev is None:
            raise RuntimeError(f"completion for unknown WR {wc.wr_id}")
        if wc.ok:
            ev.succeed(wc)
        else:
            ev.fail(MPITransportError(
                f"rank {self.rank}: send WR {wc.wr_id} "
                f"({wc.byte_len} B, {wc.opcode}) failed: {wc.status}"
            ))
        self.send_cq.handled()

    def _dispatch(self, env: Envelope) -> None:
        if env.kind in ("eager", "rts", "rdat"):
            self.match_channel.send(env)
        elif env.kind == "cts":
            self.cts_channel.send(env)
        elif env.kind == "fin":
            self.fin_channel.send(env)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown envelope kind {env.kind!r}")

    # -- point-to-point: send ------------------------------------------------------------
    def send(self, dest: int, tag: int, size: int,
             addr: Optional[int] = None, payload: Any = None) -> Generator:
        """Blocking standard-mode send."""
        if size < 0:
            raise ValueError(f"negative message size {size}")
        if dest == self.rank:
            raise ValueError("send to self is not supported")
        if self.is_local(dest):
            yield from self._send_intra(dest, tag, size, payload)
        elif size <= self.config.eager_threshold:
            yield from eager_mod.eager_send(self, dest, tag, size, addr, payload)
        elif size <= self.config.rdma_threshold:
            yield from eager_mod.copy_rendezvous_send(
                self, dest, tag, size, addr, payload
            )
        elif self.config.rndv_protocol == "read":
            yield from rndv_mod.rdma_read_rendezvous_send(
                self, dest, tag, size, addr, payload
            )
        else:
            yield from rndv_mod.rdma_rendezvous_send(
                self, dest, tag, size, addr, payload
            )

    def send_packed(self, dest: int, tag: int, blocks: List[Tuple[int, int]],
                    lkey_mr: MemoryRegion, payload: Any = None) -> Generator:
        """Send a non-contiguous block list.

        With :attr:`MPIConfig.use_sge_pack` the blocks become one work
        request's SGE list (the §7 feature); otherwise they are CPU-packed
        into a bounce buffer and sent as one contiguous eager message.
        *lkey_mr* is the MR covering the blocks (SGE mode only).
        """
        total = sum(n for _, n in blocks)
        if self.is_local(dest):
            yield from self._send_intra(dest, tag, total, payload)
            return
        if total > self.config.eager_threshold:
            raise ValueError("packed sends are for small-message aggregation")
        if self.config.use_sge_pack:
            env = self.make_envelope("eager", dest, tag, total, payload=payload)
            qp = self.qp_for(dest)
            wr_id = self.next_wr_id()
            done = self.expect_send_completion(wr_id)
            wr = SendWR(wr_id=wr_id, sges=pack_sges(blocks, lkey_mr.lkey), payload=env)
            yield from self.hca.post_send(qp, wr)
            yield done
        else:
            # CPU pack: copy each block into a held pack buffer, release
            # it, then eager-send the contiguous result
            buf_addr, mr = yield self.bounce_pool.get()
            try:
                cursor = 0
                for addr, nbytes in blocks:
                    cost = self.proc.engine.copy(addr, buf_addr + cursor, nbytes)
                    yield self.kernel.timeout(cost.ticks)
                    cursor += nbytes
            finally:
                self.bounce_pool.put((buf_addr, mr))
            yield from eager_mod.eager_send(self, dest, tag, total, None, payload)

    def _send_intra(self, dest: int, tag: int, size: int, payload: Any) -> Generator:
        cfg = self.config
        ns = cfg.intra_latency_ns + size * cfg.intra_copy_ns_per_byte
        yield self.kernel.timeout(self.machine.clock.ns_to_ticks(ns))
        env = self.make_envelope("eager", dest, tag, size, payload=payload)
        self.world.endpoint(dest).match_channel.send(env)

    # -- point-to-point: recv -------------------------------------------------------------
    def recv(self, source: Optional[int] = None, tag: Optional[int] = None,
             addr: Optional[int] = None) -> Generator:
        """Blocking receive; returns ``(payload, size, src, tag)``.

        *addr* is the user receive buffer — required for messages above
        the RDMA threshold (the adapter must have a target).
        """
        def matches(env: Envelope) -> bool:
            if env.kind not in ("eager", "rts"):
                return False
            if source is not None and env.src != source:
                return False
            if tag is not None and env.tag != tag:
                return False
            return True

        env = yield self.match_channel.receive(matches)
        if env.kind == "eager":
            if self.is_local(env.src):
                cfg = self.config
                ns = env.size * cfg.intra_copy_ns_per_byte
                yield self.kernel.timeout(self.machine.clock.ns_to_ticks(ns))
                payload = env.payload
            else:
                payload = yield from eager_mod.eager_recv_copy_out(self, env, addr)
        elif env.size <= self.config.rdma_threshold:
            payload = yield from eager_mod.copy_rendezvous_recv(self, env, addr)
        elif self.config.rndv_protocol == "read":
            payload = yield from rndv_mod.rdma_read_rendezvous_recv(
                self, env, addr
            )
        else:
            payload = yield from rndv_mod.rdma_rendezvous_recv(self, env, addr)
        return payload, env.size, env.src, env.tag


@dataclass
class RankResult:
    """Outcome of one rank's program."""

    rank: int
    value: Any
    profiler: MPIProfiler
    app_ticks: int


class Communicator:
    """The per-rank MPI handle handed to rank programs."""

    def __init__(self, world: "MPIWorld", endpoint: Endpoint):
        self.world = world
        self.endpoint = endpoint
        self.kernel = world.kernel
        self.profiler = MPIProfiler(endpoint.rank)

    # -- identity -----------------------------------------------------------
    @property
    def rank(self) -> int:
        """This rank's index."""
        return self.endpoint.rank

    @property
    def size(self) -> int:
        """Number of ranks in the world."""
        return self.world.size

    @property
    def proc(self) -> OSProcess:
        """The rank's OS process (allocator, address space, engine)."""
        return self.endpoint.proc

    # -- timed wrappers ----------------------------------------------------------
    def _timed(self, name: str, gen: Generator, nbytes: int = 0) -> Generator:
        t0 = self.kernel.now
        result = yield from gen
        self.profiler.record(name, self.kernel.now - t0, nbytes)
        return result

    def send(self, dest: int, tag: int, size: int,
             addr: Optional[int] = None, payload: Any = None) -> Generator:
        """MPI_Send."""
        return self._timed(
            "MPI_Send", self.endpoint.send(dest, tag, size, addr, payload), size
        )

    def recv(self, source: Optional[int] = None, tag: Optional[int] = None,
             addr: Optional[int] = None) -> Generator:
        """MPI_Recv; returns ``(payload, size, src, tag)``."""
        return self._timed("MPI_Recv", self.endpoint.recv(source, tag, addr))

    def sendrecv(self, dest: int, sendtag: int, size: int,
                 source: Optional[int] = None, recvtag: Optional[int] = None,
                 send_addr: Optional[int] = None, recv_addr: Optional[int] = None,
                 payload: Any = None) -> Generator:
        """MPI_Sendrecv: send and receive concurrently."""
        t0 = self.kernel.now
        results = yield self.kernel.join([
            self.endpoint.send(dest, sendtag, size, send_addr, payload),
            self.endpoint.recv(source, recvtag, recv_addr),
        ])
        self.profiler.record("MPI_Sendrecv", self.kernel.now - t0, size)
        return results[1]

    def isend(self, dest: int, tag: int, size: int,
              addr: Optional[int] = None, payload: Any = None) -> Event:
        """Nonblocking send: returns a request — the event of a one-child
        :meth:`~repro.engine.core.SimKernel.join` that drives the send
        from its callbacks; complete it with :meth:`wait`."""
        return self.kernel.join([self.endpoint.send(dest, tag, size, addr, payload)])

    def irecv(self, source: Optional[int] = None, tag: Optional[int] = None,
              addr: Optional[int] = None) -> Event:
        """Nonblocking receive: returns a request like :meth:`isend`'s;
        :meth:`wait` returns ``(payload, size, src, tag)``."""
        return self.kernel.join([self.endpoint.recv(source, tag, addr)])

    def wait(self, request: Event) -> Generator:
        """Complete one nonblocking request (MPI_Wait)."""
        t0 = self.kernel.now
        (result,) = yield request
        self.profiler.record("MPI_Wait", self.kernel.now - t0)
        return result

    def waitall(self, requests: Sequence[Event]) -> Generator:
        """Complete several requests (MPI_Waitall); returns their
        results in order."""
        t0 = self.kernel.now
        results = yield self.kernel.all_of(list(requests))
        self.profiler.record("MPI_Waitall", self.kernel.now - t0)
        return [result for (result,) in results]

    def send_packed(self, dest: int, tag: int,
                    blocks: List[Tuple[int, int]], mr: MemoryRegion,
                    payload: Any = None) -> Generator:
        """Send a non-contiguous block list (SGE or CPU pack per config)."""
        total = sum(n for _, n in blocks)
        return self._timed(
            "MPI_Send(packed)",
            self.endpoint.send_packed(dest, tag, blocks, mr, payload),
            total,
        )

    # -- computation -----------------------------------------------------------------
    def compute_ticks(self, ticks: int) -> Generator:
        """Spend *ticks* of pure computation time."""
        if ticks < 0:
            raise ValueError(f"negative compute time {ticks}")
        yield self.kernel.timeout(ticks)

    def compute(self, cost: AccessCost) -> Generator:
        """Spend an :class:`~repro.mem.access.AccessCost` of computation."""
        yield self.kernel.timeout(cost.ticks)

    # -- collectives (implemented in repro.mpi.collectives) -----------------------------
    def barrier(self) -> Generator:
        """MPI_Barrier."""
        from repro.mpi.collectives import barrier

        return self._timed("MPI_Barrier", barrier(self))

    def bcast(self, root: int, size: int, payload: Any = None,
              addr: Optional[int] = None) -> Generator:
        """MPI_Bcast; returns the payload at every rank."""
        from repro.mpi.collectives import bcast

        return self._timed("MPI_Bcast", bcast(self, root, size, payload, addr), size)

    def allreduce(self, size: int, value: Any = None,
                  op: Callable[[Any, Any], Any] = None,
                  addr: Optional[int] = None) -> Generator:
        """MPI_Allreduce; returns the combined value at every rank."""
        from repro.mpi.collectives import allreduce

        return self._timed(
            "MPI_Allreduce", allreduce(self, size, value, op, addr), size
        )

    def reduce(self, root: int, size: int, value: Any = None,
               op: Callable[[Any, Any], Any] = None) -> Generator:
        """MPI_Reduce; returns the combined value at the root, None elsewhere."""
        from repro.mpi.collectives import reduce as reduce_

        return self._timed("MPI_Reduce", reduce_(self, root, size, value, op), size)

    def alltoallv(self, sizes: List[int], payloads: Optional[List[Any]] = None,
                  addrs: Optional[List[Optional[int]]] = None,
                  recv_addrs: Optional[List[Optional[int]]] = None) -> Generator:
        """MPI_Alltoallv; returns the list of received payloads by rank."""
        from repro.mpi.collectives import alltoallv

        return self._timed(
            "MPI_Alltoallv",
            alltoallv(self, sizes, payloads, addrs, recv_addrs),
            sum(sizes),
        )

    def gather(self, root: int, size: int, value: Any = None) -> Generator:
        """MPI_Gather; the root returns the rank-ordered values list."""
        from repro.mpi.collectives import gather

        return self._timed("MPI_Gather", gather(self, root, size, value), size)

    def scatter(self, root: int, size: int,
                values: Optional[List[Any]] = None) -> Generator:
        """MPI_Scatter; every rank returns its element."""
        from repro.mpi.collectives import scatter

        return self._timed("MPI_Scatter", scatter(self, root, size, values),
                           size)

    def scan(self, size: int, value: Any = None,
             op: Callable[[Any, Any], Any] = None) -> Generator:
        """MPI_Scan (inclusive prefix)."""
        from repro.mpi.collectives import scan

        return self._timed("MPI_Scan", scan(self, size, value, op), size)

    def allgather(self, size: int, value: Any = None,
                  addr: Optional[int] = None) -> Generator:
        """MPI_Allgather; returns the list of every rank's value."""
        from repro.mpi.collectives import allgather

        return self._timed("MPI_Allgather", allgather(self, size, value, addr), size)


class MPIWorld:
    """Rank placement, endpoint wiring and program execution."""

    def __init__(self, cluster: Cluster, ppn: int,
                 config: Optional[MPIConfig] = None):
        if ppn < 1:
            raise ValueError("need at least one process per node")
        self.cluster = cluster
        self.kernel = cluster.kernel
        self.ppn = ppn
        self.size = ppn * len(cluster.nodes)
        self.config = config if config is not None else MPIConfig()
        self._endpoints: List[Endpoint] = []
        for rank in range(self.size):
            node = cluster.nodes[self.node_of(rank)]
            proc = node.new_process(name=f"rank{rank}")
            self._endpoints.append(Endpoint(self, rank, proc, self.config))
        self._wire_qps()
        self._comms = [Communicator(self, ep) for ep in self._endpoints]

    # -- placement -------------------------------------------------------------
    def node_of(self, rank: int) -> int:
        """Block placement: ranks 0..ppn-1 on node 0, etc."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range")
        return rank // self.ppn

    def endpoint(self, rank: int) -> Endpoint:
        """The endpoint of *rank*."""
        return self._endpoints[rank]

    def communicator(self, rank: int) -> Communicator:
        """The communicator of *rank*."""
        return self._comms[rank]

    def _wire_qps(self) -> None:
        from repro.ib.hca import HCA

        for a in range(self.size):
            for b in range(a + 1, self.size):
                if self.node_of(a) == self.node_of(b):
                    continue
                ep_a, ep_b = self._endpoints[a], self._endpoints[b]
                qp_a = ep_a.machine.hca.create_qp(ep_a.pd, ep_a.send_cq, ep_a.recv_cq)
                qp_b = ep_b.machine.hca.create_qp(ep_b.pd, ep_b.send_cq, ep_b.recv_cq)
                HCA.connect_pair(qp_a, ep_a.machine.hca, qp_b, ep_b.machine.hca)
                ep_a.qps[b] = qp_a
                ep_b.qps[a] = qp_b

    # -- execution -----------------------------------------------------------------
    def run(self, program: Callable[[Communicator], Generator],
            until: Optional[int] = None) -> List[RankResult]:
        """Run *program* on every rank; returns per-rank results.

        The profiled window excludes endpoint setup (bounce registration)
        and is closed by a final barrier, like an mpiP report.
        """
        procs = []
        for comm in self._comms:
            procs.append(self.kernel.process(self._rank_main(comm, program),
                                             name=f"rank{comm.rank}"))
        self.kernel.run(until=until)
        results = []
        for comm, proc in zip(self._comms, procs):
            if proc.is_alive:
                raise RuntimeError(
                    f"rank {comm.rank} did not finish (deadlock or until= hit)"
                )
            results.append(
                RankResult(
                    rank=comm.rank,
                    value=proc.value,
                    profiler=comm.profiler,
                    app_ticks=comm.profiler.app_ticks,
                )
            )
        return results

    def _rank_main(self, comm: Communicator,
                   program: Callable[[Communicator], Generator]) -> Generator:
        from repro.mpi.collectives import barrier

        yield from comm.endpoint.setup()
        yield from barrier(comm)
        comm.profiler.app_started(self.kernel.now)
        value = yield from program(comm)
        yield from barrier(comm)
        comm.profiler.app_ended(self.kernel.now)
        return value
