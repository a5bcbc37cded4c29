"""The host channel adapter: work-request processing as callback chains.

The §4 execution flow, step by step:

    "1. The consumer posts a send or receive work request.
     2. The network adapter transfers the specified data to the
        communication partner.
     3. After completion the adapter generates a completion queue entry.
     4. The consumer is notified about work completion by polling the
        completion queue or by an interrupt."

Step 1 is CPU work (:meth:`HCA.post_send` — WQE build + doorbell; the
paper measures it as a near-constant 230–950 TBR ticks).  Steps 2-3 are
the adapter pipeline (:meth:`HCA._tx_begin` onwards): WQE fetch over the
bus, per-SGE ATT translation and DMA gather, wire transfer, remote
scatter, CQE write and the RC acknowledgement.  Step 4 is :meth:`HCA.
wait_completion`, or a consumer handler the CQ calls as the CQE is
written (:meth:`repro.ib.verbs.CompletionQueue.push`); both charge one
:meth:`HCA.poll_cost`.

Scatter/gather economics (§4): the per-WQE costs (doorbell, WQE fetch,
pipeline occupancy, completion) are paid once regardless of SGE count,
while each extra SGE only adds a small descriptor-parse + DMA-engine
cost — so 4 small SGEs cost ~14 % more than one, and 128 SGEs ~3× one,
as the paper measures in Fig 3.

Bus occupancy is modelled with real DES resources: the gather path holds
the bus read channel, the scatter path the write channel.  On a
half-duplex bus (PCI-X) these are the same resource, which is how ATT
stalls become visible in bandwidth exactly as §5.1 describes for the
Xeon system.

One delivery path
-----------------

Every message kind — send, RDMA write, RDMA-read request and response,
ack, and the flush of a WR queued on a QP that left RTS — is carried by
one *callback chain*: each stage schedules the next as a single kernel
event at the instant its cost has elapsed, uncontended bus grants are
taken synchronously (:meth:`repro.engine.resources.Resource.
try_acquire`) and fire-and-forget queue puts skip their acknowledgement
event (:meth:`repro.engine.resources.Store.put_nowait`).  A send costs 3
kernel events, a receive 3.  The chains are the only delivery
machinery, on both costing paths, so traced, faulted and sanitized runs
execute the same code as clean runs.

Observability and fault injection are hooks on the chains.  With a
tracer installed, :meth:`HCA._tx_begin` opens an ``ib.tx`` span and
:meth:`HCA._on_arrival` an ``ib.rx`` span; the span record rides down
the chain as an argument (None when tracing is off) and is closed where
the chain ends.  Under a fault plan, :meth:`HCA._deliver` drops or
corrupts packets, :meth:`HCA._on_arrival` suppresses duplicates and
leaves a message alone while it waits on a receive WR (the sender sees
RNR), and :meth:`HCA._tx_launch` starts the ack-timeout watchdog — the
one kernel process the adapter spawns, and the only retransmission
implementation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import (Any, Callable, Dict, Generator, Optional, Sequence,
                    Set, Tuple)

from repro import fastpath, sanitize, trace
from repro.analysis.counters import CounterSet
from repro.engine.clock import TickClock
from repro.engine.core import NORMAL, Event, SimKernel
from repro.engine.resources import Resource
from repro.faults import FaultInjector
from repro.ib.att import ATTCache
from repro.ib.bus import BusModel
from repro.ib.link import IBLink
from repro.ib.registration import RegistrationEngine
from repro.ib.verbs import (
    SGE,
    CompletionQueue,
    IBVerbsError,
    MemoryRegion,
    ProtectionDomain,
    QueuePair,
    RecvWR,
    SendWR,
    WorkCompletion,
)
from repro.mem.address_space import AddressSpace

_seq = itertools.count(1)

#: the open ``ib.tx``/``ib.rx`` span record a delivery chain carries to
#: its end (:meth:`repro.trace.Tracer.open_span`), None when untraced
_Span = Optional[Dict[str, Any]]


@dataclass(frozen=True)
class HCAConfig:
    """Adapter-side fixed costs (ns)."""

    #: CPU cost to build a WQE (descriptor assembly in the send path)
    post_base_ns: float = 700.0
    #: CPU cost per SGE appended to a WQE
    post_per_sge_ns: float = 16.0
    #: DMA-engine cost per SGE beyond the first (descriptor parse + new
    #: gather stream; the engine fetches buffers concurrently, §4)
    sge_extra_ns: float = 60.0
    #: beyond this many SGEs the DMA engine's descriptor pipeline is full
    #: and the marginal per-SGE cost drops (the paper's observation that
    #: 128 SGEs cost only ~3x one SGE: "this overhead does not increase
    #: linearly")
    sge_pipeline_depth: int = 4
    #: marginal per-SGE cost once the descriptor pipeline is primed
    sge_extra_pipelined_ns: float = 10.0
    #: fetching/consuming one pre-posted receive WQE
    recv_wqe_ns: float = 160.0
    #: writing one CQE to host memory
    cqe_write_ns: float = 170.0
    #: CPU cost of one completion-queue poll
    poll_ns: float = 190.0
    #: fixed adapter pipeline cost per processed WQE
    process_ns: float = 380.0


@dataclass
class _Packet:
    """What travels on the wire between two HCAs.

    ``stream_ns`` is how long the message's data keeps streaming after
    the first byte arrives — the slower of the sender's gather and the
    wire serialization.  The receiver overlaps its scatter DMA with that
    stream, so its bus hold is ``max(stream_ns, scatter_ns)``; this is
    the mechanism that hides ATT stalls inside bus/link slack (Opteron/
    PCIe) but exposes them when the bus is the bottleneck (Xeon/PCI-X).
    """

    kind: str  # "send" | "rdma_write" | "ack"
    src_qp: int
    dst_qp: int
    seq: int
    wr_id: int
    nbytes: int
    payload: Any = None
    remote_addr: int = 0
    rkey: int = 0
    status: str = "success"
    stream_ns: float = 0.0
    #: set by fault injection: the payload fails the receiver's ICRC
    #: check and the whole message is discarded on arrival
    corrupt: bool = False


class Wire:
    """A point-to-point cable between two HCAs (both directions)."""

    def __init__(self, kernel: SimKernel):
        self.kernel = kernel
        self._ends: Dict[int, "HCA"] = {}

    def attach(self, hca: "HCA") -> None:
        """Connect one HCA end."""
        if len(self._ends) >= 2 and id(hca) not in self._ends:
            raise IBVerbsError("a wire has exactly two ends")
        self._ends[id(hca)] = hca

    def deliver(self, sender: "HCA", packet: _Packet, delay_ticks: int) -> None:
        """Schedule *packet* to arrive at the far end after *delay_ticks*.

        Arrival is a single scheduled callback, not a spawned process: a
        cable has no state to model between launch and landing, and one
        heap entry per packet instead of three (process start, timeout,
        process exit) is a measurable share of the event budget.
        """
        others = [h for key, h in self._ends.items() if key != id(sender)]
        if not others:
            raise IBVerbsError("wire has no far end attached")
        dest = others[0]

        def _arrive(_ev, dest=dest, packet=packet, wire=self):
            dest._on_arrival(packet, wire)

        ev = self.kernel.event()
        ev._triggered = True
        ev.callbacks.append(_arrive)
        self.kernel._schedule(ev, delay_ticks, NORMAL)


class HCA:
    """One adapter instance (see module docstring)."""

    def __init__(
        self,
        kernel: SimKernel,
        clock: TickClock,
        bus: BusModel,
        link: IBLink,
        att: ATTCache,
        reg_engine: RegistrationEngine,
        config: Optional[HCAConfig] = None,
        counters: Optional[CounterSet] = None,
        name: str = "hca",
        faults: Optional[FaultInjector] = None,
    ):
        self.kernel = kernel
        self.clock = clock
        self.bus = bus
        self.link = link
        self.att = att
        self.reg = reg_engine
        self.config = config if config is not None else HCAConfig()
        self.counters = counters if counters is not None else CounterSet()
        self.name = name
        #: fault injector, or None.  Kept None unless the plan is active
        #: so every fault hook below reduces to one ``is not None`` test
        #: on the fault-free path — fault machinery costs nothing off.
        self.faults = faults if (faults is not None and faults.active) else None
        #: inbound send/rdma_write seqs being processed right now (the
        #: window where a sender's retransmission means RNR, not loss)
        self._rx_inflight: Set[int] = set()
        #: inbound seqs fully processed, mapped to their ack status so a
        #: duplicate retransmission is re-acked, never re-executed
        self._rx_seen: Dict[int, str] = {}
        self._wires: Dict[int, Wire] = {}
        self._qps: Dict[int, QueuePair] = {}
        self._mrs_by_lkey: Dict[int, MemoryRegion] = {}
        self._mrs_by_rkey: Dict[int, MemoryRegion] = {}
        self._outstanding: Dict[int, Tuple[QueuePair, SendWR]] = {}
        #: payload objects landed by inbound RDMA writes, keyed by
        #: ``(rkey, target vaddr)`` — ranks sharing this HCA have separate
        #: address spaces whose layouts may coincide, so the vaddr alone
        #: is ambiguous; the rkey pins the region (drained by the
        #: rendezvous receiver)
        self.rdma_landed: Dict[tuple, Any] = {}
        #: payload objects a local process has exposed for remote RDMA
        #: reads, keyed by ``(rkey, vaddr)`` (set by the read-rendezvous
        #: sender, fetched by inbound read requests)
        self.rdma_exposed: Dict[tuple, Any] = {}

    # -- wiring -------------------------------------------------------------
    def attach_wire(self, peer: "HCA", wire: Wire) -> None:
        """Plug this HCA into a cable leading to *peer*."""
        wire.attach(self)
        self._wires[id(peer)] = wire

    def wire_to(self, peer: "HCA") -> Wire:
        """The cable towards *peer* (cables are created by Machine/Cluster
        wiring, see :func:`connect_hcas`)."""
        wire = self._wires.get(id(peer))
        if wire is None:
            raise IBVerbsError(f"{self.name} has no wire to {peer.name}")
        return wire

    @staticmethod
    def connect_pair(qp_a: QueuePair, hca_a: "HCA", qp_b: QueuePair, hca_b: "HCA") -> None:
        """Bring two QPs to RTS pointing at each other (the HCAs must
        already share a wire, see :func:`connect_hcas`)."""
        qp_a.connect(hca_b, qp_b.qp_num)
        qp_b.connect(hca_a, qp_a.qp_num)

    # -- memory registration ----------------------------------------------------
    def register_memory(
        self, aspace: AddressSpace, pd: ProtectionDomain, vaddr: int, length: int
    ) -> Generator:
        """Register a buffer (a timed CPU+bus operation).

        Use as ``mr = yield from hca.register_memory(...)``.
        """
        tracer = trace.active()
        if tracer is None:
            return (yield from self._register_impl(aspace, pd, vaddr, length))
        with tracer.span("ib.mr.register", track=self.name, bytes=length):
            return (yield from self._register_impl(aspace, pd, vaddr, length))

    def _register_impl(
        self, aspace: AddressSpace, pd: ProtectionDomain, vaddr: int, length: int
    ) -> Generator:
        mr, ns = self.reg.register(aspace, pd, vaddr, length)
        self._mrs_by_lkey[mr.lkey] = mr
        self._mrs_by_rkey[mr.rkey] = mr
        yield self.kernel.timeout(self.clock.ns_to_ticks(ns))
        return mr

    def deregister_memory(self, aspace: AddressSpace, mr: MemoryRegion) -> Generator:
        """Deregister *mr* (timed)."""
        tracer = trace.active()
        if tracer is None:
            yield from self._deregister_impl(aspace, mr)
            return
        with tracer.span("ib.mr.deregister", track=self.name, bytes=mr.length):
            yield from self._deregister_impl(aspace, mr)

    def _deregister_impl(self, aspace: AddressSpace, mr: MemoryRegion) -> Generator:
        ns = self.reg.deregister(aspace, mr)
        self._mrs_by_lkey.pop(mr.lkey, None)
        self._mrs_by_rkey.pop(mr.rkey, None)
        yield self.kernel.timeout(self.clock.ns_to_ticks(ns))

    def lookup_mr(self, lkey: int) -> MemoryRegion:
        """The MR registered under *lkey*."""
        mr = self._mrs_by_lkey.get(lkey)
        san = sanitize._active
        if san is not None and san.mr:
            # distinguishes a deregistered key from a never-valid one
            # before the generic verbs error below
            san.check_lkey(mr, lkey, "lookup_mr")
        if mr is None or not mr.registered:
            raise IBVerbsError(f"invalid lkey {lkey:#x}")
        return mr

    # -- QP lifecycle --------------------------------------------------------------
    def create_qp(
        self,
        pd: ProtectionDomain,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        max_sge: int = 128,
        max_send_wr: int = 128,
    ) -> QueuePair:
        """Create a QP and start its send engine."""
        qp = QueuePair(self.kernel, pd, send_cq, recv_cq,
                       max_sge=max_sge, max_send_wr=max_send_wr)
        if self.faults is not None:
            plan = self.faults.plan
            qp.retry_cnt = plan.retry_cnt
            qp.rnr_retry = plan.rnr_retry
            if plan.ack_timeout_ns is not None:
                qp.ack_timeout_ns = plan.ack_timeout_ns
        self._qps[qp.qp_num] = qp
        self._tx_rearm(qp)
        return qp

    # -- posting (CPU side) -----------------------------------------------------------
    def post_send(self, qp: QueuePair, wr: SendWR) -> Generator:
        """Post a send WR: WQE build + doorbell (the paper's near-constant
        'post' cost), then hand off to the adapter."""
        tracer = trace.active()
        if tracer is None:
            yield from self._post_send_impl(qp, wr)
            return
        with tracer.span("ib.post_send", track=self.name, opcode=wr.opcode,
                         bytes=wr.total_bytes, sges=len(wr.sges)):
            yield from self._post_send_impl(qp, wr)

    def _post_send_impl(self, qp: QueuePair, wr: SendWR) -> Generator:
        if not qp.connected:
            raise IBVerbsError(
                f"post_send on QP {qp.qp_num} in state {qp.state} "
                "(RTS required)"
            )
        if len(wr.sges) > qp.max_sge:
            raise IBVerbsError(f"{len(wr.sges)} SGEs exceeds QP max of {qp.max_sge}")
        san = sanitize._active
        for sge in wr.sges:
            mr = self.lookup_mr(sge.lkey)
            if not mr.contains(sge.addr, sge.length):
                raise IBVerbsError(
                    f"SGE [{sge.addr:#x}+{sge.length}] outside MR {mr.mr_id}"
                )
            if san is not None and san.mr:
                san.check_dma(mr, sge.addr, sge.length, "post_send")
        ns = (
            self.config.post_base_ns
            + len(wr.sges) * self.config.post_per_sge_ns
            + self.bus.doorbell_ns()
        )
        self.counters.add("hca.post_send")
        if not qp.wr_slots.try_acquire():  # blocks while the queue is full
            yield qp.wr_slots.request()
        yield self.kernel.timeout(self.clock.ns_to_ticks(ns))
        qp.send_q.put_nowait(wr)

    def post_recv(self, qp: QueuePair, wr: RecvWR) -> Generator:
        """Post a receive WR (no doorbell on the fast path)."""
        yield self.kernel.timeout(self.post_recv_ticks(qp, wr))
        qp.recv_q.put_nowait(wr)

    def post_recv_ticks(self, qp: QueuePair, wr: RecvWR) -> int:
        """Check a receive WR and count its post; returns the post's CPU
        cost, after which the WR goes on *qp*'s receive queue.  Shared by
        :meth:`post_recv` and callback-driven consumers (a CQ handler
        reposting a buffer)."""
        san = sanitize._active
        for sge in wr.sges:
            mr = self.lookup_mr(sge.lkey)
            if not mr.contains(sge.addr, sge.length):
                raise IBVerbsError(
                    f"SGE [{sge.addr:#x}+{sge.length}] outside MR {mr.mr_id}"
                )
            if san is not None and san.mr:
                san.check_dma(mr, sge.addr, sge.length, "post_recv")
        ns = self.config.post_base_ns * 0.6 + len(wr.sges) * self.config.post_per_sge_ns
        self.counters.add("hca.post_recv")
        return self.clock.ns_to_ticks(ns)

    # -- completion consumption (CPU side) ------------------------------------------------
    def wait_completion(self, cq: CompletionQueue) -> Generator:
        """Block until a CQE is available, consume it (one poll cost).

        A CQ with a consumer handler (:meth:`CompletionQueue.set_handler`)
        is not polled: its CQEs belong to the handler."""
        if cq.handler is not None:
            raise IBVerbsError(
                f"wait_completion on CQ {cq.cq_id}, which has a handler")
        wc = cq.store.try_get()
        if wc is None:
            wc = yield cq.store.get()
        yield self.poll_cost()
        return wc

    def poll_cost(self, value: Any = None) -> Event:
        """The CPU cost of one CQ poll as a kernel-owned timeout carrying
        *value* (:meth:`wait_completion` and CQ handlers both charge it)."""
        return self.kernel.timeout(self.clock.ns_to_ticks(self.config.poll_ns),
                                   value)

    # -- chain plumbing ---------------------------------------------------------------------
    def _after(self, delay_ticks: int,
               callback: Callable[[Event], None]) -> None:
        """Schedule *callback* to run after *delay_ticks* (one event)."""
        ev = self.kernel.event()
        ev._triggered = True
        ev.callbacks.append(callback)
        self.kernel._schedule(ev, delay_ticks, NORMAL)

    @staticmethod
    def _acquire(channel: Resource, then: Callable[..., None], *args: Any) -> None:
        """Call ``then(*args)`` once *channel* is held: synchronously when
        a slot is free (no grant event), else as the grant's callback."""
        if channel.try_acquire():
            then(*args)
        else:
            channel.request().callbacks.append(lambda _ev: then(*args))

    @staticmethod
    def _close_span(span: _Span) -> None:
        """End the ``ib.tx``/``ib.rx`` span a chain carries (None when
        the chain started with tracing off)."""
        if span is not None:
            trace.active().close_span(span)

    # -- adapter send pipeline ----------------------------------------------------------------
    def _tx_rearm(self, qp: QueuePair) -> None:
        """Arm the send engine: wait for the next posted WR."""
        ev = qp.send_q.get()
        ev.callbacks.append(lambda ev, qp=qp: self._tx_begin(qp, ev.value))

    def _tx_begin(self, qp: QueuePair, wr: SendWR) -> None:
        tracer = trace.active()
        span = None if tracer is None else tracer.open_span(
            "ib.tx", self.name, opcode=wr.opcode, bytes=wr.total_bytes,
            sges=len(wr.sges))
        if not qp.connected:
            # the QP left RTS (SQE/ERROR after retry exhaustion) while
            # this WR sat in the send queue: flush it with an error CQE,
            # as real RC QPs do for queued work in an error state
            if self.faults is not None:
                self.faults.counters.add("faults.qp.flushed")
            self._after(
                self.clock.ns_to_ticks(self.config.cqe_write_ns),
                lambda _ev: self._tx_flushed(qp, wr, span),
            )
            return
        # WQE fetch is a short exclusive bus read
        self._acquire(self.bus.read_channel, self._tx_fetch, qp, wr, span)

    def _tx_fetch(self, qp: QueuePair, wr: SendWR, span: _Span) -> None:
        self._after(
            self.clock.ns_to_ticks(self.bus.wqe_fetch_ns(len(wr.sges))),
            lambda _ev: self._tx_launch(qp, wr, span),
        )

    def _tx_launch(self, qp: QueuePair, wr: SendWR, span: _Span) -> None:
        # data gather streams over the bus *while* the link serializes;
        # the wire carries the first bytes after pipeline + latency, and
        # the message keeps streaming for max(gather, serialization).
        # An RDMA-read WR carries no local data outbound: it is a small
        # request packet; the data streams back in the response.
        self.bus.read_channel.release()
        if wr.opcode == "rdma_read":
            gather_ns = 0.0
            ser_ns = self.link.serialization_ns(16)
        else:
            gather_ns = self._gather_ns(wr)
            ser_ns = self.link.serialization_ns(wr.total_bytes)
        seq = next(_seq)
        self._outstanding[seq] = (qp, wr)
        packet = _Packet(
            kind=wr.opcode,
            src_qp=qp.qp_num,
            dst_qp=qp.peer_qp_num,
            seq=seq,
            wr_id=wr.wr_id,
            nbytes=wr.total_bytes,
            payload=wr.payload,
            remote_addr=wr.remote_addr,
            rkey=wr.rkey,
            stream_ns=max(gather_ns, ser_ns),
        )
        self.counters.add("hca.tx_messages")
        if wr.opcode != "rdma_read":
            self.counters.add("hca.tx_bytes", wr.total_bytes)
        wire = self.wire_to(qp.peer_hca)
        self._deliver(
            wire,
            packet,
            self.clock.ns_to_ticks(self.config.process_ns + self.link.config.latency_ns),
        )
        if self.faults is not None:
            self.kernel.process(
                self._retry_watchdog(qp, packet, wire),
                name=f"{self.name}-watchdog-{packet.seq}",
            )
        # the send engine (and the bus read channel) stay busy for the
        # whole gather; the next WR on this QP starts after it
        self._acquire(self.bus.read_channel, self._tx_drain, qp,
                      self.clock.ns_to_ticks(gather_ns), span)

    def _tx_drain(self, qp: QueuePair, gather_ticks: int, span: _Span) -> None:
        self._after(gather_ticks, lambda _ev: self._tx_done(qp, span))

    def _tx_done(self, qp: QueuePair, span: _Span) -> None:
        self.bus.read_channel.release()
        self._close_span(span)
        self._tx_rearm(qp)

    def _tx_flushed(self, qp: QueuePair, wr: SendWR, span: _Span) -> None:
        """Complete a queued WR with a flush error (QP not in RTS)."""
        self._send_cqe(qp, wr, "work-request-flushed-error")
        self._close_span(span)
        self._tx_rearm(qp)

    @staticmethod
    def _send_cqe(qp: QueuePair, wr: SendWR, status: str) -> None:
        """Write *wr*'s send-side CQE and free its send-queue slot."""
        qp.send_cq.push(
            WorkCompletion(
                wr_id=wr.wr_id,
                opcode=wr.opcode,
                byte_len=wr.total_bytes,
                status=status,
            )
        )
        qp.wr_slots.release()

    def _att_range_ns(self, mr: MemoryRegion, addr: int, nbytes: int) -> float:
        """ATT stall for a DMA over ``[addr, addr+nbytes)`` of *mr*.

        One bulk sweep on the fast path (the entry indices of a DMA are
        consecutive), a per-entry walk on the reference path — both drive
        the same LRU state and counters.
        """
        entries = mr.entries_for(addr, nbytes)
        if not entries:  # zero-byte DMA: no translation walked
            return 0.0
        tracer = trace.active()
        if tracer is not None:
            tracer.instant("ib.att.range", track=self.name,
                           entries=len(entries))
        if fastpath.enabled():
            _, misses = self.att.sweep_range(mr.mr_id, entries.start, len(entries))
            return misses * self.att.config.fetch_ns
        ns = 0.0
        for entry in entries:
            _, stall = self.att.access(mr.mr_id, entry)
            ns += stall
        return ns

    def _gather_ns(self, wr: SendWR) -> float:
        """Bus-side cost of gathering all SGEs of *wr* (incl. ATT).

        A zero-byte WR launches no data DMA: the message is header-only
        and its cost floor is the link's per-packet time (see
        :meth:`repro.ib.link.IBLink.serialization_ns`), identical on the
        fast and reference costing paths.
        """
        if wr.total_bytes == 0:
            return 0.0
        cfg = self.config
        ns = self.bus.config.dma_setup_ns
        for i, sge in enumerate(wr.sges):
            if sge.length == 0:
                continue
            mr = self.lookup_mr(sge.lkey)
            ns += self._att_range_ns(mr, sge.addr, sge.length)
            ns += self.bus.bursts_for(sge.addr, sge.length) * self.bus.config.burst_ns
            ns += self.bus.offset_adjust_ns(sge.addr)
            if i > 0:
                if i < cfg.sge_pipeline_depth:
                    ns += cfg.sge_extra_ns
                else:
                    ns += cfg.sge_extra_pipelined_ns
        ns += self.bus.stream_ns(wr.total_bytes)
        return max(0.0, ns)
    # -- fault injection & RC retransmission ---------------------------------
    def _deliver(self, wire: Wire, packet: _Packet, delay_ticks: int) -> None:
        """Put *packet* on *wire*, subject to injected loss/corruption.

        A dropped packet simply never arrives; a corrupted one arrives
        flagged and is discarded by the receiver's ICRC check.  Both are
        recovered by the sender's ack-timeout watchdog.
        """
        faults = self.faults
        if faults is not None:
            # acks and read *requests* are single small packets; the
            # read data rides in the response.  packets_for(0) is 1 — a
            # zero-byte message is still one header-only packet on the
            # wire, so it sees the same loss/corruption odds everywhere.
            if packet.kind not in ("ack", "rdma_read"):
                n_packets = self.link.packets_for(packet.nbytes)
            else:
                n_packets = 1
            if faults.message_dropped(n_packets):
                return
            if faults.message_corrupted(n_packets):
                packet = replace(packet, corrupt=True)
        wire.deliver(self, packet, delay_ticks)

    def _retry_watchdog(self, qp: QueuePair, packet: _Packet, wire: Wire) -> Generator:
        """Ack-timeout timer for one outbound message (runs only when
        fault injection is active).

        Sleeps for the QP's ack timeout (scaled so a clean exchange of
        this message always beats the timer), then: done if the ack
        arrived; an RNR wait if the receiver holds the message awaiting
        a receive WR (honouring ``rnr_retry``, where 7 = forever);
        otherwise a retransmission with exponential backoff, up to
        ``retry_cnt`` attempts before the send completes with a
        transport-retry-exceeded error CQE.
        """
        cfg = self.config
        link = self.link
        # floor: one full round trip of this message with margin — the
        # IB Local Ack Timeout is likewise quantized well above the RTT
        base_ns = max(
            qp.ack_timeout_ns,
            3.0
            * (
                cfg.process_ns
                + link.config.latency_ns
                + packet.stream_ns
                + link.ack_ns()
                + cfg.recv_wqe_ns
                + cfg.cqe_write_ns
            ),
        )
        base_ticks = max(1, self.clock.ns_to_ticks(base_ns))
        t0 = self.kernel.now
        attempts = 0
        rnr_waits = 0
        while True:
            yield self.kernel.timeout(base_ticks << min(attempts, 6))
            if packet.seq not in self._outstanding:
                # acked (or aborted elsewhere); record how long recovery
                # took if we actually had to retransmit
                if attempts:
                    self.faults.counters.add(
                        "faults.qp.recovery_ticks", self.kernel.now - t0
                    )
                return
            peer = qp.peer_hca
            if peer is not None and packet.seq in peer._rx_inflight:
                # delivered but waiting on a receive WR: the RNR NAK
                # path, governed by rnr_retry (7 = retry forever)
                self.faults.counters.add("faults.qp.rnr_naks")
                rnr_waits += 1
                if qp.rnr_retry != 7 and rnr_waits > qp.rnr_retry:
                    yield from self._abort_send(
                        qp, packet, "rnr-retry-exceeded-error"
                    )
                    return
                continue
            if attempts >= qp.retry_cnt:
                yield from self._abort_send(
                    qp, packet, "transport-retry-exceeded-error"
                )
                return
            attempts += 1
            self.faults.counters.add("faults.qp.retries")
            tracer = trace.active()
            if tracer is not None:
                tracer.instant("ib.qp.retry", track=self.name,
                               attempt=attempts, kind=packet.kind,
                               bytes=packet.nbytes)
            self._deliver(
                wire,
                packet,
                self.clock.ns_to_ticks(cfg.process_ns + link.config.latency_ns),
            )

    def _abort_send(self, qp: QueuePair, packet: _Packet, status: str) -> Generator:
        """Give up on an outbound message: error CQE, QP drops to SQE."""
        entry = self._outstanding.pop(packet.seq, None)
        if entry is None:
            return
        _, wr = entry
        self.faults.counters.add("faults.qp.retry_exhausted")
        tracer = trace.active()
        if tracer is not None:
            tracer.instant("ib.qp.abort", track=self.name, status=status,
                           kind=packet.kind, bytes=packet.nbytes)
        if qp.state == "RTS":
            qp.modify("SQE")
        yield self.kernel.timeout(self.clock.ns_to_ticks(self.config.cqe_write_ns))
        self._send_cqe(qp, wr, status)

    # -- adapter receive pipeline ------------------------------------------------------------
    def _on_arrival(self, packet: _Packet, wire: Wire) -> None:
        if packet.corrupt:
            # failed the ICRC check: discard silently; the sender's
            # ack-timeout watchdog retransmits
            if self.faults is not None:
                self.faults.counters.add("faults.link.rejected")
            return
        kind = packet.kind
        if kind == "ack":
            self._rx_ack(packet)
            return
        if self.faults is not None and kind in ("send", "rdma_write"):
            # retransmissions must be idempotent: a message being
            # processed is left alone (the sender sees RNR), a message
            # already processed is re-acked with its recorded status
            if packet.seq in self._rx_inflight:
                self.faults.counters.add("faults.qp.duplicates")
                return
            if packet.seq in self._rx_seen:
                self.faults.counters.add("faults.qp.duplicates")
                self._send_ack(packet, self._rx_seen[packet.seq], wire)
                return
            self._rx_inflight.add(packet.seq)
        tracer = trace.active()
        span = None if tracer is None else tracer.open_span(
            "ib.rx", self.name, kind=kind, bytes=packet.nbytes)
        if kind == "send":
            self._rx_send_begin(packet, wire, span)
        elif kind == "rdma_write":
            self._rx_write_begin(packet, wire, span)
        elif kind == "rdma_read":
            self._rx_read_request(packet, wire, span)
        elif kind == "read_response":
            self._rx_read_response(packet, span)
        else:  # pragma: no cover - defensive
            raise IBVerbsError(f"unknown packet kind {kind!r}")

    def _rx_ack(self, packet: _Packet) -> None:
        """Complete the acked send after the CQE write."""
        entry = self._outstanding.pop(packet.seq, None)
        if entry is None:
            if self.faults is not None:
                # a duplicate ack for a message already completed (or
                # aborted): expected under retransmission, drop it
                self.faults.counters.add("faults.qp.stale_acks")
                return
            raise IBVerbsError(f"ack for unknown sequence {packet.seq}")
        qp, wr = entry
        self._after(
            self.clock.ns_to_ticks(self.config.cqe_write_ns),
            lambda _ev: self._send_cqe(qp, wr, packet.status),
        )

    def _scatter_ns(self, sges: Sequence[SGE], payload_bytes: int) -> float:
        """Bus-side cost of scattering an inbound message.

        Zero payload bytes scatter nothing (the header-only-message
        counterpart of :meth:`_gather_ns`).
        """
        if payload_bytes == 0:
            return 0.0
        ns = self.bus.config.dma_setup_ns
        remaining = payload_bytes
        for i, sge in enumerate(sges):
            if remaining <= 0:
                break
            use = min(sge.length, remaining)
            mr = self.lookup_mr(sge.lkey)
            ns += self._att_range_ns(mr, sge.addr, use)
            ns += self.bus.bursts_for(sge.addr, use) * self.bus.config.burst_ns
            ns += self.bus.offset_adjust_ns(sge.addr)
            if i > 0:
                if i < self.config.sge_pipeline_depth:
                    ns += self.config.sge_extra_ns
                else:
                    ns += self.config.sge_extra_pipelined_ns
            remaining -= use
        ns += self.bus.stream_ns(payload_bytes)
        return ns

    def _rx_send_begin(self, packet: _Packet, wire: Wire, span: _Span) -> None:
        """Two-sided receive: consume a posted receive WR, scatter, CQE."""
        qp = self._qps.get(packet.dst_qp)
        if qp is None:
            raise IBVerbsError(f"send targets unknown QP {packet.dst_qp}")
        recv_wr = qp.recv_q.try_get()
        if recv_wr is not None:
            self._rx_send_fetch(qp, recv_wr, packet, wire, span)
        else:
            # RC semantics: without a posted receive the sender would see
            # RNR retries; we model it as waiting for the receive to be
            # posted
            qp.recv_q.get().callbacks.append(
                lambda ev: self._rx_send_fetch(qp, ev.value, packet, wire, span)
            )

    def _rx_send_fetch(
        self, qp: QueuePair, recv_wr: RecvWR, packet: _Packet, wire: Wire,
        span: _Span,
    ) -> None:
        status = "success"
        if recv_wr.total_bytes < packet.nbytes:
            status = "local-length-error"
        self._after(
            self.clock.ns_to_ticks(self.config.recv_wqe_ns),
            lambda _ev: self._rx_send_grant(qp, recv_wr, packet, wire, status, span),
        )

    def _rx_send_grant(
        self, qp: QueuePair, recv_wr: RecvWR, packet: _Packet, wire: Wire,
        status: str, span: _Span,
    ) -> None:
        self._acquire(self.bus.write_channel, self._rx_send_scatter,
                      qp, recv_wr, packet, wire, status, span)

    def _rx_send_scatter(
        self, qp: QueuePair, recv_wr: RecvWR, packet: _Packet, wire: Wire,
        status: str, span: _Span,
    ) -> None:
        # the scatter overlaps the inbound stream; the bus is busy for
        # whichever is longer, plus the CQE write.  The ATT is walked at
        # the grant instant.
        scatter_ns = self._scatter_ns(
            recv_wr.sges, min(packet.nbytes, recv_wr.total_bytes)
        )
        ns = max(scatter_ns, packet.stream_ns) + self.config.cqe_write_ns
        self._after(
            self.clock.ns_to_ticks(ns),
            lambda _ev: self._rx_send_done(qp, recv_wr, packet, wire, status, span),
        )

    def _rx_send_done(
        self, qp: QueuePair, recv_wr: RecvWR, packet: _Packet, wire: Wire,
        status: str, span: _Span,
    ) -> None:
        self.bus.write_channel.release()
        self.counters.add("hca.rx_messages")
        self.counters.add("hca.rx_bytes", packet.nbytes)
        qp.recv_cq.push(
            WorkCompletion(
                wr_id=recv_wr.wr_id,
                opcode="recv",
                byte_len=packet.nbytes,
                status=status,
                payload=packet.payload,
            )
        )
        self._rx_done(packet, status, wire, span)

    def _rx_write_begin(self, packet: _Packet, wire: Wire, span: _Span) -> None:
        """One-sided write: scatter into the rkey's region, no CQE."""
        mr = self._mrs_by_rkey.get(packet.rkey)
        san = sanitize._active
        if san is not None and san.mr:
            # catch the use-after-dereg rkey here, at the faulting rx,
            # instead of quietly answering remote-access-error below
            san.check_rkey(mr, packet.rkey, packet.remote_addr,
                           packet.nbytes, "rdma_write.rx")
        if (
            mr is None
            or not mr.registered
            or not mr.contains(packet.remote_addr, packet.nbytes)
        ):
            self._rx_done(packet, "remote-access-error", wire, span)
            return
        self._acquire(self.bus.write_channel, self._rx_write_scatter,
                      mr, packet, wire, span)

    def _rx_write_scatter(self, mr: MemoryRegion, packet: _Packet, wire: Wire,
                          span: _Span) -> None:
        scatter_ns = self.bus.config.dma_setup_ns
        scatter_ns += self._att_range_ns(mr, packet.remote_addr, packet.nbytes)
        scatter_ns += self.bus.bursts_for(packet.remote_addr, packet.nbytes) * \
            self.bus.config.burst_ns
        scatter_ns += self.bus.stream_ns(packet.nbytes)
        ns = max(scatter_ns, packet.stream_ns)
        self._after(
            self.clock.ns_to_ticks(ns),
            lambda _ev: self._rx_write_done(packet, wire, span),
        )

    def _rx_write_done(self, packet: _Packet, wire: Wire, span: _Span) -> None:
        self.bus.write_channel.release()
        self.rdma_landed[(packet.rkey, packet.remote_addr)] = packet.payload
        self.counters.add("hca.rx_messages")
        self.counters.add("hca.rx_bytes", packet.nbytes)
        self._rx_done(packet, "success", wire, span)

    def _rx_done(self, packet: _Packet, status: str, wire: Wire, span: _Span) -> None:
        """Finish an inbound send or write: record it as processed (so a
        later retransmission of it is re-acked, not re-executed), ack it,
        end its span."""
        if self.faults is not None:
            self._rx_inflight.discard(packet.seq)
            self._rx_seen[packet.seq] = status
        self._send_ack(packet, status, wire)
        self._close_span(span)

    def _rx_read_request(self, packet: _Packet, wire: Wire, span: _Span) -> None:
        """Responder half of an RDMA read: gather the exposed region
        and stream it back as a read response."""
        mr = self._mrs_by_rkey.get(packet.rkey)
        san = sanitize._active
        if san is not None and san.mr:
            san.check_rkey(mr, packet.rkey, packet.remote_addr,
                           packet.nbytes, "rdma_read.rx")
        status = "success"
        if mr is None or not mr.registered or not mr.contains(
            packet.remote_addr, packet.nbytes
        ):
            status = "remote-access-error"
        gather_ns = 0.0
        if status == "success":
            gather_ns = self.bus.config.dma_setup_ns
            gather_ns += self._att_range_ns(mr, packet.remote_addr, packet.nbytes)
            gather_ns += self.bus.bursts_for(
                packet.remote_addr, packet.nbytes
            ) * self.bus.config.burst_ns
            gather_ns += self.bus.stream_ns(packet.nbytes)
            self.counters.add("hca.tx_bytes", packet.nbytes)
        payload = self.rdma_exposed.get((packet.rkey, packet.remote_addr))
        ser_ns = self.link.serialization_ns(packet.nbytes)
        # the response streams while the gather runs (same overlap as the
        # send path); the first bytes leave after pipeline + latency
        response = _Packet(
            kind="read_response",
            src_qp=packet.dst_qp,
            dst_qp=packet.src_qp,
            seq=packet.seq,
            wr_id=packet.wr_id,
            nbytes=packet.nbytes,
            payload=payload,
            status=status,
            stream_ns=max(gather_ns, ser_ns),
        )
        self._deliver(
            wire, response,
            self.clock.ns_to_ticks(
                self.config.process_ns + self.link.config.latency_ns
            ),
        )
        if status != "success":
            self._close_span(span)
            return
        self._acquire(self.bus.read_channel, self._rx_read_gather,
                      self.clock.ns_to_ticks(gather_ns), span)

    def _rx_read_gather(self, gather_ticks: int, span: _Span) -> None:
        self._after(gather_ticks, lambda _ev: self._rx_read_served(span))

    def _rx_read_served(self, span: _Span) -> None:
        self.bus.read_channel.release()
        self._close_span(span)

    def _rx_read_response(self, packet: _Packet, span: _Span) -> None:
        """Initiator half: scatter the returned data locally, complete."""
        entry = self._outstanding.pop(packet.seq, None)
        if entry is None:
            if self.faults is not None:
                # duplicate response from a retransmitted read request
                self.faults.counters.add("faults.qp.stale_acks")
                self._close_span(span)
                return
            raise IBVerbsError(f"read response for unknown seq {packet.seq}")
        qp, wr = entry
        if packet.status != "success":
            self._rx_read_complete(qp, wr, packet, span)
            return
        self._acquire(self.bus.write_channel, self._rx_read_scatter,
                      qp, wr, packet, span)

    def _rx_read_scatter(self, qp: QueuePair, wr: SendWR, packet: _Packet,
                         span: _Span) -> None:
        scatter_ns = self._scatter_ns(wr.sges, packet.nbytes)
        ns = max(scatter_ns, packet.stream_ns) + self.config.cqe_write_ns
        self._after(
            self.clock.ns_to_ticks(ns),
            lambda _ev: self._rx_read_done(qp, wr, packet, span),
        )

    def _rx_read_done(self, qp: QueuePair, wr: SendWR, packet: _Packet,
                      span: _Span) -> None:
        self.bus.write_channel.release()
        self.counters.add("hca.rx_messages")
        self.counters.add("hca.rx_bytes", packet.nbytes)
        self._rx_read_complete(qp, wr, packet, span)

    def _rx_read_complete(self, qp: QueuePair, wr: SendWR, packet: _Packet,
                          span: _Span) -> None:
        qp.send_cq.push(
            WorkCompletion(
                wr_id=wr.wr_id,
                opcode="rdma_read",
                byte_len=packet.nbytes,
                status=packet.status,
                payload=packet.payload,
            )
        )
        qp.wr_slots.release()
        self._close_span(span)

    def _send_ack(self, packet: _Packet, status: str, wire: Wire) -> None:
        ack = _Packet(
            kind="ack",
            src_qp=packet.dst_qp,
            dst_qp=packet.src_qp,
            seq=packet.seq,
            wr_id=packet.wr_id,
            nbytes=0,
            status=status,
        )
        self._deliver(wire, ack, self.clock.ns_to_ticks(self.link.ack_ns()))
