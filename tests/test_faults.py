"""Fault-injection subsystem: plans, the QP state machine, recovery.

Covers the ISSUE's acceptance demos: a rendezvous transfer over a lossy
link completing via retransmission, retry exhaustion surfacing as an
error CQE and a clean MPI exception (never a hang), mid-run hugepage
depletion degrading to base pages with identical results, and the
zero-plan bit-identical guarantee.
"""

import pytest

from repro.analysis.report import degradation_report
from repro.core.placement import BufferPlacer, PlacementPolicy
from repro.faults import (
    FaultInjector,
    FaultPlan,
    MPITransportError,
    PermanentRegistrationError,
    TransientRegistrationError,
)
from repro.ib.hca import HCA
from repro.ib.verbs import (
    SGE,
    CompletionQueue,
    IBVerbsError,
    ProtectionDomain,
    RecvWR,
    SendWR,
)
from repro.mpi.api import MPIConfig, MPIWorld
from repro.systems import Cluster, presets
from repro.systems.machine import Machine
from repro.engine import SimKernel

KB = 1024
MB = 1024 * 1024


# ---------------------------------------------------------------------------
# FaultPlan / FaultInjector units
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_default_plan_is_inert(self):
        assert not FaultPlan().active

    def test_any_knob_activates(self):
        assert FaultPlan(link_loss=0.01).active
        assert FaultPlan(link_corrupt=0.5).active
        assert FaultPlan(reg_transient=0.1).active
        assert FaultPlan(reg_permanent=0.1).active
        assert FaultPlan(hugepage_deplete_after=0).active

    def test_retry_knobs_alone_do_not_activate(self):
        # retry parameters without a fault source inject nothing
        assert not FaultPlan(retry_cnt=2, rnr_retry=3,
                             ack_timeout_ns=1000.0).active

    def test_from_spec(self):
        plan = FaultPlan.from_spec(
            "link_loss=0.01, reg_transient=0.2,retry_cnt=3", seed=7
        )
        assert plan.link_loss == 0.01
        assert plan.reg_transient == 0.2
        assert plan.retry_cnt == 3
        assert plan.seed == 7

    def test_from_spec_rejects_unknown_knob(self):
        with pytest.raises(ValueError, match="unknown fault knob"):
            FaultPlan.from_spec("packet_loss=0.1")

    def test_from_spec_rejects_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            FaultPlan.from_spec("link_loss")

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(link_loss=1.5)
        with pytest.raises(ValueError):
            FaultPlan(rnr_retry=8)
        with pytest.raises(ValueError):
            FaultPlan(hugepage_deplete_after=-1)

    def test_with_seed(self):
        plan = FaultPlan(link_loss=0.5).with_seed(99)
        assert plan.seed == 99 and plan.link_loss == 0.5


class TestFaultInjector:
    def test_same_seed_same_decisions(self):
        a = FaultInjector(FaultPlan(link_loss=0.3, seed=5))
        b = FaultInjector(FaultPlan(link_loss=0.3, seed=5))
        assert [a.message_dropped(4) for _ in range(50)] == [
            b.message_dropped(4) for _ in range(50)
        ]

    def test_drop_counts(self):
        inj = FaultInjector(FaultPlan(link_loss=1.0))
        assert inj.message_dropped(1)
        assert inj.counters.get("faults.link.dropped") == 1

    def test_hugepage_depletion_is_permanent(self):
        inj = FaultInjector(FaultPlan(hugepage_deplete_after=2))
        assert [inj.hugepage_request_denied() for _ in range(5)] == [
            False, False, True, True, True
        ]
        assert inj.counters.get("faults.mem.hugepage_denied") == 3


# ---------------------------------------------------------------------------
# QP state machine (satellite: IBVerbsError messages name the state)
# ---------------------------------------------------------------------------
def _make_qp():
    k = SimKernel()
    pd = ProtectionDomain.fresh()
    from repro.ib.verbs import QueuePair

    return QueuePair(k, pd, CompletionQueue(k), CompletionQueue(k))


class TestQPStateMachine:
    def test_initial_state_is_reset(self):
        assert _make_qp().state == "RESET"

    def test_connect_reaches_rts(self):
        qp = _make_qp()
        qp.connect(object(), 42)
        assert qp.state == "RTS" and qp.connected

    def test_double_connect_raises(self):
        qp = _make_qp()
        qp.connect(object(), 42)
        with pytest.raises(IBVerbsError, match="already connected \\(RTS\\)"):
            qp.connect(object(), 43)

    def test_reconnect_after_reset_is_allowed(self):
        qp = _make_qp()
        qp.connect(object(), 42)
        qp.reset()
        assert qp.state == "RESET" and qp.peer_qp_num is None
        qp.connect(object(), 44)
        assert qp.peer_qp_num == 44

    def test_illegal_transition_names_both_states(self):
        qp = _make_qp()
        with pytest.raises(IBVerbsError, match="RESET -> RTS"):
            qp.modify("RTS")

    def test_unknown_state_rejected(self):
        with pytest.raises(IBVerbsError, match="unknown QP state"):
            _make_qp().modify("RTD")

    def test_sqe_recovers_to_rts(self):
        qp = _make_qp()
        qp.connect(object(), 42)
        qp.modify("SQE")
        assert not qp.connected
        qp.modify("RTS")
        assert qp.connected

    def test_post_send_error_names_state(self):
        cluster = Cluster(presets.opteron_infinihost_pcie(), 2)
        node = cluster.nodes[0]
        pd = ProtectionDomain.fresh()
        k = cluster.kernel
        qp = node.hca.create_qp(pd, CompletionQueue(k), CompletionQueue(k))
        with pytest.raises(IBVerbsError, match="state RESET"):
            gen = node.hca.post_send(
                qp, SendWR(wr_id=1, sges=[SGE(0, 8, 0)])
            )
            next(gen)


# ---------------------------------------------------------------------------
# verbs-level recovery and exhaustion
# ---------------------------------------------------------------------------
def _verbs_pair(fault_plan):
    cluster = Cluster(presets.opteron_infinihost_pcie(), 2,
                      fault_plan=fault_plan)
    k = cluster.kernel
    a, b = cluster.nodes
    pa, pb = a.new_process(), b.new_process()
    buf_a = pa.aspace.mmap(MB).start
    buf_b = pb.aspace.mmap(MB).start
    pd_a, pd_b = ProtectionDomain.fresh(), ProtectionDomain.fresh()
    cqs = {name: CompletionQueue(k) for name in ("sa", "ra", "sb", "rb")}
    qa = a.hca.create_qp(pd_a, cqs["sa"], cqs["ra"])
    qb = b.hca.create_qp(pd_b, cqs["sb"], cqs["rb"])
    HCA.connect_pair(qa, a.hca, qb, b.hca)
    return cluster, (a, pa, buf_a, pd_a, qa), (b, pb, buf_b, pd_b, qb), cqs


class TestVerbsLevelFaults:
    def test_retry_exhaustion_yields_error_cqe_not_hang(self):
        """link_loss=1.0: nothing ever arrives; the sender must get a
        completion-with-error CQE after retry_cnt retransmissions and
        the QP must drain to SQE."""
        plan = FaultPlan(link_loss=1.0, retry_cnt=2, ack_timeout_ns=20_000.0)
        cluster, (a, pa, buf_a, pd_a, qa), _, cqs = _verbs_pair(plan)
        k = cluster.kernel
        got = {}

        def sender():
            mr = yield from a.hca.register_memory(pa.aspace, pd_a, buf_a, MB)
            yield from a.hca.post_send(
                qa, SendWR(wr_id=1, sges=[SGE(buf_a, 4 * KB, mr.lkey)])
            )
            wc = yield from a.hca.wait_completion(cqs["sa"])
            got["status"] = wc.status

        k.process(sender())
        k.run()  # terminates: the watchdog gives up, nothing hangs
        assert got["status"] == "transport-retry-exceeded-error"
        assert qa.state == "SQE"
        counters = cluster.aggregate_counters()
        assert counters["faults.qp.retries"] == 2
        assert counters["faults.qp.retry_exhausted"] == 1

    def test_queued_wrs_flushed_after_exhaustion(self):
        """A WR still sitting in the send queue when the QP drains to
        SQE completes with a flush error, not silently."""
        plan = FaultPlan(link_loss=1.0, retry_cnt=1, ack_timeout_ns=20_000.0)
        cluster, (a, pa, buf_a, pd_a, qa), _, cqs = _verbs_pair(plan)
        k = cluster.kernel
        statuses = []

        def sender():
            mr = yield from a.hca.register_memory(pa.aspace, pd_a, buf_a, MB)
            yield from a.hca.post_send(
                qa, SendWR(wr_id=1, sges=[SGE(buf_a, 1 * KB, mr.lkey)])
            )
            wc = yield from a.hca.wait_completion(cqs["sa"])
            statuses.append((wc.wr_id, wc.status))
            assert qa.state == "SQE"
            # model the race where WR 2 was already queued when the QP
            # left RTS: enqueue directly (post_send would refuse now)
            yield qa.wr_slots.request()
            qa.send_q.put(SendWR(wr_id=2, sges=[SGE(buf_a, 1 * KB, mr.lkey)]))
            wc = yield from a.hca.wait_completion(cqs["sa"])
            statuses.append((wc.wr_id, wc.status))

        k.process(sender())
        k.run()
        assert dict(statuses) == {
            1: "transport-retry-exceeded-error",
            2: "work-request-flushed-error",
        }
        assert cluster.aggregate_counters()["faults.qp.flushed"] == 1

    def test_flush_cqes_preserve_submission_order(self):
        """After the drain to SQE, every queued WR flushes in submission
        order: the retry-exceeded CQE first, then one flush-error CQE
        per queued WR, wr_ids in the order they were posted."""
        plan = FaultPlan(link_loss=1.0, retry_cnt=1, ack_timeout_ns=20_000.0)
        cluster, (a, pa, buf_a, pd_a, qa), _, cqs = _verbs_pair(plan)
        k = cluster.kernel
        statuses = []

        def sender():
            mr = yield from a.hca.register_memory(pa.aspace, pd_a, buf_a, MB)
            yield from a.hca.post_send(
                qa, SendWR(wr_id=1, sges=[SGE(buf_a, 1 * KB, mr.lkey)])
            )
            wc = yield from a.hca.wait_completion(cqs["sa"])
            statuses.append((wc.wr_id, wc.status))
            assert qa.state == "SQE"
            # three WRs were already queued when the QP left RTS
            for wr_id in (2, 3, 4):
                yield qa.wr_slots.request()
                qa.send_q.put(SendWR(wr_id=wr_id,
                                     sges=[SGE(buf_a, 1 * KB, mr.lkey)]))
            for _ in range(3):
                wc = yield from a.hca.wait_completion(cqs["sa"])
                statuses.append((wc.wr_id, wc.status))

        k.process(sender())
        k.run()
        assert statuses[0] == (1, "transport-retry-exceeded-error")
        assert statuses[1:] == [
            (2, "work-request-flushed-error"),
            (3, "work-request-flushed-error"),
            (4, "work-request-flushed-error"),
        ]
        assert cluster.aggregate_counters()["faults.qp.flushed"] == 3

    def test_lossy_send_recovers_by_retransmission(self):
        """Every first transmission drops (then the injector's stream
        runs dry of failures at p<1 eventually): with retry budget the
        payload still lands exactly once."""
        plan = FaultPlan(link_loss=0.15, seed=3, retry_cnt=7,
                         ack_timeout_ns=20_000.0)
        cluster, (a, pa, buf_a, pd_a, qa), (b, pb, buf_b, pd_b, qb), cqs = \
            _verbs_pair(plan)
        k = cluster.kernel
        got = {}

        def sender():
            mr = yield from a.hca.register_memory(pa.aspace, pd_a, buf_a, MB)
            yield from a.hca.post_send(
                qa,
                SendWR(wr_id=1, sges=[SGE(buf_a, 8 * KB, mr.lkey)],
                       payload="PRECIOUS"),
            )
            wc = yield from a.hca.wait_completion(cqs["sa"])
            got["send_status"] = wc.status

        def receiver():
            mr = yield from b.hca.register_memory(pb.aspace, pd_b, buf_b, MB)
            yield from b.hca.post_recv(
                qb, RecvWR(wr_id=2, sges=[SGE(buf_b, 16 * KB, mr.lkey)])
            )
            wc = yield from b.hca.wait_completion(cqs["rb"])
            got["payload"] = wc.payload

        k.process(sender())
        k.process(receiver())
        k.run()
        assert got == {"send_status": "success", "payload": "PRECIOUS"}


# ---------------------------------------------------------------------------
# MPI-level recovery: the lossy-link acceptance demo
# ---------------------------------------------------------------------------
def _run_transfers(fault_plan, n_msgs=6, size=48 * KB, rndv_protocol="write"):
    """N rendezvous transfers rank 0 -> rank 1; returns
    (cluster, received payloads, slowest rank's app ticks)."""
    cluster = Cluster(presets.opteron_infinihost_pcie(), n_nodes=2,
                      fault_plan=fault_plan)
    world = MPIWorld(cluster, ppn=1,
                     config=MPIConfig(rndv_protocol=rndv_protocol))

    def program(comm):
        placer = BufferPlacer(comm.proc)
        buf = placer.place(size, PlacementPolicy.SMALL_PAGES, offset=0)
        if comm.rank == 0:
            for i in range(n_msgs):
                yield from comm.send(1, 10 + i, size, addr=buf.addr,
                                     payload=("msg", i))
            return None
        got = []
        for i in range(n_msgs):
            payload, *_ = yield from comm.recv(0, 10 + i, addr=buf.addr)
            got.append(payload)
        return got

    results = world.run(program)
    return cluster, results[1].value, max(r.app_ticks for r in results)


class TestLossyLinkDemo:
    def test_rendezvous_completes_over_lossy_link(self):
        """The ISSUE's demo: 1-2% loss, transfers complete correctly via
        retransmission, drops/retries/recovery visible in the report."""
        _, base_payloads, base_ticks = _run_transfers(None)
        plan = FaultPlan(link_loss=0.02, seed=1)
        cluster, payloads, ticks = _run_transfers(plan)
        expected = [("msg", i) for i in range(6)]
        assert payloads == expected == base_payloads
        counters = cluster.aggregate_counters()
        assert counters.get("faults.link.dropped", 0) >= 1
        assert counters.get("faults.qp.retries", 0) >= 1
        assert ticks > base_ticks  # slower, never wrong
        report = degradation_report(counters, clock=cluster.clock)
        assert "faults.link.dropped" in report
        assert "faults.qp.retries" in report
        assert "recovery latency" in report

    def test_corruption_recovered_like_loss(self):
        plan = FaultPlan(link_corrupt=0.05, seed=2)
        cluster, payloads, _ = _run_transfers(plan)
        assert payloads == [("msg", i) for i in range(6)]
        counters = cluster.aggregate_counters()
        assert counters.get("faults.link.corrupted", 0) >= 1
        assert counters.get("faults.link.rejected", 0) >= 1

    def test_read_rendezvous_recovers_too(self):
        plan = FaultPlan(link_loss=0.02, seed=4)
        cluster, payloads, _ = _run_transfers(plan, rndv_protocol="read")
        assert payloads == [("msg", i) for i in range(6)]
        assert cluster.aggregate_counters().get("faults.link.dropped", 0) >= 1

    def test_total_loss_raises_clean_mpi_error(self):
        """Exhausting retry_cnt must surface as an exception from
        MPIWorld.run, not a deadlock/hang."""
        plan = FaultPlan(link_loss=1.0, retry_cnt=1, ack_timeout_ns=20_000.0)
        with pytest.raises(MPITransportError, match="failed|aborted"):
            _run_transfers(plan, n_msgs=1)

    @pytest.mark.parametrize("step", [
        "barrier", "allreduce", "allgather", "alltoallv", "scan", "sendrecv",
    ])
    def test_exhausted_collective_step_raises_in_rank_program(self, step):
        """A collective or sendrecv step whose halves run as join
        children delivers the abort to the rank program; the run ends."""
        exhausting = FaultPlan(link_loss=1.0, retry_cnt=1,
                               ack_timeout_ns=20_000.0)
        cluster = Cluster(presets.opteron_infinihost_pcie(), n_nodes=2,
                          fault_plan=exhausting)
        # a clean link for endpoint setup and the opening barrier; the
        # QPs keep the exhausting plan's retry_cnt
        cluster.faults.plan = FaultPlan(retry_cnt=1, ack_timeout_ns=20_000.0)
        world = MPIWorld(cluster, ppn=1)
        seen = []

        def program(comm):
            cluster.faults.plan = exhausting
            calls = {
                "barrier": lambda: comm.barrier(),
                "allreduce": lambda: comm.allreduce(8, value=1),
                "allgather": lambda: comm.allgather(8, value=1),
                "alltoallv": lambda: comm.alltoallv([8, 8]),
                "scan": lambda: comm.scan(8, value=1),
                "sendrecv": lambda: comm.sendrecv(1 - comm.rank, 1, 8,
                                                  source=1 - comm.rank),
            }
            try:
                yield from calls[step]()
            except MPITransportError as exc:
                seen.append(comm.rank)
                assert "transport-retry-exceeded-error" in str(exc)
                raise

        with pytest.raises(MPITransportError, match="aborted"):
            world.run(program)
        assert seen


# ---------------------------------------------------------------------------
# registration faults through the regcache (transient retried, permanent
# surfaced; cache invalidated on failure)
# ---------------------------------------------------------------------------
class TestRegistrationFaults:
    def test_transient_failures_retried_transparently(self):
        plan = FaultPlan(reg_transient=0.3, seed=2)
        cluster, payloads, _ = _run_transfers(plan)
        assert payloads == [("msg", i) for i in range(6)]
        counters = cluster.aggregate_counters()
        assert counters.get("faults.reg.transient", 0) >= 1
        assert counters.get("faults.regcache.retries", 0) >= 1

    def test_permanent_failure_raises_cleanly(self):
        plan = FaultPlan(reg_permanent=1.0)
        with pytest.raises(PermanentRegistrationError):
            _run_transfers(plan, n_msgs=1)

    def test_engine_raises_before_pinning(self):
        """An injected registration failure must not leak page pins."""
        cluster = Cluster(presets.opteron_infinihost_pcie(), 1,
                          fault_plan=FaultPlan(reg_transient=1.0))
        machine = cluster.nodes[0]
        proc = machine.new_process()
        vma = proc.aspace.mmap(MB)
        with pytest.raises(TransientRegistrationError):
            machine.reg_engine.register(
                proc.aspace, ProtectionDomain.fresh(), vma.start, MB
            )
        for page in proc.aspace.page_table.pages_in_range(vma.start, MB):
            assert page.pin_count == 0


# ---------------------------------------------------------------------------
# mid-run hugepage depletion (satellite regression test)
# ---------------------------------------------------------------------------
class TestHugepageDepletion:
    def test_midrun_depletion_falls_back_to_base_pages(self):
        """After the pool seizes, hugepage_lib serves base-page mappings,
        counts the fallback, and allocations keep working."""
        from repro.core.library import preload_hugepage_library

        cluster = Cluster(presets.opteron_infinihost_pcie(), 1,
                          fault_plan=FaultPlan(hugepage_deplete_after=2))
        proc = cluster.nodes[0].new_process()
        lib = preload_hugepage_library(proc).allocator
        # two pool acquires succeed; each maps a 2 MB chunk that serves
        # two 1 MB mallocs
        early = [proc.malloc(1 * MB) for _ in range(4)]
        assert all(lib.is_hugepage_backed(p) for p in early)
        # ...then the pool seizes mid-run: transparent 4 KB fallback
        p5 = proc.malloc(1 * MB)
        assert not lib.is_hugepage_backed(p5)
        assert proc.counters.get("alloc.hugepage_lib.fallback") == 1
        counters = cluster.aggregate_counters()
        assert counters["faults.mem.hugepage_denied"] >= 1
        report = degradation_report(counters)
        assert "alloc.hugepage_lib.fallback" in report

    def test_workload_completes_identically_on_fallback(self):
        """The ISSUE's regression: deplete the pool mid-run; the MPI
        workload is slower but bit-for-bit *correct*."""
        def run(plan):
            cluster = Cluster(presets.opteron_infinihost_pcie(), n_nodes=2,
                              fault_plan=plan)
            world = MPIWorld(cluster, ppn=1, config=MPIConfig())

            def program(comm):
                placer = BufferPlacer(comm.proc)
                buf = placer.place(64 * KB, PlacementPolicy.HUGE_PAGES,
                                   offset=0)
                other = 1 - comm.rank
                got = []
                for i in range(4):
                    if comm.rank == 0:
                        yield from comm.send(other, i, 64 * KB,
                                             addr=buf.addr,
                                             payload=("blk", i))
                        yield from comm.recv(other, 100 + i, addr=buf.addr)
                    else:
                        payload, *_ = yield from comm.recv(0, i,
                                                           addr=buf.addr)
                        got.append(payload)
                        yield from comm.send(other, 100 + i, 64 * KB,
                                             addr=buf.addr,
                                             payload=("ok", i))
                return got

            results = world.run(program)
            return cluster, results[1].value, max(r.app_ticks
                                                  for r in results)

        _, base_payloads, base_ticks = run(None)
        # deplete after the very first acquire: most placements fall back
        cluster, payloads, ticks = run(FaultPlan(hugepage_deplete_after=1))
        assert payloads == base_payloads  # identical results, never wrong
        counters = cluster.aggregate_counters()
        assert counters.get("faults.mem.hugepage_denied", 0) >= 1
        assert ticks >= base_ticks


# ---------------------------------------------------------------------------
# zero-cost guarantee and report formatting
# ---------------------------------------------------------------------------
class TestZeroPlanIsFree:
    def test_inactive_plan_attaches_nothing(self):
        cluster = Cluster(presets.opteron_infinihost_pcie(), 2,
                          fault_plan=FaultPlan())
        assert cluster.faults is None
        for node in cluster.nodes:
            assert node.hca.faults is None
            assert node.hugetlbfs.faults is None
            assert node.reg_engine.faults is None

    def test_benchmark_bit_identical_with_empty_plan(self):
        from repro.workloads.imb import SendRecvBenchmark

        bench = SendRecvBenchmark(presets.opteron_infinihost_pcie)
        sizes = [4 * KB, 64 * KB]
        plain = bench.run(sizes, hugepages=True, lazy_dereg=True)
        empty = bench.run(sizes, hugepages=True, lazy_dereg=True,
                          fault_plan=FaultPlan())
        assert [r.ticks_per_iter for r in plain.rows] == \
               [r.ticks_per_iter for r in empty.rows]


class TestDegradationReport:
    def test_no_faults_message(self):
        assert "no faults injected" in degradation_report({})
        assert "no faults injected" in degradation_report(
            {"hca.tx_messages": 10}
        )

    def test_classification(self):
        report = degradation_report({
            "faults.link.dropped": 3,
            "faults.qp.retries": 3,
            "faults.qp.retry_exhausted": 1,
            "alloc.hugepage_lib.fallback": 2,
        })
        for expected in ("injected", "recovered", "aborted", "degraded",
                         "WARNING"):
            assert expected in report
