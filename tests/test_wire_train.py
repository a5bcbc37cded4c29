"""The wire-train contract, and watching a run does not change it.

The simulated back-to-back message train (:mod:`repro.workloads.train`),
carried by the HCA's delivery chains (:mod:`repro.ib.hca`), must agree
tick-exactly with the **closed form**
:func:`repro.workloads.train.analytic_period_ticks` built on
:meth:`repro.ib.link.IBLink.train_ns`.

The chains are the adapter's only delivery machinery, so installing a
tracer must not change which code runs: a clean train, a faulted
transfer and a read-protocol rendezvous each give the same ticks,
counters, payloads and kernel event/frame counts with and without one.
"""

from __future__ import annotations

import contextlib

import pytest

from repro import fastpath, trace
from repro.faults import FaultPlan
from repro.ib.link import IBLink, LinkConfig
from repro.mpi import MPIConfig, MPIWorld
from repro.systems import Cluster, presets
from repro.workloads import train
from repro.workloads.train import run_train

KB = 1024


# ---------------------------------------------------------------------------
# IBLink.train_ns: the closed-form wire half
# ---------------------------------------------------------------------------


class TestTrainNs:
    def test_is_count_times_serialization(self):
        link = IBLink(LinkConfig())
        for nbytes in (0, 1, 1024, 2048, 2049, 65536):
            one = link.serialization_ns(nbytes)
            assert link.train_ns(nbytes, 1) == one
            assert link.train_ns(nbytes, 7) == pytest.approx(7 * one)
        assert link.train_ns(1024, 0) == 0.0

    def test_negative_count_rejected(self):
        link = IBLink(LinkConfig())
        with pytest.raises(ValueError, match="negative message count"):
            link.train_ns(1024, -1)

    def test_zero_byte_train_pays_packet_floor(self):
        # a train of headers is still a train of packets, never free
        link = IBLink(LinkConfig())
        assert link.train_ns(0, 5) == 5 * link.config.packet_ns


# ---------------------------------------------------------------------------
# the tick-exact pin: simulated train vs analytic period
# ---------------------------------------------------------------------------


class TestClosedFormPin:
    """With ``window=1`` the pipeline is strictly sequential, so train
    *differences* cancel the cold-ATT first message and the steady state
    must march at exactly ``analytic_period_ticks`` per message."""

    @pytest.mark.parametrize("msg_bytes", [64, 1024, 4096])
    def test_steady_state_period_matches_analytic(self, msg_bytes):
        base = run_train(msg_bytes=msg_bytes, count=1, window=1)
        longer = run_train(msg_bytes=msg_bytes, count=6, window=1)
        assert longer.analytic_period_ticks == base.analytic_period_ticks
        assert (
            longer.total_ticks - base.total_ticks
            == 5 * base.analytic_period_ticks
        )

    def test_period_is_positive_and_linear(self):
        r3 = run_train(msg_bytes=1024, count=3, window=1)
        r5 = run_train(msg_bytes=1024, count=5, window=1)
        assert r3.analytic_period_ticks > 0
        assert r5.total_ticks - r3.total_ticks == 2 * r3.analytic_period_ticks

    def test_counters_see_every_message(self):
        res = run_train(msg_bytes=512, count=9, window=4)
        assert res.tx_messages == 9
        assert res.rx_messages == 9
        assert res.ticks_per_msg == res.total_ticks / 9


# ---------------------------------------------------------------------------
# identity: watching a run does not change it
# ---------------------------------------------------------------------------


def _train_run(monkeypatch):
    made = []

    class RecordingCluster(Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(train, "Cluster", RecordingCluster)
    res = run_train(msg_bytes=2048, count=40, window=8)
    return made[0], (res.total_ticks, res.tx_messages, res.rx_messages)


def _mpi_run(fault_plan=None, rndv_protocol="write", n_msgs=6, size=64 * KB):
    cluster = Cluster(presets.opteron_infinihost_pcie(), 2,
                      fault_plan=fault_plan)
    world = MPIWorld(cluster, ppn=1,
                     config=MPIConfig(rndv_protocol=rndv_protocol))

    def program(comm):
        buf = comm.proc.malloc(size)
        if comm.rank == 0:
            for i in range(n_msgs):
                yield from comm.send(1, 10 + i, size, addr=buf,
                                     payload=("msg", i))
            return None
        got = []
        for i in range(n_msgs):
            payload, *_ = yield from comm.recv(0, 10 + i, addr=buf)
            got.append(payload)
        return got

    results = world.run(program)
    assert results[1].value == [("msg", i) for i in range(n_msgs)]
    return cluster, [(r.value, r.app_ticks) for r in results]


SCENARIOS = {
    "clean-train": _train_run,
    "link-loss": lambda _mp: _mpi_run(
        fault_plan=FaultPlan(link_loss=0.02, seed=7)),
    "read-rendezvous": lambda _mp: _mpi_run(rndv_protocol="read",
                                            size=256 * KB),
}


def _observe(scenario, monkeypatch, tracer):
    capture = (trace.capturing(tracer) if tracer is not None
               else contextlib.nullcontext())
    with capture:
        cluster, result = SCENARIOS[scenario](monkeypatch)
    k = cluster.kernel
    return {
        "now": k.now,
        "events": k._events,
        "frames": k._frames,
        "counters": cluster.aggregate_counters(),
        "result": result,
    }


class TestIdentity:
    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_tracing_does_not_change_the_run(self, scenario, fast, monkeypatch):
        tracer = trace.Tracer()
        with fastpath.forced(fast):
            plain = _observe(scenario, monkeypatch, None)
            traced = _observe(scenario, monkeypatch, tracer)
        assert traced == plain
        # the traced run really watched the adapter
        spans = {(ev["name"], ev["args"].get("kind")) for ev in tracer.events
                 if ev["ph"] == "X" and ev["name"] in ("ib.tx", "ib.rx")}
        assert ("ib.tx", None) in spans
        if scenario == "read-rendezvous":
            assert {("ib.rx", "rdma_read"), ("ib.rx", "read_response")} <= spans
        else:
            assert ("ib.rx", "send") in spans
        if scenario == "link-loss":
            assert plain["counters"]["faults.qp.retries"] > 0

    def test_window_only_overlaps_never_reorders(self):
        # more window = more overlap = fewer total ticks, same messages
        narrow = run_train(msg_bytes=1024, count=30, window=1)
        wide = run_train(msg_bytes=1024, count=30, window=16)
        assert wide.total_ticks < narrow.total_ticks
        assert (wide.tx_messages, wide.rx_messages) == (30, 30)


# ---------------------------------------------------------------------------
# argument validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [dict(msg_bytes=0), dict(count=0), dict(window=0)],
    ids=["msg_bytes", "count", "window"],
)
def test_run_train_rejects_degenerate_arguments(kwargs):
    with pytest.raises(ValueError, match="must be >= 1"):
        run_train(**kwargs)
