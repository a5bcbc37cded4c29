"""Self-tests of the benchmark's own machinery (no timing involved).

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import pytest

from perfbench import ops, spans
from perfbench.run import percentile, samples_beyond


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- golden digests ----------------------------------------------------------

def test_digest_lookup_hit_miss_and_unknown_op():
    golden = {"nas:CG:4k": "abc"}
    assert ops.check_digest(golden, "nas:CG:4k", "abc") is None
    assert "golden abc" in ops.check_digest(golden, "nas:CG:4k", "abd")
    assert "no golden digest" in ops.check_digest(golden, "nas:CG:2m", "abc")


@pytest.mark.parametrize("name", sorted(ops.WORKLOADS))
def test_golden_covers_the_universe_and_both_seeds(name):
    workload = ops.WORKLOADS[name]
    golden = ops.load_golden(name)
    universe = {ops.key(op) for op in workload.universe()}
    assert set(golden) == universe
    for seed in (ops.DEFAULT_SEED, ops.HELD_OUT_SEED, 12345):
        assert {ops.key(op) for op in ops.generate(workload, seed)} <= universe
    assert ops.key(workload.warmup) in universe


def test_digest_sees_every_number():
    from repro.workloads.train import TrainResult

    result = TrainResult(msg_bytes=64, count=2, window=1, total_ticks=10,
                         analytic_period_ticks=4, tx_messages=2, rx_messages=2)
    base = ops.digest(result, {"hca.post_send": 2})
    assert base == ops.digest(result, {"hca.post_send": 2})
    assert base != ops.digest(result, {"hca.post_send": 3})
    moved = TrainResult(msg_bytes=64, count=2, window=1, total_ticks=11,
                        analytic_period_ticks=4, tx_messages=2, rx_messages=2)
    assert base != ops.digest(moved, {"hca.post_send": 2})


# -- self time -----------------------------------------------------------------

def test_self_time_subtracts_child_spans_in_a_nested_tree():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    a = tracer.enter("workloads")            # t=0
    clock.now = 1.0
    b = tracer.enter("mpi")                  # t=1
    same = tracer.enter("mpi")               # same layer: no new span
    assert same is False
    clock.now = 2.0
    c = tracer.enter("ib")                   # t=2
    clock.now = 5.0
    tracer.leave(c)                          # ib 2..5
    tracer.leave(same)
    clock.now = 6.0
    tracer.leave(b)                          # mpi 1..6, child 3
    clock.now = 7.0
    c2 = tracer.enter("ib")
    clock.now = 8.0
    tracer.leave(c2)                         # ib 7..8
    clock.now = 10.0
    tracer.leave(a)                          # workloads 0..10, children 6
    self_s, counts = tracer.take()
    assert self_s == {"workloads": 4.0, "mpi": 2.0, "ib": 4.0}
    assert sum(self_s.values()) == 10.0
    assert counts == {}


def test_take_refuses_open_spans():
    tracer = spans.Tracer(FakeClock())
    tracer.enter("mem")
    with pytest.raises(RuntimeError):
        tracer.take()


def test_generators_are_timed_per_resume_not_while_waiting():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def body():
        clock.now += 1.0          # work in the first resume
        got = yield "wait"
        clock.now += 2.0          # work in the second resume
        return got * 2

    gen = tracer.resumed("ib", body())
    assert next(gen) == "wait"
    clock.now += 100.0            # simulated waiting, outside any resume
    with pytest.raises(StopIteration) as stop:
        gen.send(21)
    assert stop.value.value == 42
    assert tracer.take()[0] == {"ib": 3.0}


def test_wrapped_calls_are_counted_only_across_a_boundary():
    tracer = spans.Tracer(FakeClock())

    def mmap(length):
        return length

    count = spans._counter(("mem.mmap_calls", None), ("mem.mmap_mb", "length"))
    wrapped = tracer.wrap("mem", mmap, count(mmap))
    assert wrapped(4096) == 4096
    opened = tracer.enter("mem")
    wrapped(8192)                 # inside mem already: not a boundary
    tracer.leave(opened)
    assert tracer.take()[1] == {"mem.mmap_calls": 1, "mem.mmap_mb": 4096}


def test_instrumentation_installs_and_removes_every_wrapper():
    from repro.engine.core import SimKernel
    from repro.mem.address_space import AddressSpace

    originals = (SimKernel.__dict__["timeout"], AddressSpace.__dict__["mmap"])
    inst = spans.Instrumentation(spans.Tracer())
    inst.install()
    try:
        assert inst.installed > 50
        assert SimKernel.__dict__["timeout"] is not originals[0]
    finally:
        inst.remove()
    assert (SimKernel.__dict__["timeout"], AddressSpace.__dict__["mmap"]) == originals
    assert inst.installed == 0


def test_traced_op_matches_its_golden_digest_and_accounts_for_its_time():
    workload = ops.WORKLOADS["verbs-train"]
    op = (1024, 4, 200)
    log = ops.MachineLog()
    tracer = spans.Tracer()
    inst = spans.Instrumentation(tracer)
    log.install()
    inst.install()
    try:
        result = workload.run(op)
    finally:
        inst.remove()
        log.remove()
    assert ops.digest(result, log.take_counters()) == \
        ops.load_golden(workload.name)[ops.key(op)]
    self_s, counts = tracer.take()
    assert set(self_s) >= {"workloads", "systems", "engine", "ib", "mem"}
    assert min(self_s.values()) >= 0
    assert counts["systems.clusters"] == 1
    assert counts["engine.processes"] == 2


# -- percentiles ---------------------------------------------------------------

def test_nearest_rank_percentile_and_the_sample_count_rule():
    samples = [float(i) for i in range(1, 101)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 90) == 90.0
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9           # too few for p90
    assert samples_beyond(110, 90) == 11
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


# -- seeded op generator -------------------------------------------------------

@pytest.mark.parametrize("name", sorted(ops.WORKLOADS))
def test_same_seed_same_ops_and_held_out_seed_differs(name):
    workload = ops.WORKLOADS[name]
    default = ops.generate(workload, ops.DEFAULT_SEED)
    assert default == ops.generate(workload, ops.DEFAULT_SEED)
    assert default != ops.generate(workload, ops.HELD_OUT_SEED)


def test_cycles_ask_for_the_same_work_under_every_seed():
    imb, train = ops.WORKLOADS["imb-sendrecv"], ops.WORKLOADS["verbs-train"]
    for seed in range(20):
        imb_cycle = ops.generate(imb, seed)
        assert sum(sum(op[2]) for op in imb_cycle) == \
            sum(sum(op[2]) for op in ops.generate(imb, 0))
        train_cycle = ops.generate(train, seed)
        assert sorted(op[2] for op in train_cycle) == sorted(train.CYCLE_COUNTS)
        assert sorted(op[1] for op in train_cycle) == sorted(train.WINDOWS * 2)


# -- BENCHMARK.json --------------------------------------------------------------

def test_benchmark_json_names_every_metric_the_runs_report():
    import json
    from pathlib import Path

    from perfbench import run

    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(ops.WORKLOADS)
    per_layer = [f"{layer}.self_s" for layer in spans.LAYERS]
    per_layer += list(spans.COUNT_METRICS) + list(run.counter_metrics([]))
    per_layer += ["trace.overhead_ratio", "trace.unattributed_ratio"]
    assert sorted(m["name"] for m in doc["per_layer"]) == sorted(per_layer)
    assert [m["name"] for m in doc["end_to_end"]] == [
        "ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb"]
