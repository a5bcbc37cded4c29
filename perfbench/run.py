"""The repository's benchmark: a closed loop of simulator driver calls.

Run from the repository root::

    python3 perfbench/run.py --workload nas --seed 0 --seconds 20 --trace 0

One process runs one op at a time, back to back, on one thread.  The
seed draws a cycle of ops (see ``perfbench/ops.py``); the run repeats the
cycle until ``--seconds`` have passed, always ending on a whole cycle,
and every op's outputs are checked against the committed golden digests.

``--trace 0`` reports the end-to-end host-time metrics.  ``--trace 1``
runs the cycle untraced and then traced with span wrappers on every
layer, and reports per-layer self time and work counts.  The last line
of standard output is one JSON object; see ``perfbench/README.md``.

Times are calibrated host time: a fixed pure-Python reference loop runs
before every op, and each op's time is scaled by how much slower or
faster than nominal the reference loop ran around it, so a shared
machine's speed swings do not read as changes of the program.
"""

import heapq
import random
import time
from array import array

#: the reference loop's time at the nominal speed calibrated times refer to
REFERENCE_S = 0.001
#: how strongly op times follow the reference loop's time: regressing
#: log op time on log reference time over shared-machine speed swings
#: gave slopes of 0.69-0.85 for every workload, so times are corrected
#: by that share of the reference's swing, not by all of it
CALIBRATION_EXPONENT = 0.75

# the reference loop's data: a 4 MB table it reads at scattered places
_TABLE = array("l", range(1 << 19))
_RNG = random.Random(2006)
_PICKS = [_RNG.randrange(len(_TABLE)) for _ in range(4096)]


def reference_loop() -> float:
    """Seconds one pass of a fixed, program-independent loop takes now.

    It is a miniature event loop with the simulator's mix of work: a heap
    of pending events, generator resumes, tuple churn and scattered reads
    of a table larger than a core's private caches.
    """

    def process(steps: int):
        total = 0
        for _ in range(steps):
            total += yield total

    start = time.perf_counter()
    queue: list = []
    for seq in range(24):
        gen = process(50)
        next(gen)
        heapq.heappush(queue, (seq, seq, gen))
    seq = 24
    picks = 0
    while queue:
        when, _, gen = heapq.heappop(queue)
        delay = _TABLE[_PICKS[picks & 4095]] & 7
        picks += 1
        try:
            gen.send(delay)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(queue, (when + delay + 1, seq, gen))
    return time.perf_counter() - start


_REF_BEFORE = sorted(reference_loop() for _ in range(3))[1]
_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MB = 1024 * 1024

#: ops a run needs, so that the 90th percentile has 10 samples beyond it
MIN_OPS = 100
#: a run stops starting cycles after this many seconds, whatever it has
HARD_CAP_S = 150.0
#: set-ups measured per untraced run (this process and fresh processes)
SETUP_SAMPLES = 5
#: share of ``--seconds`` the traced run spends on its untraced pass
UNTRACED_SHARE = 0.35
#: the traced run repeats the cycle at least this often, so counts can
#: be compared between repeats
MIN_TRACED_CYCLES = 2
#: op time outside every layer span may be at most this share
MAX_UNATTRIBUTED = 0.05


def calibration(reference_s: float) -> float:
    """Factor turning host time measured while the reference loop took
    *reference_s* into calibrated time."""
    return (REFERENCE_S / reference_s) ** CALIBRATION_EXPONENT


def _rank(n: int, pct: int) -> int:
    """1-based nearest rank of the *pct*-th percentile of *n* samples."""
    return max(1, (pct * n + 99) // 100)


def percentile(ordered: Sequence[float], pct: int) -> float:
    """Nearest-rank *pct*-th percentile of the ascending *ordered*."""
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(len(ordered), pct) - 1]


def samples_beyond(n: int, pct: int) -> int:
    """How many of *n* samples lie above the nearest-rank percentile."""
    return n - _rank(n, pct)


@dataclass
class OpRecord:
    """One executed op."""

    key: str
    wall_s: float
    error: Optional[str] = None
    counters: Dict[str, int] = field(default_factory=dict)
    #: calibration factor from the reference loop's time around this op
    scale: float = 1.0
    #: traced runs only: layer self times (raw seconds) and wrapper counts
    self_s: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def time_s(self) -> float:
        """Calibrated op time."""
        return self.wall_s * self.scale


def _load_program():
    """Import ``repro`` from this checkout's ``src`` and the benchmark."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")
    from perfbench import ops

    return ops


class Runner:
    """Executes ops and checks their outputs."""

    def __init__(self, ops, workload):
        self.ops = ops
        self.workload = workload
        self.golden = ops.load_golden(workload.name)
        #: set during the traced pass: every op's spans are taken from it
        self.tracer = None
        self.log = ops.MachineLog()

    def run(self, op) -> OpRecord:
        ops = self.ops
        key = ops.key(op)
        start = time.perf_counter()
        try:
            result = self.workload.run(op)
        except Exception:  # an op that raises is counted, not fatal
            wall = time.perf_counter() - start
            self.log.take_counters()
            if self.tracer is not None:
                self.tracer.take()
            print(f"error: op {key} raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return OpRecord(key, wall, error="raised")
        wall = time.perf_counter() - start
        rec = OpRecord(key, wall, counters=self.log.take_counters())
        if self.tracer is not None:
            rec.self_s, rec.counts = self.tracer.take()
        rec.error = self.workload.check(op, result) or ops.check_digest(
            self.golden, key, ops.digest(result, rec.counters))
        if rec.error is not None:
            print(f"error: {rec.error}", file=sys.stderr)
        return rec


def run_cycles(runner: Runner, cycle: list, min_seconds: float,
               min_cycles: int = 1, min_ops: int = 0) -> List[OpRecord]:
    """Whole cycles, until *min_seconds*, *min_cycles* and *min_ops* are
    all reached (or the hard cap), with every op calibrated."""
    records: List[OpRecord] = []
    refs: List[float] = []
    start = time.perf_counter()
    cycles = 0
    while True:
        for op in cycle:
            # every op starts from the same collector state, so the
            # collections inside it depend on the op alone, not on the
            # ops before it
            gc.collect()
            refs.append(reference_loop())
            records.append(runner.run(op))
        cycles += 1
        now = time.perf_counter()
        if (now - start >= min_seconds and cycles >= min_cycles
                and len(records) >= min_ops):
            break
        if now - _START > HARD_CAP_S:
            print(f"warning: stopped at the {HARD_CAP_S:.0f} s cap after "
                  f"{cycles} cycles", file=sys.stderr)
            break
    refs.append(reference_loop())
    for i, rec in enumerate(records):
        # two reference passes before the op and two after it
        rec.scale = calibration(statistics.median(refs[max(0, i - 1):i + 3]))
    return records


def counter_metrics(records: Sequence[OpRecord]) -> Dict[str, float]:
    """The per-layer counts and ratios read from the machines' counters."""
    c: Dict[str, int] = {}
    for rec in records:
        for name, value in rec.counters.items():
            c[name] = c.get(name, 0) + value

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    tlb_miss = c.get("tlb.4k.miss", 0) + c.get("tlb.2m.miss", 0)
    tlb_all = tlb_miss + c.get("tlb.4k.hit", 0) + c.get("tlb.2m.hit", 0)
    cache_miss = c.get("cache.miss", 0)
    lines = cache_miss + c.get("cache.hit", 0) + c.get("prefetch.lines", 0)
    att_miss = c.get("att.miss", 0)
    reg_hit = c.get("regcache.hit", 0)
    return {
        "mem.tlb_miss_ratio": ratio(tlb_miss, tlb_all),
        "mem.cache_miss_ratio": ratio(cache_miss, lines),
        "ib.registrations": c.get("reg.register", 0),
        "ib.pages_pinned": c.get("reg.pages_pinned", 0),
        "ib.att_miss_ratio": ratio(att_miss, att_miss + c.get("att.hit", 0)),
        "ib.post_sends": c.get("hca.post_send", 0),
        "mpi.regcache_hit_ratio": ratio(reg_hit, reg_hit + c.get("regcache.miss", 0)),
    }


def setup_probe(args) -> float:
    """Calibrated set-up time of a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def untraced(args, runner: Runner, cycle: list, setup_s: float) -> dict:
    """The end-to-end run."""
    setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    records = run_cycles(runner, cycle, args.seconds, min_ops=MIN_OPS)
    failed = sum(rec.error is not None for rec in records)
    times = sorted(rec.time_s for rec in records if rec.error is None)
    n = len(times)
    op_time = sum(rec.time_s for rec in records)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": (n / op_time, "1/s"),
        "op_p50_ms": (percentile(times, 50) * 1e3 if times else 0.0, "ms"),
        "op_p90_ms": (percentile(times, 90) * 1e3 if times else 0.0, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    beyond = samples_beyond(n, 90)
    raw = sum(rec.wall_s for rec in records)
    print(f"{args.workload} seed={args.seed}: {len(records)} ops in "
          f"{len(records) // len(cycle)} cycles of {len(cycle)}; op time "
          f"{raw:.2f} s raw, {op_time:.2f} s calibrated; p90 has {beyond} "
          f"of {n} samples beyond it")
    if beyond < 10:
        print(f"warning: p90 has only {beyond} samples beyond it", file=sys.stderr)
    print(f"error_rate {failed / len(records):.4f} ratio ({failed}/{len(records)} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def traced(args, runner: Runner, cycle: list) -> dict:
    """The per-layer run: cycles untraced, then the same cycles traced."""
    from perfbench import spans

    problems: List[str] = []
    plain = run_cycles(runner, cycle, args.seconds * UNTRACED_SHARE,
                       min_cycles=MIN_TRACED_CYCLES)
    n_cycles = len(plain) // len(cycle)

    runner.tracer = spans.Tracer()
    instrumentation = spans.Instrumentation(runner.tracer)
    instrumentation.install()
    try:
        records = run_cycles(runner, cycle, 0.0, min_cycles=n_cycles)
    finally:
        instrumentation.remove()
        runner.tracer = None

    # counts and ratios: equal across cycles, and traced == untraced
    def cycles_of(recs: List[OpRecord]) -> List[List[OpRecord]]:
        return [recs[i:i + len(cycle)] for i in range(0, len(recs), len(cycle))]

    first_counts = counter_metrics(records[:len(cycle)])
    if any(counter_metrics(part) != first_counts
           for part in cycles_of(plain) + cycles_of(records)):
        problems.append("counter metrics differ between cycles or between "
                        "the traced and untraced passes")
    seen: Dict[str, Dict[str, int]] = {}
    for rec in records:
        if seen.setdefault(rec.key, rec.counts) != rec.counts:
            problems.append(f"op {rec.key}: wrapper counts differ between repeats")

    # self times account for each op's wall time
    remainder = 0.0
    for rec in records:
        spent = sum(rec.self_s.values())
        if min(rec.self_s.values(), default=0.0) < 0 or spent > rec.wall_s:
            problems.append(f"op {rec.key}: self times {spent} do not fit in "
                            f"its wall time {rec.wall_s}")
        remainder += rec.wall_s - spent
    unattributed = remainder / sum(rec.wall_s for rec in records)
    if unattributed > MAX_UNATTRIBUTED:
        problems.append(f"{unattributed:.1%} of op time is outside every layer span")

    metrics: Dict[str, tuple] = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(rec.self_s.get(layer, 0.0) * rec.scale for rec in records)
            / len(records), "s")
    counts = {name: sum(rec.counts.get(name, 0) for rec in records[:len(cycle)])
              for name in spans.COUNT_METRICS}
    for name, value in {**counts, **first_counts}.items():
        if name.endswith("_mb"):
            metrics[name] = (value / MB, "MB")
        elif name.endswith("_ratio"):
            metrics[name] = (value, "ratio")
        else:
            metrics[name] = (value, "count")
    metrics["trace.overhead_ratio"] = (
        statistics.mean(rec.time_s for rec in records)
        / statistics.mean(rec.time_s for rec in plain), "ratio")
    metrics["trace.unattributed_ratio"] = (unattributed, "ratio")

    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    failed = sum(rec.error is not None for rec in plain + records)
    print(f"{args.workload} seed={args.seed}: {n_cycles} cycles of {len(cycle)} "
          f"ops untraced, then traced; unattributed {unattributed:.3%}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {"correct": failed == 0 and not problems,
            "attempted": len(plain) + len(records), "failed": failed,
            "metrics": metrics}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        ops = _load_program()
    except ImportError as exc:
        print(f"error: cannot load the simulator: {exc}", file=sys.stderr)
        return 1
    workload = ops.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(ops.WORKLOADS)}", file=sys.stderr)
        return 2
    cycle = ops.generate(workload, args.seed)
    runner = Runner(ops, workload)
    runner.log.install()
    try:
        warm = runner.run(workload.warmup)
        setup_raw = time.perf_counter() - _START
        ref_after = sorted(reference_loop() for _ in range(3))[1]
        setup_s = setup_raw * calibration((_REF_BEFORE + ref_after) / 2)
        if args.setup_probe:
            print(setup_s)
            return 0
        if warm.error is not None:
            print(f"error: warm-up op failed: {warm.error}", file=sys.stderr)
            return 1
        result = traced(args, runner, cycle) if args.trace else untraced(
            args, runner, cycle, setup_s)
    finally:
        runner.log.remove()
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
