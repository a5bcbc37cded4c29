"""The benchmark's workloads: op universes, seeded cycles, execution, digests.

An *op* is one public driver call on a fresh cluster or machine, named by
a tuple of plain parameters.  Each workload has a finite *universe* of
ops; a seed draws a *cycle* (an ordered list of ops) from it, and a run
repeats the cycle back to back.  Cycles are balanced so that every seed
asks for the same amount of work: the seed changes which ops run and in
what order, not how much the cycle costs.

Every op's outputs (the driver's result object and the counters of every
machine it built) are reduced to a digest.  ``golden/<workload>.json``
holds the digest of every op in the universe, so any seed's ops are
checked against numbers produced by a known-good commit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.systems import machine as systems_machine
from repro.systems import presets
from repro.workloads import abinit as abinit_mod
from repro.workloads import imb as imb_mod
from repro.workloads import train as train_mod
from repro.workloads.nas import cg, common as nas_common, ep, is_, lu, mg

KB = 1024
MB = 1024 * KB

#: the seed a workload is tuned on, and the seed held back from tuning
DEFAULT_SEED = 0
HELD_OUT_SEED = 1

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

Op = Tuple


class Workload:
    """One workload: its op universe, cycle generator and driver call."""

    name = ""
    why = ""
    #: a fixed op run once before anything is timed (imports, caches)
    warmup: Op = ()

    def universe(self) -> List[Op]:
        raise NotImplementedError

    def cycle(self, rng: random.Random) -> List[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        """Execute *op*; returns the driver's result object."""
        raise NotImplementedError

    def check(self, op: Op, result) -> Optional[str]:
        """A result-level sanity check; returns an error message or None."""
        return None


def key(op: Op) -> str:
    """The op's name in golden files and reports."""
    return ":".join(
        ",".join(str(v) for v in part) if isinstance(part, tuple) else str(part)
        for part in op
    )


def generate(workload: Workload, seed: int) -> List[Op]:
    """The op cycle *seed* draws; the program sees only these parameters."""
    return workload.cycle(random.Random(f"{workload.name}/{seed}"))


def _complementary_pairs(rng: random.Random, items: Sequence, n_pairs: int
                         ) -> List[Tuple[tuple, tuple]]:
    """*n_pairs* distinct (subset, complement) splits of *items*."""
    masks = rng.sample(range(2 ** (len(items) - 1)), n_pairs)
    pairs = []
    for mask in masks:
        left = tuple(x for i, x in enumerate(items) if mask >> i & 1)
        right = tuple(x for i, x in enumerate(items) if not mask >> i & 1)
        pairs.append((left, right))
    return pairs


# ---------------------------------------------------------------------------
# imb-sendrecv: the paper's Fig 5
# ---------------------------------------------------------------------------

class IMBSendRecv(Workload):
    name = "imb-sendrecv"
    why = ("Fig 5 IMB SendRecv curves, 256 KB-64 MB: registration, pinning and "
           "ATT work on 4 KB vs 2 MB pages, lazy deregistration on and off")

    #: message sizes 256 KB .. 64 MB in powers of two; every op sweeps both
    #: ends and a seed-drawn subset of the inner sizes
    LADDER = tuple(256 * KB << i for i in range(9))
    INNER = LADDER[1:-1]
    #: curves as (placement, deregistration); the 4 KB curves carry the
    #: registration work, so each cycle runs them twice as often
    CURVES = (("4k", "lazy", 2), ("4k", "eager", 2),
              ("2m", "lazy", 1), ("2m", "eager", 1))
    ITERATIONS = 5
    warmup = ("2m", "lazy", (256 * KB, 64 * MB))

    def universe(self) -> List[Op]:
        ops = []
        for page, dereg, _ in self.CURVES:
            for n in range(len(self.INNER) + 1):
                for inner in itertools.combinations(self.INNER, n):
                    ops.append((page, dereg, self._sizes(inner)))
        return ops

    def _sizes(self, inner: Sequence[int]) -> Tuple[int, ...]:
        return (self.LADDER[0],) + tuple(sorted(inner)) + (self.LADDER[-1],)

    def cycle(self, rng: random.Random) -> List[Op]:
        # complementary inner subsets: each pair sweeps every inner size
        # exactly once, so a cycle's bytes do not depend on the seed
        ops = []
        for page, dereg, n_pairs in self.CURVES:
            for left, right in _complementary_pairs(rng, self.INNER, n_pairs):
                ops.append((page, dereg, self._sizes(left)))
                ops.append((page, dereg, self._sizes(right)))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        page, dereg, sizes = op
        bench = imb_mod.SendRecvBenchmark(presets.opteron_infinihost_pcie)
        return bench.run(list(sizes), hugepages=page == "2m",
                         lazy_dereg=dereg == "lazy",
                         iterations=self.ITERATIONS, warmup=1)

    def check(self, op: Op, result) -> Optional[str]:
        if [row.size for row in result.rows] != list(op[2]):
            return "result rows do not match the requested sizes"
        if any(row.bandwidth_mb_s <= 0 for row in result.rows):
            return "non-positive bandwidth"
        return None


# ---------------------------------------------------------------------------
# nas: the paper's Fig 6
# ---------------------------------------------------------------------------

class NAS(Workload):
    name = "nas"
    why = ("Fig 6 NAS CG/EP/IS/LU/MG class W on 4 KB pages and the preloaded "
           "2 MB library: mem, engine and mpi all carry work")

    KERNELS = {"CG": cg, "EP": ep, "IS": is_, "LU": lu, "MG": mg}
    PAGES = ("4k", "2m")
    KLASS = "W"
    #: the hugepage pool ``repro perf`` sizes Fig 6 with
    HUGEPAGE_POOL = 720
    warmup = ("EP", "2m")

    def universe(self) -> List[Op]:
        return [(k, p) for k in self.KERNELS for p in self.PAGES]

    def cycle(self, rng: random.Random) -> List[Op]:
        # the page-count-heavy 4 KB half runs twice: it is where the work
        # is, and the uneven split keeps the median and p90 inside one
        # configuration's ops rather than on the edge between two
        ops = [(k, p) for k, p in self.universe() for _ in range(1 + (p == "4k"))]
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        kernel, page = op
        # looked up per call, so the traced run's wrapped body is the one run
        program = getattr(self.KERNELS[kernel], "program")
        return nas_common.run_nas(program, presets.opteron_infinihost_pcie(),
                                  hugepages=page == "2m", klass=self.KLASS,
                                  nas_hugepage_pool=self.HUGEPAGE_POOL)

    def check(self, op: Op, result) -> Optional[str]:
        return None if result.verified else "NAS verification failed"


# ---------------------------------------------------------------------------
# verbs-train: the event-kernel-bound verbs message train
# ---------------------------------------------------------------------------

class VerbsTrain(Workload):
    name = "verbs-train"
    why = ("windowed verbs message train, 64 B-64 KB: event-kernel and folded "
           "ib delivery work with almost no mem work")

    SIZES = tuple(64 << i for i in range(11))      # 64 B .. 64 KB
    WINDOWS = tuple(1 << i for i in range(6))      # 1 .. 32
    COUNTS = tuple(range(200, 1001, 100))          # messages per train
    #: the message counts of one cycle: 7200 messages under every seed,
    #: and the same spread of train lengths for the percentiles to read
    CYCLE_COUNTS = (200, 300, 400, 500, 600, 600, 600, 600, 700, 800, 900, 1000)
    warmup = (64, 1, 200)

    def universe(self) -> List[Op]:
        return list(itertools.product(self.SIZES, self.WINDOWS, self.COUNTS))

    def cycle(self, rng: random.Random) -> List[Op]:
        # every window twice; the seed draws sizes and which train gets
        # which count
        counts = list(self.CYCLE_COUNTS)
        rng.shuffle(counts)
        ops = [(rng.choice(self.SIZES), window, count)
               for window, count in zip(self.WINDOWS * 2, counts)]
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        msg_bytes, window, count = op
        return train_mod.run_train(msg_bytes=msg_bytes, count=count,
                                   window=window)

    def check(self, op: Op, result) -> Optional[str]:
        count = op[2]
        if result.tx_messages != count or result.rx_messages != count:
            return "train lost or duplicated messages"
        return None


# ---------------------------------------------------------------------------
# abinit-alloc: the allocator workload
# ---------------------------------------------------------------------------

class AbinitAlloc(Workload):
    name = "abinit-alloc"
    why = ("Abinit-like allocation trace under libc or the hugepage library: "
           "alloc and mem access costing without engine, ib or mpi")

    ALLOCATORS = ("libc", "hugepage")
    TRACE_SEEDS = tuple(range(64))
    ITERATIONS = 4
    #: ops per allocator in one cycle.  libc ops cost ~10x more, so an
    #: uneven split keeps the median and p90 inside one allocator's ops;
    #: their cost varies with the trace seed, so a cycle averages over 8
    PER_CYCLE = {"libc": 8, "hugepage": 12}
    warmup = ("hugepage", 0)

    def universe(self) -> List[Op]:
        return [(a, s) for a in self.ALLOCATORS for s in self.TRACE_SEEDS]

    def cycle(self, rng: random.Random) -> List[Op]:
        n = sum(self.PER_CYCLE.values())
        seeds = rng.sample(self.TRACE_SEEDS, n)
        allocs = [a for a in self.ALLOCATORS for _ in range(self.PER_CYCLE[a])]
        ops = list(zip(allocs, seeds))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        allocator, trace_seed = op
        return abinit_mod.run_abinit(presets.opteron_infinihost_pcie(),
                                     hugepages=allocator == "hugepage",
                                     iterations=self.ITERATIONS,
                                     seed=trace_seed)

    def check(self, op: Op, result) -> Optional[str]:
        if not result.alloc_ns > 0 or not result.total_ns >= result.alloc_ns:
            return "allocator time missing from the Abinit result"
        return None


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (IMBSendRecv(), NAS(), VerbsTrain(), AbinitAlloc())
}


# ---------------------------------------------------------------------------
# outputs and digests
# ---------------------------------------------------------------------------

class MachineLog:
    """Records every :class:`~repro.systems.machine.Machine` built while
    installed, so an op's counters can be read after it returns."""

    def __init__(self) -> None:
        self.machines: List = []
        self._original: Optional[Callable] = None

    def install(self) -> None:
        cls = systems_machine.Machine
        original = cls.__dict__["__init__"]
        machines = self.machines

        def __init__(machine, *args, **kwargs):
            original(machine, *args, **kwargs)
            machines.append(machine)

        __init__.__wrapped__ = original
        self._original = original
        cls.__init__ = __init__

    def remove(self) -> None:
        systems_machine.Machine.__init__ = self._original

    def take_counters(self) -> Dict[str, int]:
        """Summed counters of the machines built since the last call, and
        of their processes."""
        total: Dict[str, int] = {}
        for machine in self.machines:
            sets = [machine.counters] + [p.counters for p in machine.processes]
            for counters in sets:
                for name, value in counters.snapshot().items():
                    total[name] = total.get(name, 0) + value
        self.machines.clear()
        return dict(sorted(total.items()))


def _plain(value):
    """*value* as JSON-ready data with exact numbers."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, int):
        return int(value)
    # numpy scalars
    if hasattr(value, "item"):
        return _plain(value.item())
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(result, counters: Dict[str, int]) -> str:
    """Digest of every reported tick, latency, counter and flag of an op."""
    doc = {"result": _plain(result), "counters": counters}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str) -> Dict[str, str]:
    """The committed ``op key -> digest`` table of *workload*."""
    with open(golden_path(workload)) as fh:
        return json.load(fh)["digests"]


def check_digest(golden: Dict[str, str], op_key: str, value: str) -> Optional[str]:
    """None when *value* is the committed digest of *op_key*, else why not."""
    expected = golden.get(op_key)
    if expected is None:
        return f"no golden digest for op {op_key}"
    if expected != value:
        return f"op {op_key}: digest {value} != golden {expected}"
    return None
