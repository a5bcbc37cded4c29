"""Per-layer host time and work counts, measured from outside the program.

The traced run wraps the public functions of each ``repro`` layer with a
span.  A span is recorded only where control crosses into a different
layer; calls inside one layer are part of that layer's span.  A layer's
*self time* is the time of its spans minus the time of the spans they
enclose, so the self times of an op sum to the time of its outermost
span.

Generators (``HCA.post_send``, ``Communicator.sendrecv``, and every
generator handed to ``SimKernel.process``) are timed per resume, so the
simulated time a process spends waiting is never counted as host time.
A process generator is charged to the layer that started the process.

Work counts are taken at the same boundaries: ``mem.mmap_calls`` counts
calls into ``mem`` from other layers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from types import GeneratorType
from typing import Callable, Dict, List, Optional, Tuple


LAYERS = ("mem", "ib", "engine", "alloc", "mpi", "systems", "workloads")

# layer -> ("module", "Class" or None for module functions, extra names)
#
# A class entry wraps the public methods the class itself defines (plus
# the listed extra names); a module entry wraps the public functions the
# module defines.  The extra HCA names are the folded delivery pipeline:
# it runs as event callbacks straight from the kernel loop, and without
# these wrappers its work would be charged to the engine.
TARGETS: Dict[str, List[Tuple[str, Optional[str], Tuple[str, ...]]]] = {
    "engine": [
        ("repro.engine.core", "SimKernel", ()),
        ("repro.engine.resources", "Resource", ()),
        ("repro.engine.resources", "Store", ()),
        ("repro.engine.resources", "Channel", ()),
    ],
    "mem": [
        ("repro.mem.address_space", "AddressSpace", ()),
        ("repro.mem.access", "MemoryAccessEngine", ()),
        ("repro.mem.hugetlbfs", "HugeTLBfs", ()),
        ("repro.mem.physical", "PhysicalMemory", ()),
    ],
    "ib": [
        ("repro.ib.hca", "HCA", (
            "_on_arrival", "_tx_begin", "_tx_fetch", "_tx_launch",
            "_tx_drain", "_tx_done", "_rx_send_begin", "_rx_send_fetch",
            "_rx_send_grant", "_rx_send_scatter", "_rx_send_done",
            "_rx_write_begin", "_rx_write_scatter", "_rx_write_done",
        )),
        ("repro.ib.hca", "Wire", ()),
        ("repro.ib.registration", "RegistrationEngine", ()),
    ],
    "alloc": [
        ("repro.alloc.base", "Allocator", ()),
        ("repro.alloc.hugepage_lib", "HugepageLibraryAllocator", ()),
    ],
    "mpi": [
        ("repro.mpi.api", "Communicator", ()),
        ("repro.mpi.api", "MPIWorld", ()),
        ("repro.mpi.regcache", "RegistrationCache", ()),
        ("repro.mpi.collectives", None, ()),
    ],
    "systems": [
        ("repro.systems.machine", "Cluster", ("__init__",)),
        ("repro.systems.machine", "Machine", ("__init__",)),
        ("repro.systems.machine", "OSProcess", ()),
        ("repro.systems.presets", None, ()),
    ],
    "workloads": [
        ("repro.workloads.imb", "SendRecvBenchmark", ()),
        ("repro.workloads.nas.common", None, ()),
        ("repro.workloads.nas.cg", None, ()),
        ("repro.workloads.nas.ep", None, ()),
        ("repro.workloads.nas.is_", None, ()),
        ("repro.workloads.nas.lu", None, ()),
        ("repro.workloads.nas.mg", None, ()),
        ("repro.workloads.train", None, ()),
        ("repro.workloads.abinit", None, ()),
    ],
}


def _arg(fn: Callable, name: str) -> Callable[[tuple, dict], int]:
    """An extractor for argument *name* of *fn* (positional or keyword)."""
    params = list(inspect.signature(fn).parameters)
    index = params.index(name)

    def get(args: tuple, kwargs: dict) -> int:
        if index < len(args):
            return args[index]
        return kwargs.get(name, 0)

    return get


def _counter(*pairs: Tuple[str, Optional[str]]):
    """A count hook: each pair adds 1 (argument None) or the value of the
    named argument (a byte count) to a metric."""

    def make(fn: Callable):
        getters = [(metric, None if arg is None else _arg(fn, arg))
                   for metric, arg in pairs]

        def count(counts: Dict[str, int], args: tuple, kwargs: dict) -> None:
            for metric, get in getters:
                counts[metric] += 1 if get is None else get(args, kwargs)

        return count

    return make


_P2P = _counter(("mpi.p2p_calls", None), ("mpi.p2p_mb", "size"))
_P2P_CALL = _counter(("mpi.p2p_calls", None))
_COLLECTIVE = _counter(("mpi.collectives", None))
_ACCESS = _counter(("mem.access_calls", None), ("mem.access_mb", "nbytes"))
_ACCESS_REGION = _counter(("mem.access_calls", None), ("mem.access_mb", "region_bytes"))
_MALLOC = _counter(("alloc.mallocs", None), ("alloc.malloc_mb", "size"))

#: (module, qualified name) -> count hook factory
COUNTS: Dict[Tuple[str, str], Callable] = {
    ("repro.mem.address_space", "AddressSpace.mmap"):
        _counter(("mem.mmap_calls", None), ("mem.mmap_mb", "length")),
    ("repro.mem.address_space", "AddressSpace.munmap"):
        _counter(("mem.munmap_calls", None)),
    ("repro.mem.access", "MemoryAccessEngine.touch"): _ACCESS,
    ("repro.mem.access", "MemoryAccessEngine.stream"): _ACCESS,
    ("repro.mem.access", "MemoryAccessEngine.copy"): _ACCESS,
    ("repro.mem.access", "MemoryAccessEngine.strided"): _ACCESS_REGION,
    ("repro.mem.access", "MemoryAccessEngine.random"): _ACCESS_REGION,
    ("repro.mem.access", "MemoryAccessEngine.rotate"):
        _counter(("mem.access_calls", None)),
    ("repro.ib.hca", "HCA.register_memory"): _counter(("ib.reg_mb", "length")),
    ("repro.ib.hca", "HCA.wait_completion"): _counter(("ib.completions", None)),
    ("repro.engine.core", "SimKernel.process"): _counter(("engine.processes", None)),
    ("repro.engine.core", "SimKernel.timeout"): _counter(("engine.timeouts", None)),
    ("repro.alloc.base", "Allocator.malloc"): _MALLOC,
    ("repro.alloc.base", "Allocator.calloc"):
        _counter(("alloc.mallocs", None)),
    ("repro.alloc.base", "Allocator.realloc"): _MALLOC,
    ("repro.alloc.base", "Allocator.free"): _counter(("alloc.frees", None)),
    ("repro.alloc.hugepage_lib", "HugepageLibraryAllocator.free"):
        _counter(("alloc.frees", None)),
    ("repro.mpi.api", "Communicator.send"): _P2P,
    ("repro.mpi.api", "Communicator.isend"): _P2P,
    ("repro.mpi.api", "Communicator.sendrecv"): _P2P,
    ("repro.mpi.api", "Communicator.recv"): _P2P_CALL,
    ("repro.mpi.api", "Communicator.irecv"): _P2P_CALL,
    ("repro.mpi.api", "Communicator.send_packed"): _P2P_CALL,
    ("repro.systems.machine", "Cluster.__init__"): _counter(("systems.clusters", None)),
    ("repro.systems.machine", "Machine.__init__"): _counter(("systems.clusters", None)),
}
for _name in ("barrier", "bcast", "allreduce", "reduce", "alltoallv", "gather",
              "scatter", "scan", "allgather"):
    COUNTS[("repro.mpi.api", f"Communicator.{_name}")] = _COLLECTIVE

#: every count the wrappers produce (zero when an op never makes the call);
#: the ``_mb`` ones are summed in bytes and reported in MB
COUNT_METRICS = (
    "mem.mmap_calls", "mem.mmap_mb", "mem.munmap_calls", "mem.access_calls",
    "mem.access_mb", "ib.reg_mb", "ib.completions", "engine.processes",
    "engine.timeouts", "alloc.mallocs", "alloc.frees", "alloc.malloc_mb",
    "mpi.p2p_calls", "mpi.p2p_mb", "mpi.collectives", "systems.clusters",
)


class Tracer:
    """A stack of open spans and the self time and counts they add up to."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: open spans, innermost last: [layer, start, time of child spans]
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)

    def current(self) -> Optional[str]:
        """The layer of the innermost open span."""
        return self.stack[-1][0] if self.stack else None

    def enter(self, layer: str) -> bool:
        """Open a span unless *layer* already holds the innermost one;
        returns whether a span was opened."""
        stack = self.stack
        if stack and stack[-1][0] == layer:
            return False
        stack.append([layer, self.clock(), 0.0])
        return True

    def leave(self, opened: bool) -> None:
        """Close the span :meth:`enter` opened (no-op when it opened none)."""
        if not opened:
            return
        layer, start, child = self.stack.pop()
        elapsed = self.clock() - start
        self.self_s[layer] += elapsed - child
        if self.stack:
            self.stack[-1][2] += elapsed

    def take(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Self times and counts since the last call; resets both."""
        if self.stack:
            raise RuntimeError(f"spans still open: {[s[0] for s in self.stack]}")
        self_s, counts = dict(self.self_s), dict(self.counts)
        self.self_s.clear()
        self.counts.clear()
        return self_s, counts

    def resumed(self, layer: str, gen: GeneratorType):
        """Run *gen* with every resume inside a *layer* span."""
        value = None
        error: Optional[BaseException] = None
        while True:
            opened = self.enter(layer)
            try:
                if error is None:
                    item = gen.send(value)
                else:
                    item, error = gen.throw(error), None
            except StopIteration as stop:
                self.leave(opened)
                return stop.value
            except BaseException:
                self.leave(opened)
                raise
            self.leave(opened)
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into gen on resume
                error, value = exc, None

    def wrap(self, layer: str, fn: Callable, count: Optional[Callable]) -> Callable:
        """*fn* inside a *layer* span, counted when entered from outside."""
        enter, leave, counts, resumed = self.enter, self.leave, self.counts, self.resumed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = enter(layer)
            try:
                if opened and count is not None:
                    count(counts, args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                leave(opened)
            if type(result) is GeneratorType:
                return resumed(layer, result)
            return result

        return wrapper

    def wrap_process(self, fn: Callable, count: Callable) -> Callable:
        """``SimKernel.process`` that charges the process to its starter."""
        current, plain = self.current, self.wrap("engine", fn, count)
        resumed = self.resumed

        @functools.wraps(fn)
        def process(kernel, generator, *args, **kwargs):
            starter = current()
            if starter is not None and type(generator) is GeneratorType:
                generator = resumed(starter, generator)
            return plain(kernel, generator, *args, **kwargs)

        return process


class Instrumentation:
    """Installs the span wrappers on every layer and removes them again."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []

    def _targets(self):
        """(layer, owner, name, module name, qualified name) to wrap."""
        for layer, entries in TARGETS.items():
            for module_name, class_name, extra in entries:
                module = importlib.import_module(module_name)
                if class_name is None:
                    for name, value in vars(module).items():
                        if (inspect.isfunction(value) and not name.startswith("_")
                                and value.__module__ == module_name):
                            yield layer, module, name, module_name, name
                    continue
                cls = getattr(module, class_name)
                for name, value in vars(cls).items():
                    if name.startswith("_") and name not in extra:
                        continue
                    if isinstance(value, (staticmethod, classmethod)):
                        value = value.__func__
                    if inspect.isfunction(value):
                        yield layer, cls, name, module_name, f"{class_name}.{name}"

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("instrumentation already installed")
        tracer = self.tracer
        for layer, owner, name, module_name, qualname in list(self._targets()):
            raw = vars(owner)[name]
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            make_count = COUNTS.get((module_name, qualname))
            count = make_count(fn) if make_count is not None else None
            if qualname == "SimKernel.process":
                wrapped = tracer.wrap_process(fn, count)
            else:
                wrapped = tracer.wrap(layer, fn, count)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(wrapped)
            self._saved.append((owner, name, raw))
            setattr(owner, name, wrapped)

    def remove(self) -> None:
        """Restore every wrapped attribute, and check that none is left."""
        for owner, name, raw in reversed(self._saved):
            setattr(owner, name, raw)
        leftover = [name for owner, name, raw in self._saved
                    if vars(owner)[name] is not raw]
        self._saved.clear()
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")

    @property
    def installed(self) -> int:
        return len(self._saved)
