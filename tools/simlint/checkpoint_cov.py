"""Pass ``checkpoint-coverage``: every field of a checkpointed class
must be captured, and every captured field must be restored.

``repro.checkpoint`` snapshots the cluster field by field — there is no
``__dict__`` sweep, by design (each field is normalised into a stable,
picklable shape).  The cost of that design is silent drift: add a
``self.x`` to a captured class and forget the capture/restore side, and
resume diverges with no error anywhere.  This pass pins the two sides
together statically.

For every entry of the spec (class ↔ its capture/restore functions):

- **capture check** — every instance attribute of the class (from
  ``self.x`` assignments, ``__slots__`` and plain class-level state)
  must be *read* somewhere in the capture functions;
- **restore check** — every attribute the capture functions read must
  be *written back* by the restore functions (an attribute store
  through it, or its captured value forwarded as a ``state["attr"]``
  constructor/factory argument).

Both checks are over-approximate in the safe direction for a gate
(attribute names are matched textually within the capture/restore
bodies), so a finding means "no code in the capture path even mentions
this field" — the exact failure mode of the historical
``max_send_wr`` restore gap.  Derived caches and fields reconstructed
by other machinery are excused through the baseline ledger, one
justified entry per field.

Spec entries are ``{"class": qualname, "capture": [fn quals],
"restore": [fn quals]}``; the built-in spec covers the repro tree and
``--checkpoint-spec`` swaps in a JSON spec for other trees (the test
fixtures use this).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from simlint.baseline import PassFinding
from simlint.model import Project

PASS_ID = "checkpoint-coverage"

#: class -> capture/restore map for the repro tree.  dump_state/
#: load_state pairs are self-capturing classes; the rest are walked by
#: repro.checkpoint itself.
DEFAULT_SPEC: List[Dict[str, object]] = [
    {
        "class": "repro.engine.core.SimKernel",
        "capture": ["repro.checkpoint.capture_cluster"],
        "restore": ["repro.checkpoint.restore_cluster"],
    },
    {
        "class": "repro.ib.verbs.QueuePair",
        "capture": ["repro.checkpoint._capture_machine"],
        "restore": ["repro.checkpoint.restore_cluster"],
    },
    {
        "class": "repro.ib.verbs.CompletionQueue",
        "capture": ["repro.checkpoint._capture_machine"],
        "restore": ["repro.checkpoint.restore_cluster"],
    },
    {
        "class": "repro.ib.hca.HCA",
        "capture": ["repro.checkpoint._capture_machine"],
        "restore": ["repro.checkpoint._restore_machine",
                    "repro.checkpoint.restore_cluster"],
    },
    {
        "class": "repro.alloc.libc.LibcAllocator",
        "capture": ["repro.checkpoint._capture_libc"],
        "restore": ["repro.checkpoint._restore_libc"],
    },
    {
        "class": "repro.mem.address_space.AddressSpace",
        "capture": ["repro.checkpoint._capture_process"],
        "restore": ["repro.checkpoint._restore_aspace"],
    },
    {
        "class": "repro.mem.paging.PageTable",
        "capture": ["repro.mem.paging.PageTable.dump_runs"],
        "restore": ["repro.mem.paging.PageTable.load_runs"],
    },
    {
        "class": "repro.mem.paging.Run",
        "capture": ["repro.mem.paging.PageTable.dump_runs"],
        "restore": ["repro.mem.paging.PageTable.load_runs"],
    },
    {
        "class": "repro.mem.tlb.SplitTLB",
        "capture": ["repro.mem.tlb.SplitTLB.dump_state"],
        "restore": ["repro.mem.tlb.SplitTLB.load_state"],
    },
    {
        "class": "repro.mem.cache.DataCache",
        "capture": ["repro.mem.cache.DataCache.dump_state"],
        "restore": ["repro.mem.cache.DataCache.load_state"],
    },
    {
        "class": "repro.mem.physical.PhysicalMemory",
        "capture": ["repro.mem.physical.PhysicalMemory.dump_state"],
        "restore": ["repro.mem.physical.PhysicalMemory.load_state"],
    },
    {
        "class": "repro.ib.att.ATTCache",
        "capture": ["repro.ib.att.ATTCache.dump_state"],
        "restore": ["repro.ib.att.ATTCache.load_state"],
    },
    {
        "class": "repro.alloc.freelist.ChunkFreeList",
        "capture": ["repro.alloc.freelist.ChunkFreeList.dump_state"],
        "restore": ["repro.alloc.freelist.ChunkFreeList.load_state"],
    },
]


def _attr_mentions(project: Project, quals: Iterable[str],
                   store_only: bool = False) -> Set[str]:
    """Attribute names touched inside the given functions.

    With ``store_only=False``: every attribute read or written, plus
    every string constant used as a subscript key inside a call
    argument (``create_qp(state["pd"], ...)`` restores ``pd`` through
    the constructor).
    """
    out: Set[str] = set()
    for qual in quals:
        fn = project.functions.get(qual)
        if fn is None:
            continue
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif not store_only and isinstance(node, ast.Subscript):
                if isinstance(node.slice, ast.Constant) and isinstance(
                        node.slice.value, str):
                    out.add(node.slice.value)
    return out


def _missing_fns(project: Project,
                 quals: Iterable[str]) -> List[str]:
    return [q for q in quals if q not in project.functions]


def run(project: Project,
        spec: Optional[List[Dict[str, object]]] = None) -> List[PassFinding]:
    if spec is None:
        spec = DEFAULT_SPEC
    findings: List[PassFinding] = []
    for entry in spec:
        cls_qual = str(entry["class"])
        capture = [str(q) for q in entry.get("capture", [])]  # type: ignore[union-attr]
        restore = [str(q) for q in entry.get("restore", [])]  # type: ignore[union-attr]
        info = project.classes.get(cls_qual)
        if info is None:
            findings.append(PassFinding(
                pass_id=PASS_ID, path="<spec>", line=0, symbol=cls_qual,
                message=f"spec names unknown class {cls_qual}"))
            continue
        for qual in _missing_fns(project, capture + restore):
            findings.append(PassFinding(
                pass_id=PASS_ID, path="<spec>", line=0, symbol=cls_qual,
                message=f"spec names unknown function {qual}"))

        captured = _attr_mentions(project, capture)
        restored = _attr_mentions(project, restore)

        own_methods = set(info.methods)
        for attr in sorted(info.attrs):
            if attr in own_methods or attr.startswith("__"):
                continue
            line = info.attrs[attr]
            symbol = f"{cls_qual}.{attr}"
            if attr not in captured:
                findings.append(PassFinding(
                    pass_id=PASS_ID, path=info.path, line=line,
                    symbol=symbol,
                    message=(f"field {attr!r} of checkpointed class "
                             f"{info.name} is never read by its capture "
                             f"function(s) "
                             f"({', '.join(capture) or 'none'})")))
            elif restore and attr not in restored:
                findings.append(PassFinding(
                    pass_id=PASS_ID, path=info.path, line=line,
                    symbol=symbol,
                    message=(f"field {attr!r} of {info.name} is captured "
                             f"but never written back by its restore "
                             f"function(s) ({', '.join(restore)})")))
    findings.sort(key=lambda f: (f.path, f.line, f.symbol))
    return findings
