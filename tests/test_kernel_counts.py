"""Kernel work-count gate: events, frames and processes per figure run.

``tests/golden/kernel_counts.json`` holds, for ``repro fig5``, ``fig6``
and ``faults`` at default scale, the number of kernel events dispatched
(``SimKernel._events``) and dispatch frames (``SimKernel._frames``),
summed over every kernel the command builds, and the number of
:class:`~repro.engine.core.Process` objects it constructs.  The counts
are exact and machine-independent, so any change to how much work the
event kernel does shows up here as a diff — on both costing paths,
which must agree.

The counts are read from outside: ``SimKernel.run`` is wrapped to sum
each call's ``_events``/``_frames`` deltas and ``Process.__init__`` to
count constructions.  Nothing is hooked inside the dispatch loop.

To regenerate after an *intended* change (and list every changed count,
before and after, in CHANGES.md)::

    PYTHONPATH=src python tests/test_kernel_counts.py \\
        > tests/golden/kernel_counts.json
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from repro import fastpath
from repro.cli import main
from repro.engine.core import Process, SimKernel

GOLDEN = Path(__file__).parent / "golden" / "kernel_counts.json"
COMMANDS = ("fig5", "fig6", "faults")


@contextlib.contextmanager
def counting():
    """Count kernel events, frames and processes until the block exits."""
    counts = {"events": 0, "frames": 0, "processes": 0}
    run, init = SimKernel.run, Process.__init__

    def counted_run(kernel, *args, **kwargs):
        events, frames = kernel._events, kernel._frames
        try:
            return run(kernel, *args, **kwargs)
        finally:
            counts["events"] += kernel._events - events
            counts["frames"] += kernel._frames - frames

    def counted_init(process, *args, **kwargs):
        counts["processes"] += 1
        init(process, *args, **kwargs)

    SimKernel.run, Process.__init__ = counted_run, counted_init
    try:
        yield counts
    finally:
        SimKernel.run, Process.__init__ = run, init


def measure(command, fast=True):
    """The kernel counts of one ``repro <command>`` run."""
    with fastpath.forced(fast), counting() as counts, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main([command]) == 0
    return counts


@pytest.mark.parametrize("command", COMMANDS)
def test_kernel_counts_match_golden(command):
    golden = json.loads(GOLDEN.read_text())[command]
    fast = measure(command, fast=True)
    assert fast == golden
    assert measure(command, fast=False) == fast


def test_performance_doc_quotes_the_committed_counts():
    """docs/performance.md's "before → after" table ends in these counts."""
    golden = json.loads(GOLDEN.read_text())
    doc = (Path(__file__).parent.parent / "docs" / "performance.md").read_text()
    rows = {}
    for line in doc.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0] in golden and \
                all("→" in c for c in cells[1:]):
            rows[cells[0]] = [c.split("→")[1].strip() for c in cells[1:]]
    assert rows == {
        command: [f"{c['processes']:,}", f"{c['events']:,}", f"{c['frames']:,}"]
        for command, c in golden.items()
    }


if __name__ == "__main__":
    json.dump({c: measure(c) for c in COMMANDS}, sys.stdout, indent=2)
    sys.stdout.write("\n")
