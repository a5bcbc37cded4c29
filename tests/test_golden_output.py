"""Golden output gate: figure stdout and the fig5 trace, byte for byte.

``tests/golden/<cmd>.txt`` holds the exact stdout of ``python -m repro
<cmd>`` at default scale, and ``tests/golden/fig5_trace.sha256`` the
digest of the JSON that ``python -m repro trace fig5 --trace-out F``
writes.  Each command is rerun in-process on the fast paths and on the
reference costing loops; any change to the simulated behaviour, however
small, shows up here as a diff.

``tests/golden/<cmd>_trace_shape.sha256`` (fig5 and faults) is the
digest of the same trace with the fields that count machinery rather
than model removed: the kernel's ``engine.frames`` dispatch stats,
``engine.run``'s queue depth at entry, and each event's counter deltas
(which of several concurrently open spans a delta lands in).  Event
order, ``ts``/``dur``, tracks, every other attribute, the phase table
and the counter totals stay in, so this digest pins what a trace says
about the simulated run independently of how the kernel dispatched it.

To regenerate after an *intended* behaviour change::

    for c in fig3 fig4 fig5 fig6 tlb faults; do
        PYTHONPATH=src python -m repro $c > tests/golden/$c.txt
    done
    PYTHONPATH=src python -m repro trace fig5 --trace-out t.json
    sha256sum t.json | cut -d' ' -f1 > tests/golden/fig5_trace.sha256
    for c in fig5 faults; do
        PYTHONPATH=src python -m repro trace $c --trace-out t.json
        PYTHONPATH=src python tests/test_golden_output.py t.json \
            > tests/golden/${c}_trace_shape.sha256
    done
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import fastpath
from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = ("fig3", "fig4", "fig5", "fig6", "tlb", "faults")
PATHS = pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])


@PATHS
@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_matches_golden(command, fast, capsys):
    with fastpath.forced(fast):
        assert main([command]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{command}.txt").read_text()


@PATHS
def test_fig5_trace_matches_golden_digest(fast, tmp_path, capsys):
    out = tmp_path / "fig5.json"
    with fastpath.forced(fast):
        assert main(["trace", "fig5", "--trace-out", str(out)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "fig5.txt").read_text()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == (GOLDEN / "fig5_trace.sha256").read_text().strip()


def trace_shape_digest(doc):
    """sha256 of a Chrome trace document minus its machinery fields
    (see the module docstring)."""
    for ev in doc["traceEvents"]:
        args = ev.get("args", {})
        args.pop("counters", None)
        if ev["name"] == "engine.frames":
            ev["args"] = {}
        elif ev["name"] == "engine.run":
            args.pop("pending", None)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@PATHS
@pytest.mark.parametrize("command", ["fig5", "faults"])
def test_trace_shape_matches_golden_digest(command, fast, tmp_path, capsys):
    out = tmp_path / f"{command}.json"
    with fastpath.forced(fast):
        assert main(["trace", command, "--trace-out", str(out)]) == 0
    capsys.readouterr()
    digest = trace_shape_digest(json.loads(out.read_text()))
    golden = GOLDEN / f"{command}_trace_shape.sha256"
    assert digest == golden.read_text().strip()


if __name__ == "__main__":
    print(trace_shape_digest(json.loads(Path(sys.argv[1]).read_text())))
