"""Golden output gate: figure stdout and the fig5 trace, byte for byte.

``tests/golden/<cmd>.txt`` holds the exact stdout of ``python -m repro
<cmd>`` at default scale, and ``tests/golden/fig5_trace.sha256`` the
digest of the JSON that ``python -m repro trace fig5 --trace-out F``
writes.  Each command is rerun in-process on the fast paths and on the
reference costing loops; any change to the simulated behaviour, however
small, shows up here as a diff.

To regenerate after an *intended* behaviour change::

    for c in fig3 fig4 fig5 fig6 tlb faults; do
        PYTHONPATH=src python -m repro $c > tests/golden/$c.txt
    done
    PYTHONPATH=src python -m repro trace fig5 --trace-out t.json
    sha256sum t.json | cut -d' ' -f1 > tests/golden/fig5_trace.sha256
"""

import hashlib
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
