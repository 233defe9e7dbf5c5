"""Acceptance gate: every top-level correctness claim, one pass/fail line each.

Each criterion is implemented in toalab.validation with pinned configurations
and tolerances; here we only run them and report.  A failing criterion fails
the test — tolerances are never loosened here.
"""

import tracemalloc

import pytest

from toalab.validation import CRITERIA, run_criterion


@pytest.mark.parametrize("cid", sorted(CRITERIA), ids=lambda c: f"criterion_{c:02d}")
def test_criterion(cid, capsys):
    tracemalloc.start()
    try:
        result = run_criterion(cid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with capsys.disabled():
        print(f"\n{result.line()}")
    assert result.passed, (
        f"criterion {cid} ({result.title}) failed; observed: {result.observed}")
    # The largest working set sets validate's peak RSS; cold, criterion 8
    # traces 2.14 MiB, criterion 9 1.85 and criterion 3 0.16.
    assert peak < 2.5 * 2**20, (
        f"criterion {cid} traced {peak / 2**20:.2f} MiB, above 2.5 MiB")
