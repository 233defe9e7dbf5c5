"""Acceptance gate: every top-level correctness claim, one pass/fail line each.

Each criterion is implemented in toalab.validation with pinned configurations
and tolerances; here we only run them and report.  A failing criterion fails
the test — tolerances are never loosened here.
"""

import pytest

from toalab.validation import CRITERIA, run_criterion


@pytest.mark.parametrize("cid", sorted(CRITERIA), ids=lambda c: f"criterion_{c:02d}")
def test_criterion(cid, capsys):
    result = run_criterion(cid)
    with capsys.disabled():
        print(f"\n{result.line()}")
    assert result.passed, (
        f"criterion {cid} ({result.title}) failed; observed: {result.observed}")
