"""The traced benchmark run still finds every toalab function it wraps.

`perfbench/spans.py` wraps the entry points listed in its TARGETS table,
plus `FirstArrivalHistogram.exact_reference`, when `perfbench/run.py
--trace 1` runs.  A name removed from the library would break that run, so
this test loads the table from the file as it is and resolves each name.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [(mod, attr) for mod, attr, _, _ in load_spans().TARGETS]


@pytest.mark.parametrize("module,attr", TARGETS,
                         ids=[f"{m}.{a}" for m, a in TARGETS])
def test_span_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_exact_reference_resolves():
    from toalab.firstpassage import FirstArrivalHistogram
    assert callable(FirstArrivalHistogram.exact_reference)

