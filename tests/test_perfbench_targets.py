"""The traced benchmark run still finds every toalab function it wraps.

`perfbench/spans.py` wraps the entry points listed in its TARGETS table,
plus `FirstArrivalHistogram.exact_reference`, when `perfbench/run.py
--trace 1` runs.  A name removed from the library would break that run, so
this test loads the table from the file as it is and resolves each name.
Some counters also read their target's arguments by parameter name, so each
counter runs on a small real call of its target.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPAN_TARGETS = load_spans().TARGETS
TARGETS = [(mod, attr) for mod, attr, _, _ in SPAN_TARGETS]
COUNTERS = {attr: counter for _, attr, _, counter in SPAN_TARGETS}


@pytest.mark.parametrize("module,attr", TARGETS,
                         ids=[f"{m}.{a}" for m, a in TARGETS])
def test_span_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_exact_reference_resolves():
    from toalab.firstpassage import FirstArrivalHistogram
    assert callable(FirstArrivalHistogram.exact_reference)



def small_calls(tmp_path):
    """attr -> (args, kwargs) of a small call, passed as the library does."""
    from toalab.detectors import MsConfig
    from toalab.wavepacket import SpacePacket, space_amplitude

    pkt = SpacePacket(x0=-100.0, p0=1.0, sigma_x=10.0, mass=1.0)
    x = np.linspace(-256.0, 0.0, 257)
    return {
        "marchewka_schuss_evolve": (
            (x, space_amplitude(pkt, x), MsConfig(lam=1.0, epsilon=0.01,
                                                  steps=5)), {"m": 1.0}),
        "kijowski_curve": ((pkt, np.linspace(90.0, 110.0, 5)), {}),
        "monte_carlo_first_arrival": ((2, 10, 100), {"seed": 1}),
        "main": ((["kijowski-wave", "--output-dir", str(tmp_path)],), {}),
        "_write_csv": ((str(tmp_path / "t.csv"), ["a", "b"], [(1, 2)]), {}),
        "_write_json": ((str(tmp_path / "t.json"), {"a": 1}), {}),
    }


@pytest.mark.parametrize("attr", ["marchewka_schuss_evolve", "kijowski_curve",
                                  "monte_carlo_first_arrival", "main",
                                  "_write_csv", "_write_json"])
def test_counter_reads_its_target(attr, tmp_path):
    module = next(mod for mod, a in TARGETS if a == attr)
    fn = getattr(importlib.import_module(module), attr)
    args, kwargs = small_calls(tmp_path)[attr]
    counts = COUNTERS[attr](fn, args, kwargs, fn(*args, **kwargs))
    assert counts and all(v is not None for v in counts.values())
