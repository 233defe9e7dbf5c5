"""Span recorder for the traced run, and the per-layer metrics built from it.

The recorder wraps the public entry points of each toalab module from the
outside: every module namespace (and dispatch table) that holds a reference
to a listed function gets a wrapper, because ``validation``, ``experiments``
and ``cli`` all bind detector and kernel functions with ``from ... import``.
Spans stay in memory (name, start, end, parent span, task id, counts) and are
written out once the pass ends.  A span's self time is its duration minus the
part of that interval covered by its child spans.
"""

from __future__ import annotations

import gzip
import inspect
import json
import os
import statistics
import sys
import threading
import time

import numpy as np

# Layer metrics reported by every traced pass, in BENCHMARK.json order:
# name -> unit.  Layers a workload never calls report 0, which is how the
# trace confirms the workload split.
SUBCOMMANDS = ("kijowski-bullet", "kijowski-wave", "walk-validate",
               "continuum", "sqm-detect", "tqm-detect", "slit-sweep",
               "metric-compare", "laplace-check", "ms-evolve", "validate")

PER_LAYER = {
    "detectors.marchewka_schuss_evolve.calls": "count",
    "detectors.marchewka_schuss_evolve.self_s": "s",
    "detectors.marchewka_schuss_evolve.fft_points": "count",
    "detectors.kijowski_curve.calls": "count",
    "detectors.kijowski_curve.self_s": "s",
    "detectors.kijowski_curve.phase_evals": "count",
    "detectors.sqm_detection_curve.calls": "count",
    "detectors.sqm_detection_curve.self_s": "s",
    "kernels.first_arrival_kernel.calls": "count",
    "kernels.first_arrival_kernel.self_s": "s",
    "kernels.first_arrival_kernel.evals": "count",
    "kernels.laplace_first_arrival_check.calls": "count",
    "kernels.laplace_first_arrival_check.self_s": "s",
    "wavepacket.amplitudes.calls": "count",
    "wavepacket.amplitudes.self_s": "s",
    "wavepacket.amplitudes.evals": "count",
    "firstpassage.monte_carlo_first_arrival.calls": "count",
    "firstpassage.monte_carlo_first_arrival.self_s": "s",
    "firstpassage.monte_carlo_first_arrival.walk_steps": "count",
    "firstpassage.monte_carlo_first_arrival.useful_step_frac": "1",
    "firstpassage.mc.parallel_speedup": "1",
    "firstpassage.exact.calls": "count",
    "firstpassage.exact.self_s": "s",
    "tqm.tqm_arrival_distribution.calls": "count",
    "tqm.tqm_arrival_distribution.self_s": "s",
    "experiments.metric_comparison.self_s": "s",
    "experiments.discrete_continuum_experiment.self_s": "s",
    **{f"validation.criterion_{cid:02d}.s": "s" for cid in range(1, 13)},
    "cli.main.self_s": "s",
    **{f"cli.{sub}.s": "s" for sub in SUBCOMMANDS},
    "cli.artifacts.files": "count",
    "cli.artifacts.bytes": "B",
    "cli.artifacts.write_s": "s",
    "trace.overhead_frac": "1",
}


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _ms_counts(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"fft_points": a["cfg"].steps * 2 * (np.size(a["x"]) - 1)}


def _kijowski_counts(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"phase_evals": np.size(a["taus"]) * a["nodes"]}


def _evals(fn, args, kwargs, result):
    return {"evals": int(np.size(result))}


def _mc_counts(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    n = np.arange(result.n_max + 1)
    useful = int(result.counts @ n) + result.never_arrived * result.n_max
    return {"walk_steps": a["trials"] * a["n_max"], "useful_steps": useful,
            "draw": [a["d"], a["n_max"], a["trials"], a["seed"]],
            "workers": a["workers"]}


def _main_counts(fn, args, kwargs, result):
    argv = _bound(fn, args, kwargs)["argv"]
    return {"subcommand": argv[0] if argv else None}


def _artifact_counts(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


# (module, attribute, span name, counter).  A counter turns the call's
# arguments and result into counts; the hot exact-arithmetic functions have
# none, so their spans cost only two clock reads.
TARGETS = [
    ("toalab.detectors", "marchewka_schuss_evolve",
     "detectors.marchewka_schuss_evolve", _ms_counts),
    ("toalab.detectors", "kijowski_curve", "detectors.kijowski_curve",
     _kijowski_counts),
    ("toalab.detectors", "sqm_detection_curve",
     "detectors.sqm_detection_curve", None),
    ("toalab.kernels", "first_arrival_kernel",
     "kernels.first_arrival_kernel", _evals),
    ("toalab.kernels", "laplace_first_arrival_check",
     "kernels.laplace_first_arrival_check", None),
    *[("toalab.wavepacket", name, "wavepacket.amplitudes", _evals)
      for name in ("space_amplitude", "space_amplitude_dx",
                   "space_momentum_amplitude", "time_amplitude")],
    ("toalab.firstpassage", "monte_carlo_first_arrival",
     "firstpassage.monte_carlo_first_arrival", _mc_counts),
    *[("toalab.firstpassage", name, "firstpassage.exact", None)
      for name in ("walk_probability", "surviving_probability",
                   "first_arrival_probability")],
    ("toalab.tqm", "tqm_arrival_distribution",
     "tqm.tqm_arrival_distribution", None),
    ("toalab.experiments", "metric_comparison",
     "experiments.metric_comparison", None),
    ("toalab.experiments", "discrete_continuum_experiment",
     "experiments.discrete_continuum_experiment", None),
    *[("toalab.validation", f"criterion_{cid}",
       f"validation.criterion_{cid:02d}", None) for cid in range(1, 13)],
    ("toalab.cli", "main", "cli.main", _main_counts),
    ("toalab.cli", "_write_csv", "cli.artifacts", _artifact_counts),
    ("toalab.cli", "_write_json", "cli.artifacts", _artifact_counts),
]


class Recorder:
    """Collects spans from wrapped functions; one per traced pass."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, task, counts]
        self.task = -1
        self._local = threading.local()

    def wrap(self, fn, name, counter=None):
        spans, local, recorder = self.spans, self._local, self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[i] = [name, t0, t1, parent, recorder.task, None]
            if counter is not None:
                spans[i][5] = counter(fn, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target at every namespace that holds a reference."""
        import toalab.cli
        import toalab.firstpassage as fp
        import toalab.validation

        mods = [m for n, m in list(sys.modules.items())
                if n == "toalab" or n.startswith("toalab.")]
        for mod_name, attr, name, counter in TARGETS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self.wrap(orig, name, counter)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
        # Dispatch tables and a method hold the same functions by value.
        criteria = toalab.validation.CRITERIA
        for cid in criteria:
            criteria[cid] = getattr(toalab.validation, f"criterion_{cid}")
        runners = toalab.cli.RUNNERS
        for sub, fn in runners.items():
            runners[sub] = self.wrap(fn, "cli.runner")
        hist = fp.FirstArrivalHistogram
        hist.exact_reference = self.wrap(hist.exact_reference,
                                         "firstpassage.exact")

    def self_times(self) -> list:
        """Duration minus the union of child intervals, per span."""
        children = {}
        for _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((t0, t1))
        out = []
        for i, (_, t0, t1, _, _, _) in enumerate(self.spans):
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(i, ())):
                c0 = max(c0, end)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out.append((t1 - t0) - covered)
        return out

    def layer_metrics(self) -> dict:
        """Every PER_LAYER metric except trace.overhead_frac."""
        m = {k: 0 for k in PER_LAYER if k != "trace.overhead_frac"}
        mc_time = {}            # draw -> {pooled?: seconds}
        useful = 0
        per_sub = {}
        for span, self_s in zip(self.spans, self.self_times()):
            name, t0, t1, _, _, counts = span
            counts = counts or {}
            if name == "cli.runner":
                continue
            if name == "cli.main":
                m["cli.main.self_s"] += self_s
                per_sub.setdefault(counts["subcommand"], []).append(t1 - t0)
                continue
            if name == "cli.artifacts":
                m["cli.artifacts.files"] += 1
                m["cli.artifacts.bytes"] += counts["bytes"]
                m["cli.artifacts.write_s"] += t1 - t0
                continue
            if name.startswith("validation."):
                m[name + ".s"] += t1 - t0
                continue
            if name + ".calls" in m:
                m[name + ".calls"] += 1
            m[name + ".self_s"] += self_s
            for key, val in counts.items():
                if name + "." + key in m:
                    m[name + "." + key] += val
            if name == "firstpassage.monte_carlo_first_arrival":
                useful += counts["useful_steps"]
                by_workers = mc_time.setdefault(tuple(counts["draw"]), {})
                pooled = counts["workers"] > 1
                by_workers[pooled] = by_workers.get(pooled, 0.0) + t1 - t0
        for sub, durations in per_sub.items():
            m[f"cli.{sub}.s"] = statistics.fmean(durations)
        steps = m["firstpassage.monte_carlo_first_arrival.walk_steps"]
        if steps:
            m["firstpassage.monte_carlo_first_arrival.useful_step_frac"] = \
                useful / steps
        pairs = [t for t in mc_time.values() if len(t) == 2]
        if pairs:
            m["firstpassage.mc.parallel_speedup"] = \
                sum(t[False] for t in pairs) / sum(t[True] for t in pairs)
        return m

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON, times relative to the first."""
        t_ref = self.spans[0][1] if self.spans else 0.0
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(t0 - t_ref, 7), round(t1 - t_ref, 7), p, task]
                + ([c] if c else [])
                for n, t0, t1, p, task, c in self.spans]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent",
                                   "task", "counts"],
                       "names": names, "spans": rows}, fh,
                      separators=(",", ":"))
