"""Workload inputs drawn from the seed, the tasks they run, and their checks.

``generate`` runs in the benchmark process and turns (workload, seed) into a
JSON-able parameter set; ``run_pass`` runs in a fresh worker process and
receives only that parameter set.  Every task is checked, and a task whose
check fails counts in ``failed``.  ``KNOWN_FAILURES`` lists the failures the
program is known to have, each with the evidence that identifies it; any
other failure makes the pass incorrect.

Why these workloads (see also README.md):

* ``validate`` -- the twelve pinned acceptance criteria through
  ``toalab validate``.  MS (criterion 9) and MC (criterion 4) do most of
  the work; the inputs are pinned, so the seed is unused.
* ``cli`` -- every other subcommand at parameters near its defaults, as a
  user types them: artifact layer, Kijowski and first-arrival
  curves, and the MS stepper.  No MC.
* ``walks`` -- first passage only: MC draws (serial and pooled), exact
  ``Fraction`` conservation, and the lattice continuum limit.  No MS, no
  Kijowski, no kernels.
"""

from __future__ import annotations

import json
import os
import time
import traceback

import numpy as np

WORKLOADS = ("validate", "cli", "walks")

# Artifacts each subcommand writes besides <exp>_manifest.json.
ARTIFACTS = {
    "kijowski-bullet": ("curve.csv", "summary.json"),
    "kijowski-wave": ("curve.csv", "summary.json"),
    "walk-validate": ("report.csv", "summary.json"),
    "continuum": ("table.csv", "summary.json"),
    "sqm-detect": ("curve.csv", "summary.json"),
    "tqm-detect": ("curve.csv", "summary.json"),
    "slit-sweep": ("table.csv", "summary.json"),
    "metric-compare": ("table.csv", "summary.json"),
    "laplace-check": ("summary.json",),
    "ms-evolve": ("curve.csv", "summary.json"),
    "validate": ("summary.json",),
}

# Criterion 2 pins the momentum-only bullet uncertainty 7.071, but its
# packet has m sigma_x^2 = tau_bar, where the position width adds a term of
# the same size: the Kijowski quadrature and the independent current curve
# both give about 10.15.  The failure stays counted; only this evidence
# marks it as the known one.
KNOWN_FAILURES = {
    "criterion_02": {"defect": "D2",
                     "observed": {"mean": 100.508, "uncertainty": 10.155},
                     "rtol": 1e-3},
}

# Draw ranges are narrow and the MC draw shape (n_max, trials) is fixed, so
# that the work of a pass hardly depends on the seed: run-to-run spread
# across seeds is then machine noise, not input size.  Peak RSS is a step
# function of the MC chunk shape (numpy backs large arrays with huge pages),
# so drawing n_max from 96-104 moved it by up to 7% between seeds.
MC_SHAPE = {"full": (100, 400_000), "tiny": (40, 5_000)}   # n_max, trials
# |z| limit per occupied histogram bin: at most ~200 bins per draw, so a
# correct sampler exceeds 5 standard errors with probability below 1e-4.
MC_Z_LIMIT = 5.0


def _rng(seed: int, workload: str) -> np.random.Generator:
    # Philox keyed by (seed, workload), like the repo's MC chunk streams.
    return np.random.Generator(
        np.random.Philox(key=[seed, WORKLOADS.index(workload)]))


def _near(rng, default: float, rel: float = 0.1) -> str:
    return format(default * rng.uniform(1.0 - rel, 1.0 + rel), ".6g")


def _cli_task(argv: list) -> dict:
    # `toalab validate` exits 2 when a criterion fails; its expected exit
    # code follows from the criteria it reports.
    return {"kind": "cli", "argv": argv,
            "expect_exit": None if argv[0] == "validate" else 0}


def _int_in(rng, lo: int, hi: int) -> str:
    return str(int(rng.integers(lo, hi + 1)))


def _cli_tasks(rng, size: str) -> list:
    tiny = size == "tiny"
    widths = [_near(rng, w, 0.2) for w in (10.0, 1.0, 0.1, 0.01)]
    return [
        _cli_task(["kijowski-bullet", "--m", _near(rng, 1.0),
                   "--p0", _near(rng, 1.0), "--sigma-x", _near(rng, 10.0),
                   "--d", _near(rng, 100.0)]),
        _cli_task(["kijowski-wave", "--m", _near(rng, 1.0, 0.2),
                   "--sigma-p", _near(rng, 1.0, 0.2)]),
        _cli_task(["walk-validate", "--d", _int_in(rng, 1, 5),
                   "--n-max", _int_in(rng, 10, 20) if tiny
                   else _int_in(rng, 40, 60)]),
        _cli_task(["continuum"] + (["--refinements", "1,2"] if tiny else [])),
        _cli_task(["sqm-detect", "--m", _near(rng, 1.0),
                   "--p0", _near(rng, 1.0), "--sigma-x", _near(rng, 10.0),
                   "--d", _near(rng, 100.0)]),
        _cli_task(["tqm-detect", "--m", _near(rng, 1.0),
                   "--v0", _near(rng, 0.1), "--sigma-x", _near(rng, 10.0),
                   "--sigma-t", _near(rng, 10.0), "--d", _near(rng, 10.0)]),
        _cli_task(["slit-sweep", "--W", ",".join(widths),
                   "--v0", _near(rng, 0.01), "--sigma-x", _near(rng, 100.0),
                   "--m", _near(rng, 1.0), "--d", _near(rng, 100.0)]),
        # Without --lambda: its MS row is unresolved at these defaults (D1).
        _cli_task(["metric-compare", "--m", _near(rng, 1.0),
                   "--p0", _near(rng, 10.0), "--sigma-x", _near(rng, 10.0),
                   "--d", _near(rng, 2.0e4)]),
        _cli_task(["laplace-check", "--m", _near(rng, 1.0),
                   "--x", _near(rng, 1.0),
                   "--s", ",".join(_near(rng, s, 0.2)
                                   for s in (0.5, 1.0, 2.0))]),
        _cli_task(["ms-evolve", "--lambda", _near(rng, 1.0, 0.5),
                   "--p0", _near(rng, 1.0), "--sigma-x", _near(rng, 5.0),
                   "--d", _near(rng, 25.0)]
                  + (["--steps", "300", "--n-grid", "1025"] if tiny else [])),
    ]


def _walks_tasks(rng, size: str) -> list:
    tiny = size == "tiny"
    tasks = []
    n_max, trials = MC_SHAPE[size]
    for _ in range(4):
        tasks.append({"kind": "mc", "d": int(rng.integers(1, 5)),
                      "n_max": n_max, "trials": trials,
                      "seed": int(rng.integers(2**32))})
    for _ in range(2):
        tasks.append(_cli_task(["walk-validate", "--d", _int_in(rng, 1, 6),
                                "--n-max", _int_in(rng, 30, 40) if tiny
                                else _int_in(rng, 390, 400)]))
    tasks.append(_cli_task(["continuum", "--refinements",
                            "1,2" if tiny else "1,2,4,8,16"]))
    return tasks


def generate(workload: str, seed: int, size: str = "full") -> dict:
    """The parameter set of one workload; the same seed gives the same set."""
    if workload == "validate":
        tasks = [_cli_task(["validate"])]   # pinned inputs, seed unused
    elif workload == "cli":
        tasks = _cli_tasks(_rng(seed, workload), size)
    elif workload == "walks":
        tasks = _walks_tasks(_rng(seed, workload), size)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "size": size,
            "tasks": tasks}


# ---------------------------------------------------------------------------
# Running and checking (worker process).  toalab is imported inside these
# functions: the benchmark process only generates inputs and never loads it.
# ---------------------------------------------------------------------------


def _artifact_problems(out_dir: str, sub: str) -> list:
    missing = []
    for suffix in ("manifest.json",) + ARTIFACTS[sub]:
        path = os.path.join(out_dir, f"{sub}_{suffix}")
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            missing.append(f"missing artifact {sub}_{suffix}")
    return missing


def _known(name: str, observed: dict) -> bool:
    known = KNOWN_FAILURES.get(name)
    if known is None:
        return False
    return all(abs(observed.get(k, float("nan")) - v) <= known["rtol"] * abs(v)
               for k, v in known["observed"].items())


def _check_validate(out_dir: str) -> list:
    with open(os.path.join(out_dir, "validate_summary.json")) as fh:
        summary = json.load(fh)
    results = []
    for c in summary["criteria"]:
        name = f"criterion_{c['cid']:02d}"
        ok = bool(c["passed"])
        results.append({"name": name, "ok": ok,
                        "known": not ok and _known(name, c["observed"]),
                        "detail": None if ok else c["observed"]})
    return results


def _run_cli(task: dict, out_dir: str, index: int) -> list:
    import toalab.cli

    sub = task["argv"][0]
    task_dir = os.path.join(out_dir, f"task{index:02d}")
    code = toalab.cli.main(task["argv"] + ["--output-dir", task_dir])
    problems = _artifact_problems(task_dir, sub)
    if sub == "validate" and not problems:
        results = _check_validate(task_dir)
        expect = 0 if all(r["ok"] for r in results) else 2
        if code != expect:
            results.append({"name": "validate", "ok": False, "known": False,
                            "detail": [f"exit code {code}, expected "
                                       f"{expect}"]})
        return results
    if code != task["expect_exit"]:
        problems.append(f"exit code {code}, expected {task['expect_exit']}")
    return [{"name": sub, "ok": not problems, "known": False,
             "detail": problems or None}]


def _run_mc(task: dict, workers: int) -> list:
    import toalab.firstpassage as fp

    args = (task["d"], task["n_max"], task["trials"], task["seed"])
    serial = fp.monte_carlo_first_arrival(*args, workers=1)
    pooled = fp.monte_carlo_first_arrival(*args, workers=workers)
    problems = []
    if int(serial.counts.sum()) + serial.never_arrived != task["trials"]:
        problems.append("counts + never_arrived != trials")
    if not (np.array_equal(serial.counts, pooled.counts)
            and serial.never_arrived == pooled.never_arrived):
        problems.append(f"histogram differs between 1 and {workers} workers")
    occupied = serial.exact_reference() > 0
    z = float(np.abs(serial.z_scores()[occupied]).max())
    if not z < MC_Z_LIMIT:
        problems.append(f"max |z| = {z:.3g} >= {MC_Z_LIMIT}")
    return [{"name": "mc", "ok": not problems, "known": False,
             "detail": problems or None}]


def run_pass(params: dict, out_dir: str, workers: int, recorder=None):
    """Run every task once; returns (wall seconds, task results).

    Tasks run in sequence, each after the previous one completes.  The
    wall time covers the tasks and their checks, not the imports.
    """
    results = []
    t0 = time.perf_counter()
    for index, task in enumerate(params["tasks"]):
        if recorder is not None:
            recorder.task = index
        try:
            if task["kind"] == "mc":
                results += _run_mc(task, workers)
            else:
                results += _run_cli(task, out_dir, index)
        except Exception:  # a task that raises is a failed task
            results.append({"name": task.get("argv", ["mc"])[0], "ok": False,
                            "known": False,
                            "detail": [traceback.format_exc(limit=-3)]})
    return time.perf_counter() - t0, results
