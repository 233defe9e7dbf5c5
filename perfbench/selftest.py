"""Self-test of the benchmark harness at tiny sizes (about 30 s).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is reported with its unit,
that a task with a deliberately wrong expected value counts as failed, that
the known criterion-2 failure is told apart from any other, that self time
subtracts the union of child intervals, and that the benchmark refuses to
run without the program's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
import spans
import workloads


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def declared() -> tuple:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e, per_layer = ({m["name"]: m["unit"] for m in bench[key]}
                      for key in ("end_to_end", "per_layer"))
    return e2e, per_layer, bench


def reported(record: dict, trace: int) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        metrics = run.report(dict(record, trace=trace))
    return {k: v["unit"] for k, v in metrics.items()}


def test_metrics_and_units() -> None:
    e2e, per_layer, bench = declared()
    check([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name in ("cli", "walks"):
        record = run.run_workload(workloads.generate(name, 7, "tiny"),
                                  seconds=0, trace=1)
        check(record["correct"] and record["failed"] == 0,
              f"tiny {name} failed: {record['failures']}")
        check(reported(record, 0) == e2e,
              f"{name}: end-to-end metrics/units differ from BENCHMARK.json")
        check(reported(record, 1) == per_layer,
              f"{name}: per-layer metrics/units differ from BENCHMARK.json")
        check(record["per_layer"]["detectors.marchewka_schuss_evolve.calls"]
              == (1 if name == "cli" else 0), f"{name}: MS call count")


def test_wrong_expectation_counts() -> None:
    params = workloads.generate("walks", 7, "tiny")
    bad = next(t for t in params["tasks"] if t["kind"] == "cli")
    bad["expect_exit"] = 2       # the program correctly exits 0
    record = run.run_workload(params, seconds=0, trace=0)
    check(record["failed"] == 1 and not record["correct"],
          f"wrong expectation not counted: {record['failures']}")
    check(record["fail_frac"] == 1 / record["attempted"], "fail_frac")


def test_known_failure_evidence() -> None:
    def criterion(cid, passed, **observed):
        return {"cid": cid, "passed": passed, "observed": observed}

    summary = {"criteria": [
        criterion(1, True),
        criterion(2, False, mean=100.5077, uncertainty=10.155),
        criterion(5, False, monotone=False)]}
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        with open(os.path.join(tmp, "validate_summary.json"), "w") as fh:
            json.dump(summary, fh)
        res = {r["name"]: r for r in workloads._check_validate(tmp)}
        summary["criteria"][1]["observed"]["uncertainty"] = 7.071
        with open(os.path.join(tmp, "validate_summary.json"), "w") as fh:
            json.dump(summary, fh)
        moved = {r["name"]: r for r in workloads._check_validate(tmp)}
    check(res["criterion_01"]["ok"], "passing criterion")
    check(not res["criterion_02"]["ok"] and res["criterion_02"]["known"],
          "D2 evidence should mark criterion 2 as the known failure")
    check(not res["criterion_05"]["known"], "criterion 5 is not known")
    check(not moved["criterion_02"]["known"],
          "criterion 2 with other evidence is not the known failure")


def test_self_time() -> None:
    rec = spans.Recorder()
    rec.spans[:] = [["p", 0.0, 10.0, -1, 0, None],
                    ["a", 1.0, 3.0, 0, 0, None],
                    ["b", 2.0, 4.0, 0, 0, None],    # overlaps a
                    ["c", 6.0, 7.0, 0, 0, None],
                    ["d", 6.5, 6.75, 3, 0, None]]
    got = rec.self_times()
    want = [6.0, 2.0, 2.0, 0.75, 0.25]
    check(all(abs(g - w) < 1e-12 for g, w in zip(got, want)),
          f"self times {got} != {want}")


def test_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        res = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    check(res.returncode != 0 and not res.stdout.strip(),
          "run.py must fail without printing a result when src/ is absent")


def main() -> None:
    os.makedirs(run.OUT, exist_ok=True)
    for test in (test_self_time, test_known_failure_evidence,
                 test_refuses_without_sources, test_wrong_expectation_counts,
                 test_metrics_and_units):
        test()
        print(f"ok {test.__name__}", flush=True)
    print("selftest: ok")


if __name__ == "__main__":
    main()
