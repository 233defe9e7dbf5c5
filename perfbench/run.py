"""toalab benchmark: seeded workloads, end-to-end metrics, traced run.

    python3 perfbench/run.py --workload validate|cli|walks|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark runs passes over the
workload -- each pass in a fresh worker process that first times ``import
toalab.cli`` (``setup_s``), then issues the tasks in sequence as a single
client (closed loop) -- for ``--seconds``.  Every task's
output is checked.  With ``--trace 0`` the last line is the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and the
last line is the per-layer metrics, including the tracing overhead.  Full
records (machine tag, generated inputs, every pass) go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mib": "MiB"}
PASS_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment of every child: the checkout's sources, BLAS capped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def _git(*args):
    try:
        res = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def machine_tag() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    with open(os.path.join(ROOT, "src", "toalab", "validation.py")) as fh:
        crit4 = re.search(r"def criterion_4\b.*?workers=(\d+)", fh.read(),
                          re.S)
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {"nproc": nproc(), "cpu_model": cpu,
            "python": platform.python_version(),
            "blas_thread_cap": nproc(), "mc_pool_workers": nproc(),
            "criterion_4_pinned_workers": int(crit4.group(1)) if crit4
            else None,
            "git_commit": commit,
            "git_dirty": None if status is None else bool(status)}


def run_worker(params_path, trace, env, tag) -> dict:
    out = os.path.join(OUT, f"pass-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--params", params_path, "--out", out, "--trace", str(trace),
           "--workers", str(nproc()), "--tmp", OUT]
    if trace:
        cmd += ["--spans", os.path.join(OUT, f"spans-{tag}.json.gz")]
    res = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                         text=True, timeout=PASS_TIMEOUT_S)
    if res.returncode != 0:
        raise BenchError(f"worker failed ({res.returncode}):\n"
                         f"{res.stderr[-3000:]}")
    with open(out) as fh:
        record = json.load(fh)
    os.remove(out)
    return record


def run_workload(params, seconds, trace) -> dict:
    """All passes of one run over the generated ``params``; returns the
    record written to perfbench/out."""
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    workload = params["workload"]
    params_path = os.path.join(OUT, f"params-{workload}.json")
    with open(params_path, "w") as fh:
        json.dump(params, fh, indent=1)

    # Passes repeat while the next one (as long as the last) is expected to
    # end within `seconds`, so a run measures for at most about `seconds`.
    passes = []
    t_start = time.perf_counter()
    period = 0.0
    while not passes or time.perf_counter() - t_start + period <= seconds:
        t_iter = time.perf_counter()
        for mode in ((0, 1) if trace else (0,)):
            rec = run_worker(params_path, mode, env, workload)
            rec["trace"] = mode
            passes.append(rec)
            print(f"pass {len(passes)}: trace={mode} "
                  f"wall_s={rec['wall_s']:.4f} cpu_s={rec['cpu_s']:.4f} "
                  f"peak_rss_mib={rec['peak_rss_mib']:.1f} "
                  f"import_s={rec['import_s']:.4f}", flush=True)
        period = time.perf_counter() - t_iter

    plain = [p for p in passes if p["trace"] == 0]
    traced = [p for p in passes if p["trace"] == 1]
    tasks = [t for p in passes for t in p["tasks"]]
    failed = [t for t in tasks if not t["ok"]]
    setup = [p["import_s"] for p in passes]
    e2e = {"wall_s": statistics.median(p["wall_s"] for p in plain),
           "cpu_s": statistics.median(p["cpu_s"] for p in plain),
           "setup_s": statistics.median(setup),
           "peak_rss_mib": statistics.median(p["peak_rss_mib"]
                                             for p in plain)}
    layers = {}
    if traced:
        layers = {k: statistics.median(p["layers"][k] for p in traced)
                  for k in traced[0]["layers"]}
        layers["trace.overhead_frac"] = statistics.median(
            p["wall_s"] for p in traced) / e2e["wall_s"] - 1.0
    return {"workload": workload, "seed": params["seed"], "seconds": seconds,
            "trace": trace, "machine": {**machine_tag(),
                                        **passes[0]["libraries"]},
            "params": params,
            "passes": [{k: v for k, v in p.items()
                        if k not in ("libraries", "tasks")} for p in passes],
            "attempted": len(tasks), "failed": len(failed),
            "fail_frac": len(failed) / len(tasks),
            "failures": failed,
            "correct": all(t["known"] for t in failed),
            "end_to_end": e2e, "per_layer": layers}


def report(run: dict) -> dict:
    """Print the run's summary; return its metrics as {name: value/unit}."""
    w = run["workload"]
    print(f"machine: {json.dumps(run['machine'], sort_keys=True)}")
    print(f"inputs: {json.dumps(run['params'])}")
    for name, value in run["end_to_end"].items():
        print(f"{w} {name} = {value:.6g} {END_TO_END[name]}")
    print(f"{w} fail_frac = {run['failed']}/{run['attempted']} = "
          f"{run['fail_frac']:.6g} 1")
    for t in run["failures"]:
        tag = "known failure" if t["known"] else "FAILED"
        print(f"{w} {tag}: {t['name']}: {json.dumps(t['detail'])}")
    if run["trace"]:
        for name, value in run["per_layer"].items():
            print(f"{w} {name} = {value:.6g} {spans.PER_LAYER[name]}")
        return {k: {"value": v, "unit": spans.PER_LAYER[k]}
                for k, v in run["per_layer"].items()}
    return {k: {"value": v, "unit": END_TO_END[k]}
            for k, v in run["end_to_end"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be in [0, 2^64)")
    if not os.path.isfile(os.path.join(ROOT, "src", "toalab", "cli.py")):
        print(f"error: no toalab sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            run = run_workload(workloads.generate(name, args.seed),
                               args.seconds, args.trace)
            with open(os.path.join(OUT, f"result-{name}-seed{args.seed}-"
                                        f"trace{args.trace}.json"),
                      "w") as fh:
                json.dump(run, fh, indent=1)
            metrics = report(run)
            prefix = f"{name}." if args.workload == "all" else ""
            result["metrics"].update({prefix + k: v
                                      for k, v in metrics.items()})
            result["correct"] &= run["correct"]
            result["attempted"] += run["attempted"]
            result["failed"] += run["failed"]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
