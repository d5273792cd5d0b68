"""mvdetr benchmark: pretrain, finetune and eval workloads timed from outside.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 30 --trace 0

Each workload is a closed loop in a single process: the next operation starts
when the last one returns. The run starts fresh workload processes one after
another (perfbench/worker.py) until ``--seconds`` is used, and reports medians
over them. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` processes alternate
untraced and traced and the object holds the per-layer metrics. Outputs are
checked in both modes; a failed check names the workload and the check and
exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from spans import SPAN_NAMES, Span, aggregate
from workloads import WORKLOADS, prepare_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

MIN_PROCESSES = 3       # untraced processes per run, so setup_s is a median
TRACED_MIN_PAIRS = 1    # (untraced, traced) process pairs per traced run
LAUNCH_CUTOFF_S = 110   # no new process after this, whatever --seconds says
HARD_LIMIT_S = 170      # a process still running then is killed

END_TO_END_UNITS = {"setup_s": "s", "images_per_s": "1/s", "step_s.p50": "s",
                    "step_s.p90": "s", "peak_rss_mb": "MB", "loss_last": "1"}
LAYER_UNITS = ({f"{n}.self_ms": "ms" for n in SPAN_NAMES}
               | {f"{n}.calls": "count" for n in SPAN_NAMES}
               | {"backbone.extract_batch.rows": "count", "tensor.tape_nodes": "count",
                  "checkpoint.save_checkpoint.bytes": "B",
                  "losses.lap_solves_per_match": "ratio", "views.padded_frac": "ratio",
                  "training.input_wait_ms": "ms", "trace.overhead_frac": "ratio"})


class BenchError(Exception):
    """A failed check or run; the message names the workload and the check."""


# -- environment -----------------------------------------------------------------------


def pin_threads() -> int:
    """Pin BLAS threads for this process and its children; must precede numpy.

    One thread: on a 2-vCPU box the BLAS calls here are too small to gain
    from a second one, and a single thread is exposed to less hypervisor steal.
    """
    threads = 1
    os.environ["SDTR_THREADS"] = str(threads)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def environment(threads: int) -> dict:
    import numpy as np
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        with open("/proc/loadavg", encoding="ascii") as f:
            load1 = float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        load1 = None
    return {"git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": threads, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "loadavg_1m": load1}


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies over all CPUs, to report the steal share of a run."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


# -- workload processes ------------------------------------------------------------------


def spawn(workload: str, inputs: dict, trace: bool, run_dir: str, index: int,
          time_left: float) -> dict:
    """Run one workload process to completion and return its result."""
    out_dir = os.path.join(run_dir, f"p{index:03d}")
    os.makedirs(out_dir)
    request = {"workload": workload, "inputs": inputs, "trace": trace, "out_dir": out_dir}
    req_path = os.path.join(out_dir, "request.json")
    env = dict(os.environ, PYTHONPATH=SRC)
    request["spawned_at"] = time.monotonic()
    with open(req_path, "w", encoding="utf-8") as f:
        json.dump(request, f)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), req_path],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, time_left))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload {workload}: process {index} did not finish in time")
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"workload {workload}: process {index} exited with "
                         f"{proc.returncode}:\n{tail}")
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as f:
        result = json.load(f)
    shutil.rmtree(out_dir)
    return result


def run_processes(workload: str, inputs: dict, seconds: int, trace: bool,
                  run_dir: str, started: float) -> list[dict]:
    """Processes back to back until the next one would overrun `seconds`.

    Traced runs alternate untraced and traced processes, in pairs.
    """
    results: list[dict] = []
    begin = time.monotonic()
    group = 2 if trace else 1
    minimum = TRACED_MIN_PAIRS * 2 if trace else MIN_PROCESSES
    group_s: list[float] = []
    while True:
        now = time.monotonic()
        if len(results) >= minimum and (
                now - begin + statistics.median(group_s) > seconds
                or now - started > LAUNCH_CUTOFF_S):
            break
        t0 = time.monotonic()
        for k in range(group):
            index = len(results)
            results.append(spawn(workload, inputs, trace and k == 1, run_dir, index,
                                 HARD_LIMIT_S - (time.monotonic() - started)))
        group_s.append(time.monotonic() - t0)
    return results


# -- metrics ------------------------------------------------------------------------------


def percentiles(values: list[float]) -> tuple[float, float]:
    """(p50, p90) by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[4], cuts[8]


def end_to_end(results: list[dict], checkpoint_loss: float | None) -> tuple[dict, dict]:
    """End-to-end metrics over untraced processes, plus their sample counts."""
    times = [t for r in results for t in r["op_times"]]
    setups = [r["setup_s"] for r in results if r["setup_s"] is not None]
    p50, p90 = percentiles(times)
    if checkpoint_loss is None:
        last = next(r for r in results if not r["failed"])["outputs"]["last_epoch_losses"]
        loss_last = sum(last) / len(last)
    else:
        loss_last = checkpoint_loss
    values = {
        "setup_s": statistics.median(setups),
        "images_per_s": sum(r["images"] for r in results) / sum(r["main_s"] for r in results),
        "step_s.p50": p50,
        "step_s.p90": p90,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "loss_last": loss_last,
    }
    samples = {"setup_s": len(setups), "images_per_s": sum(r["images"] for r in results),
               "step_s.p50": len(times), "step_s.p90": len(times),
               "peak_rss_mb": len(results), "loss_last": 1}
    return values, samples


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics of the traced processes, normalised per operation."""
    ops = sum(r["attempted"] for r in traced)
    totals: dict[str, tuple[float, int]] = {}
    counts: dict[str, float] = {}
    for r in traced:
        for name, (self_s, calls) in aggregate([Span(**s) for s in r["spans"]]).items():
            t, n = totals.get(name, (0.0, 0))
            totals[name] = (t + self_s, n + calls)
        for name, v in r["counts"].items():
            counts[name] = counts.get(name, 0.0) + v
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        self_s, calls = totals.get(name, (0.0, 0))
        out[f"{name}.self_ms"] = 1000.0 * self_s / ops
        out[f"{name}.calls"] = calls / ops
    for name in ("backbone.extract_batch.rows", "tensor.tape_nodes",
                 "checkpoint.save_checkpoint.bytes"):
        out[name] = counts.get(name, 0.0) / ops
    matchings = counts.get("losses.matchings", 0.0)
    out["losses.lap_solves_per_match"] = (counts.get("losses.lap_solves", 0.0) / matchings
                                          if matchings else 0.0)
    pairs = counts.get("views.pairs", 0.0)
    out["views.padded_frac"] = counts.get("views.padded", 0.0) / pairs if pairs else 0.0
    plain_ops = sum(r["attempted"] for r in untraced)
    outside = sum(r["main_s"] - sum(r["op_times"]) for r in untraced)
    out["training.input_wait_ms"] = 1000.0 * outside / plain_ops
    ips = [sum(r["images"] for r in rs) / sum(r["main_s"] for r in rs)
           for rs in (traced, untraced)]
    out["trace.overhead_frac"] = 1.0 - ips[0] / ips[1]
    return out


# -- correctness checks --------------------------------------------------------------------


COMPARED_OUTPUTS = {"pretrain": ("metrics_csv", "checkpoints"),
                    "finetune": ("loss_list",),
                    "eval": ("report", "detections")}


def check(workload: str, results: list[dict]) -> None:
    """Raise BenchError naming the first check that fails."""
    def fail(what):
        raise BenchError(f"workload {workload}: check failed: {what}")

    ok = [(i, r) for i, r in enumerate(results) if r["failed"] == 0]
    if not ok:
        fail(f"no process completed its operations ({results[0]['error']})")
    for i, r in ok:
        if r["attempted"] != r["expected_ops"]:
            fail(f"process {i} made {r['attempted']} operations, expected {r['expected_ops']}")
        if not all(math.isfinite(v) for v in r["outputs"].get("losses", ())):
            fail(f"every training loss is finite (process {i})")
    i0, ref = ok[0]
    for key in COMPARED_OUTPUTS[workload]:
        for i, r in ok[1:]:
            if r["outputs"][key] != ref["outputs"][key]:
                kind = ("traced and untraced runs" if "spans" in r or "spans" in ref
                        else "repetitions")
                fail(f"{key} identical across {kind} (process {i0} vs {i})")
    if workload == "eval":
        values = [float(v) for v in ref["outputs"]["report"].splitlines()[1].split(",")]
        if not all(0.0 <= v <= 1.0 for v in values) or ref["outputs"]["detections"] <= 0:
            fail("AP/AR within [0, 1] and at least one detection")


# -- entry point ----------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("pretrain", "finetune", "eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "mvdetr", "__init__.py")):
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2

    threads = pin_threads()
    env = environment(threads)
    print("perfbench env " + json.dumps(env, sort_keys=True), flush=True)
    sys.path.insert(0, SRC)
    inputs = prepare_inputs(WORKLOADS[args.workload], args.seed,
                            os.path.join(STATE, "cache"), SRC)
    run_dir = os.path.join(STATE, "runs", f"{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    ticks = cpu_ticks()
    try:
        results = run_processes(args.workload, inputs, args.seconds, bool(args.trace),
                                run_dir, started)
        check(args.workload, results)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    after = cpu_ticks()
    if ticks and after and after[1] > ticks[1]:
        env["steal_frac"] = (after[0] - ticks[0]) / (after[1] - ticks[1])
        print(f"perfbench: hypervisor steal during the run {env['steal_frac']:.1%} of CPU time")
    untraced = [r for r in results if "spans" not in r]
    traced = [r for r in results if "spans" in r]
    values, samples = end_to_end(untraced, inputs.get("checkpoint_loss"))
    if args.trace:
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]}
                   for k, v in per_layer(traced, untraced).items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "processes": len(results), "env": env,
               "end_to_end": values, "samples": samples,
               "per_process": [{k: r[k] for k in ("setup_s", "main_s", "images", "attempted",
                                                 "failed", "error", "peak_rss_mb")}
                               | {"traced": "spans" in r, "op_times": r["op_times"]}
                               for r in results]}
    for k in END_TO_END_UNITS:
        print(f"perfbench {args.workload}: {k} = {values[k]:.6g} {END_TO_END_UNITS[k]} "
              f"(n={samples[k]})")
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    with open(os.path.join(STATE, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump(dict(summary, metrics=metrics), f, indent=1, sort_keys=True)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
