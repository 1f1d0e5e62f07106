#!/usr/bin/env python3
"""Benchmark runner for ontodivide.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory.  It generates the workload's ontology pair and
planted reference alignment from `--seed` into `.bench_work/`, then, for
about `--seconds` seconds, starts fresh interpreters (`worker.py`): a few
that only time set-up, then one that runs an untimed warm-up pass and
timed passes until the time is up.  It checks every pass's output.

With `--trace 0` it reports the end-to-end metrics of BENCHMARK.json.
Each timing is taken next to a fixed host-speed probe (`probe.py`) and
reported as the median of timing / probe time, in seconds of a host on
which the probe takes `PROBE_REF_S`; the other metrics are medians.
With `--trace 1` it alternates an untraced pass with a traced one and
reports the per-layer metrics, raw.  The last line of standard output is
the JSON result; a summary with raw medians, quartiles and sample counts
goes to standard error, and every raw figure to
`.bench_work/<workload>-s<seed>/result.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gen import write_pair  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# a worker that takes longer than its share of the run plus this is
# killed and counts as failed; runs longer than LOOP_CUTOFF_S are cut to it,
# which keeps a run under three minutes
REP_TIMEOUT_S = 60
LOOP_CUTOFF_S = 100
SETUP_PROCS = 6
# timings are reported in seconds of a host on which probe.probe() takes
# this long: about its time on an idle two-vCPU Xeon virtual machine
PROBE_REF_S = 0.05
NORMALISED = ("setup_s", "divide_s", "coverage_s")


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _run_worker(mode: str, job: dict, job_path: Path,
                env: dict[str, str]) -> dict:
    job_path.write_text(json.dumps(job), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, str(job_path)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S + max(0.0, job.get("deadline", 0.0)
                                        - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"errors": [f"{mode} worker exceeded {REP_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"errors": [f"{mode} worker exited {proc.returncode}: "
                           f"{tail[0]}"]}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"errors": [f"{mode} worker printed no result: {lines[-1]}"]}


def _run_rep(job: dict, out_dir: Path, check_self: bool, deadline: float,
             env: dict[str, str]) -> dict:
    """A `rep` worker that starts no timed pass it cannot end by `deadline`
    (a `time.monotonic()` value), but always runs one."""
    rep = _run_worker("rep", {**job, "out_dir": str(out_dir),
                              "check_self": check_self, "deadline": deadline},
                      out_dir.with_name("job.json"), env)
    shutil.rmtree(out_dir, ignore_errors=True)
    return rep


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ontodivide" / "__init__.py").is_file():
        print(f"error: no ontodivide sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    source, target, reference = write_pair(workload.pair, args.seed,
                                           work / "input")
    env = _worker_env()
    # compile the package's bytecode before anything is timed
    subprocess.run([sys.executable, "-c", "import ontodivide"], cwd=ROOT,
                   env=env, check=True, timeout=REP_TIMEOUT_S)

    job = {"source": str(source), "target": str(target),
           "reference": str(reference), "ns": list(workload.ns),
           "config": workload.config, "src_root": str(ROOT / "src")}
    setups: list[dict] = []
    reps: list[dict] = []
    traces: list[dict] = []
    start = time.monotonic()
    seconds = min(args.seconds, LOOP_CUTOFF_S)
    if args.trace:
        # rounds of one untraced timed pass and one traced pass
        while True:
            began = time.monotonic()
            i = len(reps)
            reps.append(_run_rep(job, work / f"rep{i}", i == 0, 0.0, env))
            out_dir = work / f"trace{i}"
            traces.append(_run_worker(
                "trace", {**job, "out_dir": str(out_dir),
                          "run_id": f"{workload.name}-s{args.seed}-{i}",
                          "trace_path": str(work / f"trace{i}.json")},
                work / "job.json", env))
            shutil.rmtree(out_dir, ignore_errors=True)
            now = time.monotonic()
            if now - start + (now - began) > seconds:
                break
    else:
        setups = [_run_worker("setup", job, work / "job.json", env)
                  for _ in range(SETUP_PROCS)]
        # one worker: warm-up, then timed passes until the run's time is up
        reps.append(_run_rep(job, work / "rep0", True, start + seconds, env))

    _check_consistency(reps, traces)
    failed = sum(1 for r in setups + reps + traces if r["errors"])
    good = [r for r in reps if not r["errors"]]
    if args.trace:
        samples, values = _trace_samples(reps, traces)
    else:
        samples, values = _rep_samples(
            [r for r in setups if not r["errors"]], good)
    (work / "result.json").write_text(
        json.dumps({"setups": setups, "reps": reps, "traces": traces},
                   indent=1),
        encoding="utf-8")

    for r in setups + reps + traces:
        for err in r["errors"]:
            print(f"check failed: {err}", file=sys.stderr)
    metrics = {}
    for name, unit in units.items():
        if name not in values:
            continue
        metrics[name] = {"value": values[name], "unit": unit}
        q1, q3 = _quartiles(samples[name])
        raw = "raw " if name in NORMALISED else ""
        print(f"{workload.name:>13} {name:<28} {values[name]:14.6g}"
              f" {unit:<6} {raw}median={statistics.median(samples[name]):.6g}"
              f" q1={q1:.6g} q3={q3:.6g} samples={len(samples[name])}",
              file=sys.stderr)
    if "probe_s" in samples:
        q1, q3 = _quartiles(samples["probe_s"])
        print(f"{workload.name:>13} {'probe_s':<28} "
              f"{statistics.median(samples['probe_s']):14.6g} s      "
              f"q1={q1:.6g} q3={q3:.6g} (reference {PROBE_REF_S} s)",
              file=sys.stderr)
    if not args.trace and good:
        curve = ", ".join(f"n={n}: coverage {v['planted_coverage']:.4f} "
                          f"size_ratio {v['size_ratio_total']:.4f}"
                          for n, v in good[0]["per_n"].items())
        print(f"{workload.name:>13} {curve}", file=sys.stderr)
    attempted = len(setups) + len(reps) + len(traces)
    print(f"{workload.name:>13} error_rate = {failed}/{attempted}",
          file=sys.stderr)
    correct = failed == 0 and set(metrics) == set(units)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _check_consistency(reps: list[dict], traces: list[dict]) -> None:
    """Mark repetitions whose deterministic results differ from the first.

    Every repetition of one seed must give the same division, coverage
    and size ratio, and every traced pass, staging the calls of `divide`
    itself, must give the same division as `divide` did.
    """
    first = next((r for r in reps if not r["errors"]), None)
    if first is None:
        return
    expected = {n: v["digest"] for n, v in first["per_n"].items()}
    for r in reps:
        if r["errors"]:
            continue
        for key in ("planted_coverage", "size_ratio_total"):
            if r[key] != first[key]:
                r["errors"].append(f"{key} {r[key]} differs from the first "
                                   f"repetition's {first[key]}")
        if {n: v["digest"] for n, v in r["per_n"].items()} != expected:
            r["errors"].append("division differs from the first repetition's")
    for t in traces:
        if not t["errors"] and t["digests"] != expected:
            t["errors"].append("traced staged division differs from "
                               "divide()'s")


def _normalised(pairs: list[tuple[float, float]]) -> float:
    """Median of time / probe time, in seconds at the reference speed."""
    return statistics.median(t / p for t, p in pairs) * PROBE_REF_S


def _passes(rep: dict, name: str) -> list[tuple[float, float]]:
    """(time summed over n, mean probe time) of each timed pass."""
    times = list(zip(*rep[name].values()))
    probes = list(zip(*rep["probe_s"].values()))
    return [(sum(t), statistics.fmean(p)) for t, p in zip(times, probes)]


def _rep_samples(setups: list[dict], reps: list[dict]
                 ) -> tuple[dict[str, list[float]], dict[str, float]]:
    """Raw samples and reported value of every end-to-end metric.

    A timing is divided by the probe time measured next to it and
    reported as the median over passes (set-up processes, for `setup_s`)
    times `PROBE_REF_S`.  The other metrics are medians over workers.
    """
    pairs = {"setup_s": [(r["setup_s"], r["probe_s"]) for r in setups]}
    for name in ("divide_s", "coverage_s"):
        pairs[name] = [pp for r in reps for pp in _passes(r, name)]
    samples = {name: [t for t, _ in v] for name, v in pairs.items()}
    values = {name: _normalised(v) for name, v in pairs.items() if v}
    samples["probe_s"] = [p for r in reps for v in r["probe_s"].values()
                          for p in v]
    for name in ("peak_rss_mb", "planted_coverage", "size_ratio_total"):
        samples[name] = [r[name] for r in reps]
    samples["self_coverage"] = [r["self_coverage"] for r in reps
                                if r["self_coverage"] is not None]
    for name, v in samples.items():
        if v and name not in values:
            values[name] = statistics.median(v)
    return samples, values


def _trace_samples(reps: list[dict], traces: list[dict]
                   ) -> tuple[dict[str, list[float]], dict[str, float]]:
    """Every traced pass's metrics, and those of the median pass.

    Reporting one whole pass, the one with the median wall time, keeps the
    layer self times and the unattributed time adding up to its wall time.
    """
    passes = []
    for rep, t in zip(reps, traces):
        if rep["errors"] or t["errors"]:
            continue
        m = dict(t["metrics"])
        m["trace.overhead_ratio"] = \
            (m["trace.wall_s"] - m["ontology.parse_s"]) \
            / sum(statistics.median(rep[k][n])
                  for k in ("divide_s", "coverage_s") for n in rep[k])
        passes.append(m)
    if not passes:
        return {}, {}
    samples = {name: [m[name] for m in passes] for name in passes[0]}
    passes.sort(key=lambda m: m["trace.wall_s"])
    return samples, passes[(len(passes) - 1) // 2]


if __name__ == "__main__":
    sys.exit(main())
