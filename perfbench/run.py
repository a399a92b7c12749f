"""The benchmark of the I/O-container pipeline.

    python3 perfbench/run.py --workload fig7 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, canonical seeds

Each iteration is a fresh, single-threaded worker process (``worker.py``),
run one at a time.  With ``--trace 0`` the iterations repeat for
``--seconds`` seconds (at least twice) and the end-to-end metrics are their
medians.  With ``--trace 1`` every iteration is a pair: an untraced run and
a run under the per-layer wrappers and cProfile; one more run then sweeps
the invariant oracles.  The per-layer metrics come from the traced runs, and
``trace_overhead_frac`` compares the two kinds.

End-to-end timings are in nominal seconds: wall seconds scaled by the
machine's speed while they were measured, sampled as ``speed.py``
describes; the wall times and speed samples are kept in ``--out`` results.
Per-layer timings are unscaled seconds under the profiler.

Every run is checked: each produced timestep has exactly one fate, the
workload's own acceptance conditions hold, every sim-side metric and
per-layer count repeats exactly across iterations, and no oracle fires.  A
run that fails a check publishes no numbers and exits with code 1.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--out FILE`` also writes the
full result, with its shape, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

import metrics
import speed
import workloads

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
#: wall seconds one workload's measurement may take, set-up included
TIME_LIMIT = 170.0
MIN_ITERATIONS = 2


class BenchmarkError(RuntimeError):
    """A worker crashed or timed out: there is nothing to report."""


def spawn(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """Run one iteration in a fresh worker process and return its record."""
    env = dict(os.environ, PYTHONPATH=os.path.join(metrics.ROOT, "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=metrics.ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} {mode} iteration exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} {mode} iteration failed with exit code "
                             f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["setup_s"] = record.pop("setup_done") - t0
    return record


def iterate(workload: str, seed: int, seconds: float, trace: bool,
            spawn: Callable = spawn) -> dict:
    """Run iterations for ``seconds`` (at least MIN_ITERATIONS), one at a time."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT
    runs: Dict[str, list] = {"plain": [], "trace": [], "oracle": []}
    modes = ("plain", "trace") if trace else ("plain",)
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(runs["plain"]) >= MIN_ITERATIONS and (
                elapsed >= seconds or elapsed + longest > TIME_LIMIT * 0.7):
            break
        t0 = time.monotonic()
        for mode in modes:
            runs[mode].append(spawn(workload, seed, mode, deadline - time.monotonic()))
        longest = max(longest, time.monotonic() - t0)
    if trace:
        runs["oracle"].append(spawn(workload, seed, "oracle", deadline - time.monotonic()))
    return runs


# -- gates -----------------------------------------------------------------------


def check(runs: dict, decls: Dict[str, metrics.Metric]) -> List[str]:
    """Correctness, determinism and oracle problems of one workload's runs."""
    problems: List[str] = []
    every = runs["plain"] + runs["trace"] + runs["oracle"]
    for i, rec in enumerate(every):
        problems += [f"iteration {i}: {p}" for p in rec["problems"]]
    # the oracle pass adds monitor events, so it is checked for violations only
    timed = [dict(r["sim"], events=r["events"], produced=r["produced"])
             for r in runs["plain"] + runs["trace"]]
    counts = [name for name, d in decls.items()
              if d.layer != "end_to_end" and d.side == "sim"]
    layers = [{n: r["layer"].get(n, 0) for n in counts} for r in runs["trace"]]
    for recs in (timed, layers):
        for name in sorted({n for r in recs for n in r}):
            values = {repr(r.get(name)) for r in recs}
            if len(values) > 1:
                problems.append(f"nondeterministic: {name} took values {sorted(values)}")
    for rec in runs["oracle"]:
        problems += [f"oracle violation: {v}" for v in rec["oracle"]["violations"]]
    return problems


# -- summary -----------------------------------------------------------------------


def summarize(runs: dict, decls: Dict[str, metrics.Metric], spec: dict) -> dict:
    """Every metric of the runs: name -> value, unit, better, side, samples."""
    plain = runs["plain"]
    out: Dict[str, dict] = {}

    def put(name, value, samples):
        d = decls[name]
        out[name] = {"value": value, "unit": d.unit, "better": d.better,
                     "side": d.side, "samples": samples}

    run_s = [speed.scaled(r["run_s"], r["speed"]["run"]) for r in plain]
    per_iteration = {
        "setup_s": [speed.scaled(r["setup_s"], r["speed"]["setup"], r["speed"]["run"])
                    for r in plain],
        "run_s": run_s,
        "sim_s_per_wall_s": [r["sim"]["sim_s"] / t for r, t in zip(plain, run_s)],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    for m in spec["end_to_end"]:
        put(m["name"], statistics.median(per_iteration[m["name"]]), len(plain))
    sim = plain[0]["sim"]
    for name in metrics.SIM_METRICS:
        if name in sim:
            samples = sim["latency_samples"] if name.startswith("latency_") else len(plain)
            put(name, sim[name], samples)
    traced = runs["trace"]
    if traced:
        for m in spec["per_layer"]:
            name = m["name"]
            if name.startswith("dst."):
                put(name, runs["oracle"][0]["oracle"][name], len(runs["oracle"]))
            elif name == "trace_overhead_frac":
                # wall times: the traced runs are not speed-sampled
                ratio = (statistics.median(r["run_s"] for r in traced)
                         / statistics.median(r["run_s"] - sum(r["speed"]["run"])
                                             for r in plain))
                put(name, ratio - 1.0, len(traced))
            elif decls[name].side == "host":
                put(name, statistics.median(r["layer"].get(name, 0.0) for r in traced),
                    len(traced))
            else:
                put(name, traced[0]["layer"].get(name, 0), len(traced))
        undeclared = sorted(set(traced[0]["layer"]) - set(decls))
        if undeclared:
            print(f"warning: undeclared per-layer metrics {undeclared}", file=sys.stderr)
    return out


def commit() -> Optional[str]:
    """The commit measured, when the benchmark runs in a git work tree."""
    if not os.path.isdir(os.path.join(metrics.ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=metrics.ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def measure(workload: str, seed: int, seconds: int, trace: bool,
            spec: dict, spawn: Callable = spawn) -> dict:
    """One workload's full result: shape, checks and metrics."""
    decls = metrics.declarations(spec)
    runs = iterate(workload, seed, seconds, trace, spawn=spawn)
    problems = check(runs, decls)
    every = runs["plain"] + runs["trace"] + runs["oracle"]
    attempted = sum(r["produced"] for r in every)
    return {
        "shape": {"workload": workload, "params": workloads.PARAMS[workload],
                  "seed": seed, "seconds": seconds, "trace": int(trace)},
        "commit": commit(),
        "iterations": len(runs["plain"]),
        # wall seconds (sampling included) and speed samples of every
        # untraced iteration
        "wall": [{"setup_s": r["setup_s"], "run_s": r["run_s"], "speed": r["speed"]}
                 for r in runs["plain"]],
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": attempted if problems else sum(r["failed"] for r in every),
        # numbers from a run that failed a check are never published
        "metrics": {} if problems else summarize(runs, decls, spec),
    }


def print_table(result: dict) -> None:
    shape = result["shape"]
    print(f"== {shape['workload']}  seed {shape['seed']}  "
          f"{'traced' if shape['trace'] else 'untraced'}  "
          f"{result['iterations']} iterations, each a fresh process ==")
    print(f"  {'metric':42} {'value':>14} {'unit':7} {'better':7} {'side':5} samples")
    for name, m in result["metrics"].items():
        print(f"  {name:42} {m['value']:>14.6g} {m['unit']:7} {m['better']:7} "
              f"{m['side']:5} {m['samples']}")
    wall = result["wall"]
    loop = statistics.median(statistics.fmean(w["speed"]["run"]) for w in wall)
    print(f"  wall medians: setup {statistics.median(w['setup_s'] for w in wall):.4g} s,"
          f" run {statistics.median(w['run_s'] for w in wall):.4g} s; reference loop"
          f" {loop * 1e3:.4g} ms (nominal {speed.NOMINAL_S * 1e3:.4g} ms)")
    for p in result["problems"]:
        print(f"  FAILED: {p}")


def result_line(result: dict, spec: dict, trace: bool) -> dict:
    """The last-line summary: the end-to-end metrics, or the per-layer ones
    when traced."""
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    published = result["metrics"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": published[n]["value"], "unit": published[n]["unit"]}
                    for n in names if n in published},
    }


def main(argv=None, spawn: Callable = spawn) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.PARAMS) + ["all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="default: the workload's canonical seed")
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result(s) to this JSON file")
    args = ap.parse_args(argv)

    spec = metrics.load()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = sorted(workloads.PARAMS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            seed = workloads.DEFAULT_SEEDS[name] if args.seed is None else args.seed
            results[name] = measure(name, seed, seconds, bool(args.trace), spec, spawn)
            print_table(results[name])
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results if args.workload == "all" else results[names[0]], f, indent=1)
    lines = {n: result_line(r, spec, bool(args.trace)) for n, r in results.items()}
    print(json.dumps(lines if args.workload == "all" else lines[names[0]]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
