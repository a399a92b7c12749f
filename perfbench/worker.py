"""One measured iteration of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload fig7 --seed 1 --mode plain

Modes:

* ``plain``: build, run and check; the timings are the end-to-end ones.
* ``trace``: the same run under the per-layer wrappers and cProfile.
* ``oracle``: the same run under :class:`repro.dst.InvariantMonitor` with the
  full registered oracle catalogue, one monitor per pipeline.

Prints one JSON object on stdout.  ``setup_done`` is a ``time.monotonic()``
reading (system-wide on Linux), so the parent that spawned this process
can measure set-up from before the interpreter started.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import json
import resource
import sys
import time

import layers
import speed
import workloads


def _oracles(built):
    """Attach one monitor per pipeline; returns the monitors and a timing box."""
    from repro.dst.invariants import InvariantMonitor

    spent = [0.0]

    def timed(sweep):
        def timed_sweep(final):
            t0 = time.perf_counter()
            try:
                sweep(final)
            finally:
                spent[0] += time.perf_counter() - t0
        return timed_sweep

    monitors = {}
    for name, pipe in built.pipes.items():
        monitor = monitors[name] = InvariantMonitor(pipe)
        monitor.sweep = timed(monitor.sweep)
    return monitors, spent


def _oracle_results(monitors, spent, finished) -> dict:
    # Fleet-wide oracles see the whole fleet from every tenant's monitor,
    # so identical reports are counted once.
    seen = set()
    for name, monitor in monitors.items():
        monitor.note_finished(finished[name])
        for v in monitor.finish():
            seen.add((v.invariant, v.detail))
    return {
        "dst.oracle_sweeps": sum(m.sweeps for m in monitors.values()),
        "dst.oracle_s": spent[0],
        "dst.violations": len(seen),
        "violations": sorted(f"{inv}: {detail}" for inv, detail in seen),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PARAMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "trace", "oracle"), default="plain")
    args = ap.parse_args(argv)

    with contextlib.ExitStack() as stack:
        # the untraced timings are the end-to-end ones, and need the speed
        sampler = stack.enter_context(speed.SpeedSampler()) if args.mode == "plain" else None
        import_s = workloads.import_program()
        tracer = stack.enter_context(layers.LayerTracer()) if args.mode == "trace" else None
        t0 = time.perf_counter()
        built = workloads.setup(args.workload, args.seed)
        build_s = time.perf_counter() - t0
        monitors = _oracles(built) if args.mode == "oracle" else None
        setup_done = time.monotonic()
        setup_samples = len(sampler.samples) if sampler is not None else 0

        profile = cProfile.Profile() if tracer is not None else None
        if profile is not None:
            profile.enable()
        t0 = time.perf_counter()
        finished = built.run()
        run_s = time.perf_counter() - t0
        if profile is not None:
            profile.disable()

    result = workloads.outcome(built, finished)
    result.update({
        "setup_done": setup_done,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if sampler is not None:
        result["speed"] = {"setup": sampler.samples[:setup_samples],
                           "run": sampler.samples[setup_samples:]}
    if tracer is not None:
        from repro.evpath.messages import validate_message
        from repro.simkernel.core import SeededShuffle

        layer = tracer.metrics()
        layer.update(layers.self_times(profile, {
            "simkernel.tiebreak_s": SeededShuffle.key,
            "evpath.validate_s": validate_message,
        }))
        layer.update(_program_records(built))
        layer.update({"simkernel.events": result["events"],
                      "spec.import_s": import_s, "spec.build_s": build_s})
        result["layer"] = layer
    if monitors is not None:
        result["oracle"] = _oracle_results(*monitors, finished)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _program_records(built) -> dict:
    """Per-layer counts the run keeps in its own records, not in wrappers."""
    out = {"adios.handovers": sum(
        len(p.failover.handovers) for p in built.pipes.values() if p.failover is not None)}
    out["adios.catchup_sim_s"] = sum(built.catchup)
    if built.fleet is not None:
        for _, action, _, count in built.fleet.arbiter.trace:
            key = f"fleet.arbiter.{action}"
            out[key] = out.get(key, 0) + count
    return out


if __name__ == "__main__":
    sys.exit(main())
