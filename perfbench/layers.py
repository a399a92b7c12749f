"""Per-layer attribution for the traced run, measured from outside the program.

:class:`LayerTracer` installs counting wrappers around each layer's public
functions and restores them on exit; the wrappers only observe, so the
simulation they wrap schedules exactly the same events.  Counts live on the
tracer object, never in the program's process-global ``REGISTRY``.
:func:`self_times` groups a cProfile run's self time by ``src/repro/<package>``.
"""

from __future__ import annotations

import os
import pstats
from collections import Counter
from typing import Callable, Dict, List

#: the layers of the program, as ``src/repro/`` packages
LAYERS = ("simkernel", "cluster", "evpath", "faults", "datatap", "adios",
          "containers", "controlplane", "overload", "analytics", "fleet",
          "spec", "dst", "monitoring", "perf")

#: groups of profiled self time.  Beside the layers: the simulated
#: applications and models (``repro_other``), the interpreter and standard
#: library (``python``), and this benchmark's wrappers (``perfbench``).
#: ``dst`` runs only in the oracle pass, timed there as ``dst.oracle_s``.
SELF_TIME_GROUPS = tuple(layer for layer in LAYERS if layer != "dst") + (
    "repro_other", "python", "perfbench")

#: protocol end status -> the metric counting it
_STATUS_METRIC = {"committed": "controlplane.committed",
                  "aborted": "controlplane.aborts"}

_HERE = os.path.dirname(os.path.abspath(__file__))


def package_of(filename: str) -> str:
    """The self-time group a source file belongs to."""
    if os.path.dirname(os.path.abspath(filename)) == _HERE:
        return "perfbench"
    parts = filename.replace("\\", "/").split("/")
    if "repro" not in parts:
        return "python"
    i = len(parts) - 1 - parts[::-1].index("repro")
    pkg = parts[i + 1] if i + 2 < len(parts) else ""
    return pkg if pkg in LAYERS else "repro_other"


class LayerTracer:
    """Counting wrappers around the layers' public functions."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.maxima: Dict[str, float] = {}
        self.messengers: List[object] = []
        self._shed = set()
        self._undo: List[tuple] = []

    # -- installation ----------------------------------------------------------

    def _patch(self, cls, name: str, hook: Callable) -> None:
        orig = cls.__dict__[name]

        def wrapper(obj, *args, **kwargs):
            return hook(orig, obj, *args, **kwargs)

        wrapper.__name__ = wrapper.__qualname__ = f"traced_{name}"
        setattr(cls, name, wrapper)
        self._undo.append((cls, name, orig))

    def __enter__(self) -> "LayerTracer":
        from repro.adios.engine import EngineSwitch
        from repro.adios.spill import SpillStore
        from repro.analytics.predictive import PredictiveManager
        from repro.cluster.network import TransferStats
        from repro.controlplane.trace import ControlPlaneTrace
        from repro.datatap.buffer import StagingBuffer
        from repro.datatap.writer import DataTapWriter
        from repro.evpath.channel import Messenger
        from repro.faults.detect import FailureDetector
        from repro.overload.brownout import DegradationTrace
        from repro.overload.shed import ShedLedger
        from repro.simkernel import Environment
        from repro.simkernel.process import Process

        c = self.counts

        def process(orig, env, generator, *args, **kwargs):
            code = getattr(generator, "gi_code", None)
            layer = package_of(code.co_filename) if code is not None else "python"
            c[f"simkernel.processes.{layer}"] += 1
            return orig(env, generator, *args, **kwargs)

        def send(orig, messenger, src_node, to, message):
            result = orig(messenger, src_node, to, message)
            c["evpath.sends"] += 1
            c[f"evpath.sends.{message.mtype.value}"] += 1
            if not isinstance(result, Process):
                c["evpath.sends.fast"] += 1
            return result

        def messenger_init(orig, messenger, *args, **kwargs):
            orig(messenger, *args, **kwargs)
            self.messengers.append(messenger)

        def beat(orig, detector, member):
            if member in detector.suspected:
                c["faults.false_suspicions"] += 1
            c["faults.heartbeats"] += 1
            return orig(detector, member)

        def detector_init(orig, detector, env, *args, **kwargs):
            orig(detector, env, *args, **kwargs)
            on_suspect = detector.on_suspect

            def suspect(member):
                c["faults.suspicions"] += 1
                c["faults.detect_delay_sim_s"] += env.now - detector._last_beat[member]
                if on_suspect is not None:
                    on_suspect(member)

            detector.on_suspect = suspect

        def transfer(orig, stats, src, dst, nbytes, busy, waited):
            c["cluster.transfers"] += 1
            c["cluster.bytes"] += nbytes
            c["cluster.link_wait_sim_s"] += waited
            return orig(stats, src, dst, nbytes, busy, waited)

        def write(orig, writer, chunk):
            c["datatap.chunks"] += 1
            c["datatap.bytes"] += chunk.nbytes
            return orig(writer, chunk)

        def redeliver(orig, writer, reader_name):
            n = orig(writer, reader_name)
            c["datatap.redeliveries"] += n
            return n

        def try_insert(orig, buffer, chunk):
            ok = orig(buffer, chunk)
            if ok:
                self._peak("datatap.buffer_peak", buffer.used_bytes)
            return ok

        def write_segment(orig, store, node, record):
            c["adios.spill_segments_written"] += 1
            c["adios.spill_bytes"] += record.nbytes
            return orig(store, node, record)

        def read_segment(orig, store, node, record):
            c["adios.replay_segments_read"] += 1
            return orig(store, node, record)

        def set_state(orig, switch, state, time):
            if state != switch.state:
                c["adios.engine_transitions"] += 1
            return orig(switch, state, time)

        def finish(orig, trace_sink, trace, now, status):
            if trace.status == "running":
                c[f"controlplane.protocols.{trace.protocol}"] += 1
                c[_STATUS_METRIC.get(status, "controlplane.failed")] += 1
            return orig(trace_sink, trace, now, status)

        levels: Dict[tuple, int] = {}

        def record_degradation(orig, trace, time, kind, action, level, **detail):
            if level > levels.get((id(trace), kind), 0):
                c["overload.ladder_climbs"] += 1
            levels[(id(trace), kind)] = level
            if "stride" in detail:
                self._peak("overload.stride_max", detail["stride"])
            return orig(trace, time, kind, action, level, **detail)

        def record_shed(orig, ledger, timestep, *args, **kwargs):
            accounted = orig(ledger, timestep, *args, **kwargs)
            if accounted:
                self._shed.add((id(ledger), int(timestep)))
            return accounted

        def counted(key):
            def hook(orig, obj, *args, **kwargs):
                c[key] += 1
                return orig(obj, *args, **kwargs)
            return hook

        self._patch(Environment, "process", process)
        self._patch(Messenger, "send", send)
        self._patch(Messenger, "__init__", messenger_init)
        self._patch(FailureDetector, "beat", beat)
        self._patch(FailureDetector, "__init__", detector_init)
        self._patch(TransferStats, "record", transfer)
        self._patch(DataTapWriter, "write", write)
        self._patch(DataTapWriter, "redeliver_unacked", redeliver)
        self._patch(StagingBuffer, "try_insert", try_insert)
        self._patch(SpillStore, "write_segment", write_segment)
        self._patch(SpillStore, "read_segment", read_segment)
        self._patch(EngineSwitch, "set_state", set_state)
        self._patch(ControlPlaneTrace, "finish", finish)
        self._patch(DegradationTrace, "record", record_degradation)
        self._patch(ShedLedger, "record", record_shed)
        self._patch(PredictiveManager, "observe", counted("analytics.observations"))
        self._patch(PredictiveManager, "forecast", counted("analytics.forecasts"))
        self._patch(PredictiveManager, "signal", counted("analytics.proactive_actions"))
        return self

    def __exit__(self, *exc) -> None:
        for cls, name, orig in reversed(self._undo):
            setattr(cls, name, orig)
        self._undo.clear()

    def _peak(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    # -- results ---------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Counts gathered so far, under their per-layer metric names."""
        out = dict(self.counts)
        out.update(self.maxima)
        out["overload.shed_steps"] = len(self._shed)
        out["evpath.retries"] = sum(m.retries for m in self.messengers)
        sends = self.counts["evpath.sends"]
        fast = out.pop("evpath.sends.fast", 0)
        out["evpath.fast_path_frac"] = fast / sends if sends else 0.0
        return out


def self_times(profile, extra: Dict[str, object]) -> Dict[str, float]:
    """Self seconds per group, plus cumulative seconds of named functions.

    ``extra`` maps a metric name to a function whose cumulative time
    (itself and everything it calls) that metric reports.
    """
    stats = pstats.Stats(profile).stats
    groups = Counter({g: 0.0 for g in SELF_TIME_GROUPS})
    for (filename, _, _), (_, _, tottime, _, _) in stats.items():
        group = "python" if filename == "~" else package_of(filename)
        groups[group if group in groups else "repro_other"] += tottime
    out = {f"{g}.self_s": t for g, t in groups.items()}
    for metric, fn in extra.items():
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        out[metric] = stats[key][3] if key in stats else 0.0
    return out
