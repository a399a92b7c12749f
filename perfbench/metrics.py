"""Metric declarations and the comparison rule every report uses.

Each metric is declared once.  ``BENCHMARK.json`` declares the host-side
end-to-end metrics (with the bound by which each may worsen) and the
per-layer metrics.  :data:`SIM_METRICS` declares the sim-side end-to-end
metrics: they are in simulated time, deterministic for a seed, and so are
gated on exact repetition rather than on a bound.  Every metric has a unit,
a better-direction, a layer and a side: ``host`` (wall clock or memory of
this machine) or ``sim`` (deterministic).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    side: str  # "host" or "sim"
    layer: str  # "end_to_end" or a src/repro package
    bound: Optional[float] = None

    def verdict(self, base: float, new: float) -> str:
        """``worse`` or ``better`` when ``new`` moved from ``base`` by more
        than the bound (by any amount for a metric without one), else
        ``same``."""
        slack = abs(base) * (self.bound or 0.0)
        if new > base + slack:
            return "worse" if self.better == "lower" else "better"
        if new < base - slack:
            return "better" if self.better == "lower" else "worse"
        return "same"


#: sim-side end-to-end metrics: name -> (unit, better)
SIM_METRICS = {
    "latency_p50_sim_s": ("s", "lower"),
    "latency_p90_sim_s": ("s", "lower"),
    "delivered_frac": ("frac", "higher"),
    "sla_met_frac": ("frac", "higher"),
    "time_degraded_sim_s": ("s", "lower"),
    "producer_blocked_sim_s": ("s", "lower"),
}


def _per_layer_side(name: str) -> str:
    """Per-layer wall timings end in ``_s`` (simulated ones in ``_sim_s``);
    every other per-layer metric is a deterministic count or ratio."""
    if name == "trace_overhead_frac":
        return "host"
    if name.endswith("_s") and not name.endswith("_sim_s"):
        return "host"
    return "sim"


def load(root: str = ROOT) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def declarations(spec: dict) -> Dict[str, Metric]:
    """Every metric the benchmark reports, by name."""
    out: Dict[str, Metric] = {}
    for m in spec["end_to_end"]:
        out[m["name"]] = Metric(m["name"], m["unit"], m["better"], "host",
                                "end_to_end", m["bound"])
    for name, (unit, better) in SIM_METRICS.items():
        out[name] = Metric(name, unit, better, "sim", "end_to_end")
    for m in spec["per_layer"]:
        layer = m["name"].split(".")[0] if "." in m["name"] else "perfbench"
        out[m["name"]] = Metric(m["name"], m["unit"], m["better"],
                                _per_layer_side(m["name"]), layer)
    return out


# -- comparison ----------------------------------------------------------------


class ShapeMismatch(ValueError):
    """Two results measured different workload shapes."""


def compare(base: dict, new: dict, decls: Dict[str, Metric]) -> Dict[str, str]:
    """Verdict per metric present in both results.

    A host-side metric is ``worse`` or ``better`` when it moved by more than
    its bound, else ``same``.  A sim-side metric is ``same`` only when it
    repeats exactly; otherwise the behaviour changed and the verdict says
    which way.
    """
    if base["shape"] != new["shape"]:
        diff = sorted(k for k in set(base["shape"]) | set(new["shape"])
                      if base["shape"].get(k) != new["shape"].get(k))
        raise ShapeMismatch(f"results measure different shapes; differing: {diff}")
    verdicts = {}
    for name in sorted(set(base["metrics"]) & set(new["metrics"])):
        decl = decls[name]
        b, n = base["metrics"][name]["value"], new["metrics"][name]["value"]
        if decl.side == "sim":
            verdicts[name] = "same" if b == n else "changed-" + decl.verdict(b, n)
        else:
            verdicts[name] = decl.verdict(b, n)
    return verdicts
