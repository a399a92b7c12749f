"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The gate tests drive ``run.main`` with a fake worker spawner, so they plant
a fault in otherwise clean iteration records and need no simulation.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import metrics  # noqa: E402
import run  # noqa: E402

SPEC = metrics.load()
DECLS = metrics.declarations(SPEC)


def _result(workload="fig7", seed=1, seconds=20, trace=0, **values):
    return {
        "shape": {"workload": workload, "params": {"steps": 400}, "seed": seed,
                  "seconds": seconds, "trace": trace},
        "commit": None,
        "metrics": {k: {"value": v} for k, v in values.items()},
    }


# -- comparison ------------------------------------------------------------------


@pytest.mark.parametrize("field,value", [
    ("workload", "fleet32"), ("seed", 2), ("seconds", 5), ("trace", 1),
    ("params", {"steps": 40}),
])
def test_shape_mismatch_is_refused(field, value):
    base = _result(run_s=1.0)
    new = _result(run_s=1.0)
    new["shape"][field] = value
    with pytest.raises(metrics.ShapeMismatch):
        metrics.compare(base, new, DECLS)


def test_compare_cli_refuses_a_shape_mismatch(tmp_path):
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(_result(run_s=1.0)))
    new.write_text(json.dumps(_result(seed=2, run_s=1.0)))
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "compare.py"),
                           str(base), str(new)], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "refused" in proc.stderr


def test_higher_is_better_metric_that_drops_is_worse():
    assert DECLS["sim_s_per_wall_s"].better == "higher"
    bound = DECLS["sim_s_per_wall_s"].bound
    base = _result(sim_s_per_wall_s=100.0)
    dropped = _result(sim_s_per_wall_s=100.0 * (1 - 2 * bound))
    risen = _result(sim_s_per_wall_s=100.0 * (1 + 2 * bound))
    within = _result(sim_s_per_wall_s=100.0 * (1 - bound / 2))
    assert metrics.compare(base, dropped, DECLS) == {"sim_s_per_wall_s": "worse"}
    assert metrics.compare(base, risen, DECLS) == {"sim_s_per_wall_s": "better"}
    assert metrics.compare(base, within, DECLS) == {"sim_s_per_wall_s": "same"}


def test_lower_is_better_metric_that_rises_is_worse():
    base = _result(run_s=1.0, setup_s=1.0)
    new = _result(run_s=1.5, setup_s=0.5)
    assert metrics.compare(base, new, DECLS) == {"run_s": "worse", "setup_s": "better"}


def test_any_change_in_a_sim_side_metric_is_a_behaviour_change():
    base = _result(delivered_frac=1.0, latency_p50_sim_s=10.0)
    new = _result(delivered_frac=0.999, latency_p50_sim_s=10.0)
    assert metrics.compare(base, new, DECLS) == {
        "delivered_frac": "changed-worse", "latency_p50_sim_s": "same"}


def test_every_metric_is_declared_once_with_direction_side_and_layer():
    names = ([m["name"] for m in SPEC["end_to_end"]] + list(metrics.SIM_METRICS)
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names)) == len(DECLS)
    for d in DECLS.values():
        assert d.better in ("lower", "higher")
        assert d.side in ("host", "sim")
        assert d.layer
    assert DECLS["simkernel.events"].side == "sim"
    assert DECLS["simkernel.self_s"].side == "host"
    assert DECLS["cluster.link_wait_sim_s"].side == "sim"


# -- gates ---------------------------------------------------------------------------


def _fake_spawn(plant=None):
    """A spawner returning clean, identical records; ``plant`` edits one."""
    calls = []

    def spawn(workload, seed, mode, timeout):
        calls.append(mode)
        rec = {
            "sim": {"sim_s": 960.0, "delivered_frac": 1.0, "sla_met_frac": 0.5,
                    "producer_blocked_sim_s": 0.0, "latency_samples": 24,
                    "latency_p50_sim_s": 23.2},
            "produced": 24, "failed": 0, "problems": [], "events": 227092,
            "setup_s": 0.7, "run_s": 2.0, "peak_rss_mb": 56.0,
        }
        if mode == "plain":
            rec["speed"] = {"setup": [0.002] * 3, "run": [0.002] * 20}
        if mode == "trace":
            rec["layer"] = {"simkernel.events": 227092, "evpath.sends": 20839,
                            "simkernel.self_s": 3.0}
        if mode == "oracle":
            rec["oracle"] = {"dst.oracle_sweeps": 97, "dst.oracle_s": 0.07,
                             "dst.violations": 0, "violations": []}
        if plant is not None:
            plant(mode, len(calls), rec)
        return rec

    return spawn


def _main(capsys, spawn, trace=0):
    code = run.main(["--workload", "burst-failover", "--seconds", "0",
                     "--trace", str(trace)], spawn=spawn)
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    return code, last


@pytest.mark.parametrize("trace", [0, 1])
def test_clean_records_publish_every_declared_metric(capsys, trace):
    code, last = _main(capsys, _fake_spawn(), trace)
    assert code == 0
    assert last["correct"] is True and last["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    assert set(last["metrics"]) == {m["name"] for m in SPEC[section]}


def test_planted_nondeterministic_metric_exits_nonzero(capsys):
    def plant(mode, n, rec):
        if n == 2:
            rec["sim"]["latency_p50_sim_s"] = 23.3

    code, last = _main(capsys, _fake_spawn(plant))
    assert code != 0
    assert last["correct"] is False
    assert last["failed"] == last["attempted"]
    assert last["metrics"] == {}


def test_planted_nondeterministic_layer_count_exits_nonzero(capsys):
    def plant(mode, n, rec):
        if mode == "trace" and n > 2:
            rec["layer"]["evpath.sends"] += 1

    code, last = _main(capsys, _fake_spawn(plant), trace=1)
    assert code != 0 and last["metrics"] == {}


def test_planted_oracle_violation_exits_nonzero(capsys):
    def plant(mode, n, rec):
        if mode == "oracle":
            rec["oracle"]["dst.violations"] = 1
            rec["oracle"]["violations"] = ["exactly_once_delivery: step 3 twice"]

    code, last = _main(capsys, _fake_spawn(plant), trace=1)
    assert code != 0 and last["metrics"] == {}


def test_a_failed_correctness_check_fails_every_operation(capsys):
    def plant(mode, n, rec):
        if n == 1:
            rec["problems"] = ["main: timesteps without a fate: [5]"]

    code, last = _main(capsys, _fake_spawn(plant))
    assert code != 0
    assert last["failed"] == last["attempted"] > 0


def test_oracle_pass_reports_a_planted_violation(monkeypatch):
    """A real monitor over a real pipeline, with one oracle that always fires."""
    import worker
    import workloads
    from repro.dst import invariants

    class AlwaysFires(invariants.Invariant):
        name = "planted"

        def check(self, pipe, final):
            return ["planted violation"]

    monkeypatch.setitem(invariants.INVARIANTS, "planted", AlwaysFires)
    built = workloads.setup("burst-failover", 1)
    monitors, spent = worker._oracles(built)
    result = worker._oracle_results(monitors, spent, {"main": False})
    assert "planted: planted violation" in result["violations"]
    assert result["dst.violations"] == len(result["violations"])


# -- end to end ------------------------------------------------------------------


def test_a_real_run_passes_its_checks():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           "--workload", "burst-failover", "--seconds", "1"],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] == 2 * 24
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fig7",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
