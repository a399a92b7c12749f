"""The four canonical workloads, driven through the program's public API.

Each workload is a batch simulation with a fixed shape (``PARAMS``) and a
seed.  :func:`setup` imports and builds it and arms its fault plan;
:meth:`Setup.run` runs it to the end, drain and catch-up included;
:func:`outcome` reads what a user of the system would see and checks that
the run is correct.  The program is imported only inside functions, which
the worker process calls, so every measured run imports it afresh while the
parent reads ``PARAMS`` without it.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: the shape of each workload; part of every result's identity
PARAMS: Dict[str, dict] = {
    "fig7": {"sim_nodes": 256, "staging_nodes": 13, "spare": 0, "steps": 400,
             "control_interval": 30.0, "settle": 300.0},
    "fleet32": {"tenants": 32, "steps": 6, "tie_breaker": "shuffle",
                "settle": 240.0},
    "burst-predictive": {"preset": "predictive", "steps": 24, "settle": 600.0},
    "burst-failover": {"preset": "failover", "steps": 24, "settle": 600.0,
                       "drain_intervals": 20.0},
}

#: the seed each workload is canonically run with
DEFAULT_SEEDS = {"fig7": 1, "fleet32": 7, "burst-predictive": 1, "burst-failover": 1}


@dataclass
class Setup:
    """A built workload, ready to run."""

    name: str
    env: object
    #: tenant name -> pipeline ("main" for single-pipeline workloads)
    pipes: Dict[str, object]
    run: Callable[[], Dict[str, bool]]
    fleet: object = None
    #: simulated seconds spent on spill catch-up after the driver finished
    catchup: List[float] = field(default_factory=list)


def setup(name: str, seed: int) -> Setup:
    """Build workload ``name`` under ``seed`` with its fault plan armed."""
    if name == "fig7":
        return _fig7(seed, **PARAMS[name])
    if name == "fleet32":
        return _fleet(seed, **PARAMS[name])
    if name in ("burst-predictive", "burst-failover"):
        return _burst(name, seed, **PARAMS[name])
    raise ValueError(f"unknown workload {name!r}; known: {sorted(PARAMS)}")


def _fig7(seed, sim_nodes, staging_nodes, spare, steps, control_interval, settle):
    from repro.simkernel import Environment
    from repro.spec import PipelineSpec, WorkloadSpec
    from repro.spec.build import build

    env = Environment()
    spec = PipelineSpec(
        name="latency-management",
        workload=WorkloadSpec(sim_nodes=sim_nodes, staging_nodes=staging_nodes,
                              spare=spare, steps=steps),
        builder={"seed": seed, "control_interval": control_interval},
    )
    pipe = build(env, spec)
    return Setup("fig7", env, {"main": pipe},
                 run=lambda: {"main": pipe.run(settle=settle)})


def _fleet(seed, tenants, steps, tie_breaker, settle):
    # tie_breaker names the one supported choice: the seeded shuffle
    from repro.fleet import build_mixed_fleet, fleet_plan
    from repro.simkernel import Environment, shuffle

    env = Environment(tie_breaker=shuffle(seed))
    fleet = build_mixed_fleet(env, tenants=tenants, steps=steps)
    plan = fleet_plan(seed, fleet)
    if plan.events:
        fleet.arm_faults(plan)
    pipes = {name: t.pipe for name, t in sorted(fleet.tenants.items())}
    return Setup("fleet32", env, pipes, run=lambda: fleet.run(settle=settle),
                 fleet=fleet)


def _burst(name, seed, preset, steps, settle, drain_intervals=None):
    from repro.overload.scenario import overload_burst_plan
    from repro.simkernel import Environment
    from repro.spec.build import build, load_preset

    env = Environment()
    spec = load_preset(preset).override(workload=dict(steps=steps),
                                        builder=dict(seed=seed))
    pipe = build(env, spec)
    plan = overload_burst_plan(seed, pipe)
    if plan.events:
        pipe.arm_faults(plan)
    wl = pipe.driver.workload
    setup_ = Setup(name, env, {"main": pipe}, run=None)

    def run():
        finished = pipe.run(settle=settle,
                            deadline=2.0 * wl.total_steps * wl.output_interval)
        spill = pipe.spill_ledger
        if drain_intervals is not None and spill is not None:
            # Catch-up: hold the run open (bounded) until replay settles
            # every spilled segment, as the failover experiment does.
            run_end = env.now
            deadline = env.now + drain_intervals * wl.output_interval
            while spill.pending() and env.now < deadline:
                env.run(until=min(env.now + 30.0, deadline))
            setup_.catchup.append(env.now - run_end)
        return {"main": finished}

    setup_.run = run
    return setup_


# -- outcomes -----------------------------------------------------------------


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def _sla_seconds(setup_: Setup, tenant: str, pipe) -> float:
    """The SLA the workload's own experiment judges a timestep by."""
    if setup_.fleet is not None:
        return setup_.fleet.tenants[tenant].sla_seconds()
    interval = pipe.driver.workload.output_interval
    if setup_.name == "fig7":
        # the SLA a fig7 tenant of the fleet is held to
        from repro.fleet import TenantSpec

        return TenantSpec(name="fig7").sla_factor * interval
    # run_overload's SLA: two output intervals
    return 2.0 * interval


def outcome(setup_: Setup, finished: Dict[str, bool]) -> dict:
    """Sim-side metrics, fate accounting and correctness checks of a run.

    Every workload pipeline has a single sink, so each produced timestep
    must leave exactly once (live or by replay) or be shed, never both.
    """
    env = setup_.env
    produced = delivered = in_sla = 0
    latencies: List[float] = []
    blocked = 0.0
    degraded: Optional[float] = None
    problems: List[str] = []
    shed_total = 0
    for tenant, pipe in setup_.pipes.items():
        wl = pipe.driver.workload
        steps = set(range(wl.total_steps))
        exits = Counter(step for _, step, _ in pipe.end_to_end)
        shed = pipe.shed_ledger.steps()
        dupes = sorted(s for s, n in exits.items() if n > 1)
        both = sorted(set(exits) & shed)
        lost = sorted(steps - set(exits) - shed)
        stray = sorted((set(exits) | shed) - steps)
        for label, bad in (("delivered twice", dupes), ("delivered and shed", both),
                           ("without a fate", lost), ("never produced", stray)):
            if bad:
                problems.append(f"{tenant}: timesteps {label}: {bad}")
        if pipe.spill_ledger is not None and pipe.spill_ledger.pending():
            problems.append(f"{tenant}: {len(pipe.spill_ledger.pending())} "
                            f"spilled timesteps never replayed")
        if not finished[tenant]:
            problems.append(f"{tenant}: driver did not finish")
        sla = _sla_seconds(setup_, tenant, pipe)
        produced += len(steps)
        delivered += len(set(exits) & steps)
        in_sla += len({s for _, s, lat in pipe.end_to_end if lat <= sla} & steps)
        latencies.extend(lat for _, _, lat in pipe.end_to_end)
        blocked += pipe.driver.total_blocked_time
        shed_total += len(shed)
        if pipe.brownout is not None:
            degraded = (degraded or 0.0) + pipe.degradation.time_in_degraded(env.now)

    problems += _workload_checks(setup_, shed_total)
    latencies.sort()
    sim = {
        "sim_s": env.now,
        "delivered_frac": delivered / produced,
        "sla_met_frac": in_sla / produced,
        "producer_blocked_sim_s": blocked,
        "latency_samples": len(latencies),
    }
    if len(latencies) >= 20:  # at least ten samples beyond the median
        sim["latency_p50_sim_s"] = _percentile(latencies, 50)
    if len(latencies) >= 100:  # at least ten samples beyond p90
        sim["latency_p90_sim_s"] = _percentile(latencies, 90)
    if degraded is not None:
        sim["time_degraded_sim_s"] = degraded
    return {
        "sim": sim,
        "produced": produced,
        # an operation fails when its timestep has no correct fate; a run
        # that fails any check fails all of its operations
        "failed": produced if problems else 0,
        "problems": problems,
        "events": env.events_processed,
    }


def _workload_checks(setup_: Setup, shed_total: int) -> List[str]:
    """Each workload's own acceptance conditions."""
    problems: List[str] = []
    if setup_.name == "fleet32":
        # run_fleet's acceptance conditions
        fleet = setup_.fleet
        victims = [t for t in fleet.tenants.values() if t.spec.overload_burst]
        if not victims or not all(t.degradations() > 0 for t in victims):
            problems.append("the overloaded tenant did not brown out")
        missed = sorted(t.name for t in fleet.tenants.values()
                        if not t.spec.overload_burst and t.sla_compliance() != 1.0)
        if missed:
            problems.append(f"tenants missed their SLA: {missed}")
        if fleet.arbiter.violations:
            problems.append(f"arbiter violations: {fleet.arbiter.violations}")
    elif setup_.name == "burst-predictive":
        # the predictive arm's conditions in run_predictive
        pipe = setup_.pipes["main"]
        if not pipe.degradation.fully_restored:
            problems.append("the brownout ladder was not fully unwound")
        if pipe.driver.output_stride != 1:
            problems.append(f"final output stride {pipe.driver.output_stride} != 1")
    elif setup_.name == "burst-failover" and shed_total:
        problems.append(f"{shed_total} timesteps shed; failover must shed none")
    return problems


def import_program() -> float:
    """Import every module the workloads use; returns the seconds it took."""
    t0 = time.perf_counter()
    import repro.fleet  # noqa: F401  (pulls in the containers and every layer)
    import repro.overload.scenario  # noqa: F401
    import repro.spec.build  # noqa: F401
    return time.perf_counter() - t0
