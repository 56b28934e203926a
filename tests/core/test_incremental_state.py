"""Referee for the scheduler's incrementally maintained state.

The scheduling system keeps per-job processor lists (owned, held idle),
the free and willing pools, and every job keeps per-state worker counts,
all updated as state changes instead of being recounted.  This test runs
small random mixes under every policy, with job cancellations and
processor failures/recoveries landing on shared timestamps, and after
every fired event compares each maintained value with a from-scratch
recount over ``job.workers`` and ``allocator.procs``.
"""

import typing

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.policies import POLICIES
from repro.core.system import SchedulingSystem
from repro.threads.workers import WorkerState
from repro.workloads.opensys.scenario import DISRUPTION_PRIORITY

from tests.core.helpers import chain_job, flat_job, phased_job

#: Arrivals and disruptions are drawn from this grid so they collide.
INSTANTS = st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3])


def recount_mismatches(system: SchedulingSystem) -> typing.List[str]:
    """Every maintained count or list that differs from a recount."""
    procs = system.allocator.procs
    problems = []

    def same(label: str, kept: typing.Sequence[object], fresh: typing.List[object]) -> None:
        if list(kept) != fresh:
            problems.append(f"{label}: kept {list(kept)}, recount {fresh}")

    same("free pool", system.free_pool, [p for p in procs if p.is_free])
    same("willing pool", system.willing_pool, [p for p in procs if p.is_willing_to_yield])
    for job in system.jobs:
        states = [w.state for w in job.workers]
        if job.n_running != states.count(WorkerState.RUNNING):
            problems.append(f"{job.name}: n_running {job.n_running}")
        if job.n_suspended != states.count(WorkerState.SUSPENDED):
            problems.append(f"{job.name}: n_suspended {job.n_suspended}")
        owned = [p for p in procs if p.job is job]
        same(f"{job.name} owned", system.owned(job), owned)
        same(f"{job.name} held idle", system.held_idle(job),
             [p for p in owned if p.is_held_idle])
        if system.allocation(job) != len(owned):
            problems.append(f"{job.name}: allocation {system.allocation(job)}")
    return problems


@st.composite
def disrupted_mix(draw):
    builders = [
        lambda name: flat_job(name, draw(st.integers(1, 8)), 0.1, draw(st.integers(1, 4))),
        lambda name: chain_job(name, draw(st.integers(1, 5)), 0.05),
        lambda name: phased_job(name, draw(st.integers(1, 3)), draw(st.integers(1, 4)),
                                0.1, draw(st.integers(1, 3))),
    ]
    n_jobs = draw(st.integers(1, 4))
    jobs = [draw(st.sampled_from(builders))(f"J{i}") for i in range(n_jobs)]
    arrivals = [draw(INSTANTS) for _ in jobs]
    n_processors = draw(st.integers(1, 6))
    cancels = draw(st.lists(
        st.tuples(st.integers(0, n_jobs - 1), INSTANTS), max_size=2
    ))
    outages = [
        (cpu, fail, fail + draw(INSTANTS))
        for cpu in draw(st.sets(st.integers(0, n_processors - 1), max_size=2))
        for fail in [draw(INSTANTS)]
    ]
    policy = draw(st.sampled_from(sorted(POLICIES)))
    return jobs, arrivals, n_processors, cancels, outages, POLICIES[policy]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(disrupted_mix(), st.integers(0, 1000))
def test_property_maintained_state_equals_recount(mix, seed):
    jobs, arrivals, n_processors, cancels, outages, policy = mix
    system = SchedulingSystem(
        jobs, policy, n_processors=n_processors, seed=seed, arrival_times=arrivals
    )
    sim = system.sim
    for index, when in cancels:
        sim.at(when, lambda j=jobs[index]: system.cancel_job(j),
               priority=DISRUPTION_PRIORITY, label="cancel")
    for cpu, fail, recover in outages:
        sim.at(fail, lambda c=cpu: system.fail_processor(c),
               priority=DISRUPTION_PRIORITY, label="cpu_fail")
        sim.at(recover, lambda c=cpu: system.recover_processor(c),
               priority=DISRUPTION_PRIORITY, label="cpu_recover")
    failures: typing.List[str] = []

    def referee(time: float, label: str) -> None:
        # Hooks run just before each event: the state the previous one left.
        failures.extend(f"t={time} before {label}: {p}" for p in recount_mismatches(system))

    sim.add_trace_hook(referee)
    system.run()
    failures.extend(f"end: {p}" for p in recount_mismatches(system))
    assert not failures, failures[:5]
    assert all(job.finished or job.cancelled for job in jobs)
