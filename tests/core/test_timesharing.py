"""The time-sharing baseline scheduler (Section 8's contrast)."""

import dataclasses

import pytest

from repro.core.timesharing import (
    TIME_SHARING,
    TIME_SHARING_AFFINITY,
    TimeSharingPolicy,
    TimeSharingSystem,
)
from tests.core.helpers import chain_job, flat_job, phased_job


class TestBasics:
    def test_single_job_completes(self):
        job = flat_job("J", 8, 0.5, workers=4)
        result = TimeSharingSystem([job], n_processors=4).run()
        assert result.jobs["J"].work == pytest.approx(4.0)
        assert result.jobs["J"].response_time >= 1.0

    def test_work_conserved_across_jobs(self):
        a = flat_job("A", 8, 0.5, workers=4)
        b = flat_job("B", 8, 0.5, workers=4)
        result = TimeSharingSystem([a, b], n_processors=4).run()
        assert result.jobs["A"].work == pytest.approx(4.0)
        assert result.jobs["B"].work == pytest.approx(4.0)

    def test_chain_completes_with_quantum_preemption(self):
        """A thread longer than the quantum is sliced but finishes."""
        job = chain_job("J", 2, 0.35)  # 0.35s threads vs 0.1s quantum
        system = TimeSharingSystem([job], n_processors=1)
        result = system.run()
        assert result.jobs["J"].work == pytest.approx(0.7)
        assert system.involuntary_switches >= 4  # ~3 slices per thread

    def test_quantum_expiry_counts_involuntary(self):
        long_threads = flat_job("L", 2, 1.0, workers=2)
        contender = flat_job("C", 2, 1.0, workers=2)
        system = TimeSharingSystem([long_threads, contender], n_processors=2)
        system.run()
        assert system.involuntary_switches > 10

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            TimeSharingSystem([chain_job("X", 1, 1.0), chain_job("X", 1, 1.0)])

    def test_empty_jobs_rejected(self):
        with pytest.raises(ValueError):
            TimeSharingSystem([])

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TimeSharingPolicy("bad", quantum_s=0.0)
        with pytest.raises(ValueError):
            TimeSharingPolicy("bad", affinity_search_depth=0)
        with pytest.raises(ValueError):
            TimeSharingPolicy("bad", max_skips=0)


class TestRotation:
    def test_processors_rotate_among_jobs(self):
        """With more runnable workers than processors, everyone advances."""
        jobs = [flat_job(f"J{i}", 4, 0.5, workers=2) for i in range(4)]
        result = TimeSharingSystem(jobs, n_processors=2).run()
        times = [m.response_time for m in result.jobs.values()]
        # Round-robin: all four finish within a similar window, far later
        # than any would alone (0.5 x 2 = 1s alone on 2 cpus).
        assert min(times) > 2.0
        assert max(times) < 3 * min(times)

    def test_rotation_induces_low_affinity(self):
        # Worker count coprime to processor count and unequal service
        # times, so the FIFO rotation cannot be accidentally periodic.
        jobs = [
            flat_job(f"J{i}", 8, 0.7 + 0.2 * i, workers=3) for i in range(3)
        ]
        result = TimeSharingSystem(jobs, TIME_SHARING, n_processors=4).run()
        for metrics in result.jobs.values():
            assert metrics.pct_affinity < 60.0


class TestAffinityVariant:
    def make_pair(self, policy, seed=3):
        a = phased_job("A", 6, 8, 0.05, workers=4)
        b = flat_job("B", 8, 2.0, workers=4)
        return TimeSharingSystem([a, b], policy, n_processors=4, seed=seed).run()

    def test_affinity_raises_pct_affinity(self):
        plain = self.make_pair(TIME_SHARING)
        aware = self.make_pair(TIME_SHARING_AFFINITY)
        for job in ("A", "B"):
            assert aware.jobs[job].pct_affinity > plain.jobs[job].pct_affinity

    def test_affinity_lowers_cache_penalties(self):
        plain = self.make_pair(TIME_SHARING)
        aware = self.make_pair(TIME_SHARING_AFFINITY)
        total_plain = sum(m.cache_penalty_total for m in plain.jobs.values())
        total_aware = sum(m.cache_penalty_total for m in aware.jobs.values())
        assert total_aware < total_plain

    def test_aging_prevents_starvation(self):
        """Affinity search must not starve tasks with no affine processor."""
        policy = dataclasses.replace(
            TIME_SHARING_AFFINITY, affinity_search_depth=16, max_skips=3
        )
        hog = flat_job("HOG", 16, 2.0, workers=4)
        victim = flat_job("VICTIM", 8, 0.5, workers=4)
        result = TimeSharingSystem([hog, victim], policy, n_processors=4).run()
        # The victim's work is 4s of 36 total; a fair rotation finishes it
        # well inside the hog's span (~9s of pure work on 4 cpus).
        assert result.jobs["VICTIM"].response_time < result.jobs["HOG"].response_time


class TestWorkerCounts:
    @pytest.mark.parametrize("policy", [TIME_SHARING, TIME_SHARING_AFFINITY])
    def test_job_counts_match_worker_states(self, policy):
        """Queueing a worker with a thread in hand goes through a worker
        transition, so the job's per-state counts never drift."""
        from repro.threads.workers import WorkerState

        jobs = [phased_job("P", 3, 6, 0.15, workers=3), flat_job("F", 8, 0.3, workers=4)]
        system = TimeSharingSystem(jobs, policy, n_processors=3)
        drift = []

        def check(time, label):
            for job in jobs:
                states = [w.state for w in job.workers]
                counts = (states.count(WorkerState.RUNNING),
                          states.count(WorkerState.SUSPENDED))
                if (job.n_running, job.n_suspended) != counts:
                    drift.append((time, label, job.name))

        system.sim.add_trace_hook(check)
        system.run()
        assert not drift
        assert system.voluntary_switches and system.involuntary_switches
