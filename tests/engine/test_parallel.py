"""The ordered process-pool map and the paper's stopping rule."""

import random

import pytest

from repro.engine.parallel import (
    BatchedConvergence,
    ConvergenceCriterion,
    map_items,
    resolve_workers,
)
from repro.engine.stats import ConfidenceInterval, SampleStats
from repro.sweep import ResultCache, SweepSpec, run_sweep, run_to_confidence
from repro.sweep.cells import mix_comparison


def _square(replication):
    """Module-level so it pickles into pool workers."""
    return replication * replication


def _identity(metrics):
    return metrics


def _prefixes(values):
    """Every non-empty prefix of ``values``, shortest first."""
    return [values[:n] for n in range(1, len(values) + 1)]


class TestResolveWorkers:
    def test_none_means_serial(self):
        assert resolve_workers(None) == 1

    def test_positive_passes_through(self):
        assert resolve_workers(3) == 3

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestConvergenceCriterion:
    def test_relative_rule(self):
        criterion = ConvergenceCriterion(target_relative=0.01, target_absolute=0.0)
        assert criterion.interval_converged(ConfidenceInterval(100.0, 0.5))
        assert not criterion.interval_converged(ConfidenceInterval(100.0, 5.0))

    def test_absolute_escape_hatch_for_zero_mean(self):
        criterion = ConvergenceCriterion(target_relative=0.01, target_absolute=1e-6)
        assert criterion.interval_converged(ConfidenceInterval(0.0, 1e-7))
        assert not criterion.interval_converged(ConfidenceInterval(0.0, 1e-3))

    def test_negative_tolerances_rejected(self):
        with pytest.raises(ValueError):
            ConvergenceCriterion(target_relative=-0.1)
        with pytest.raises(ValueError):
            ConvergenceCriterion(target_absolute=-1.0)


class TestBatchedConvergence:
    def test_folds_prefixes_incrementally(self):
        check = BatchedConvergence(lambda m: m, ConvergenceCriterion(0.5, 0.0))
        committed = [{"rt": 10.0}, {"rt": 10.5}]
        check(committed)
        assert check.samples["rt"].n == 2
        committed.append({"rt": 9.5})
        check(committed)
        assert check.samples["rt"].n == 3  # only the new tail was folded

    def test_matches_serial_welford(self):
        values = [10.0, 12.0, 11.0, 10.5, 11.5]
        check = BatchedConvergence(lambda m: m, ConvergenceCriterion())
        committed = []
        for value in values:
            committed.append({"rt": value})
            check(committed)
        serial = SampleStats()
        serial.extend(values)
        assert check.samples["rt"].n == serial.n
        assert check.samples["rt"].mean == pytest.approx(serial.mean)
        assert check.samples["rt"].variance == pytest.approx(serial.variance)

    def test_empty_samples_never_converged(self):
        check = BatchedConvergence(lambda m: m, ConvergenceCriterion(1.0, 1.0))
        assert check([]) is False

    def test_constant_metric_converges_at_once(self):
        check = BatchedConvergence(_identity, ConvergenceCriterion())
        assert check([{"rt": 10.0}] * 3)
        assert check.samples["rt"].mean == pytest.approx(10.0)

    def test_noisy_metric_never_converges(self):
        rng = random.Random(0)
        values = [{"rt": rng.uniform(0, 1000)} for _ in range(8)]
        check = BatchedConvergence(_identity, ConvergenceCriterion(1e-6))
        assert not any(check(prefix) for prefix in _prefixes(values))

    def test_every_metric_must_converge(self):
        values = [{"stable": 1.0, "noisy": 100.0 + 100.0 * (i % 2)}
                  for i in range(6)]
        check = BatchedConvergence(_identity, ConvergenceCriterion())
        assert not any(check(prefix) for prefix in _prefixes(values))
        criterion = ConvergenceCriterion()
        assert criterion.interval_converged(
            check.samples["stable"].confidence_interval()
        )

    def test_zero_mean_converges_via_absolute_tolerance(self):
        """Regression: a mean-zero metric has infinite relative half-width,
        which used to stall convergence until the seed cap every time."""
        values = [{"delta": 1e-12 if i % 2 else -1e-12} for i in range(3)]
        check = BatchedConvergence(_identity, ConvergenceCriterion())
        assert check(values)

    def test_absolute_tolerance_can_be_tightened(self):
        values = [{"delta": 0.5 if i % 2 else -0.5} for i in range(10)]
        check = BatchedConvergence(_identity, ConvergenceCriterion(0.01, 0.0))
        assert not any(check(prefix) for prefix in _prefixes(values))

    def test_absolute_tolerance_is_adjustable(self):
        values = [{"delta": 0.5 if i % 2 else -0.5} for i in range(3)]
        check = BatchedConvergence(_identity, ConvergenceCriterion(0.01, 10.0))
        assert check(values)  # wide tolerance: converged at the floor


def _mix1_spec(policies=("Equipartition",), seeds=(0,)):
    return SweepSpec(
        name="waves", kind="mix", mixes=(1,), policies=policies, seeds=seeds
    )


class TestRunReplications:
    """Replications run in seed waves to the stopping rule
    (:func:`repro.sweep.run_to_confidence`)."""

    def test_serial_stops_at_first_converged_prefix(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        result = run_to_confidence(
            _mix1_spec(), target_relative=0.5, min_seeds=3, cache=cache
        )
        assert result.spec.seeds == (0, 1, 2)
        # Serial waves are one seed wide: nothing ran past the prefix.
        assert len(list((tmp_path / "cache").glob("*/*/result.json"))) == 3

    def test_serial_runs_to_cap_when_never_converged(self):
        result = run_to_confidence(
            _mix1_spec(seeds=(4,)), target_relative=1e-9, target_absolute=0.0,
            min_seeds=2, max_seeds=4,
        )
        assert result.spec.seeds == (4, 5, 6, 7)

    def test_parallel_commits_in_replication_order(self):
        spec = _mix1_spec(policies=("Equipartition", "Dyn-Aff"))
        result = run_to_confidence(
            spec, target_relative=1e-9, target_absolute=0.0, min_seeds=2,
            max_seeds=5, workers=3,
        )
        assert [o.cell.seed for o in result.outcomes] == [0, 1, 2, 3, 4] * 2
        assert result.payloads == run_sweep(result.spec).payloads

    def test_parallel_stops_at_same_prefix_as_serial(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        kwargs = dict(target_relative=0.5, min_seeds=3)
        serial = run_to_confidence(_mix1_spec(), **kwargs)
        # Waves of two seeds: 0-1, then 2-3.  The rule holds at the
        # 3-seed floor, so seed 3 ran but lies past the prefix: it stays
        # cached and is not returned.
        parallel = run_to_confidence(_mix1_spec(), workers=2, cache=cache, **kwargs)
        assert parallel.spec.seeds == serial.spec.seeds == (0, 1, 2)
        assert parallel.payloads == serial.payloads
        assert (parallel.n_computed, parallel.n_hits) == (3, 0)
        warm = run_to_confidence(
            _mix1_spec(seeds=(3,)), min_seeds=2, max_seeds=2, cache=cache,
            target_relative=0.5,
        )
        assert [o.cached for o in warm.outcomes] == [True, False]

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            run_to_confidence(_mix1_spec(), min_seeds=0)
        with pytest.raises(ValueError):
            run_to_confidence(_mix1_spec(), min_seeds=5, max_seeds=3)


class TestReplicationDriverParallel:
    """Replication parallelism leaves the stopping rule's intervals
    untouched (the driver is :func:`repro.sweep.run_to_confidence`)."""

    def test_parallel_intervals_equal_serial(self):
        kwargs = dict(target_relative=0.001, min_seeds=3, max_seeds=12)
        serial = run_to_confidence(_mix1_spec(), **kwargs)
        parallel = run_to_confidence(_mix1_spec(), workers=2, **kwargs)
        expected = mix_comparison(serial.spec, serial.payloads, 1)
        got = mix_comparison(parallel.spec, parallel.payloads, 1)
        assert got.n_replications == expected.n_replications
        summaries = expected.summaries["Equipartition"]
        assert summaries.keys() == got.summaries["Equipartition"].keys()
        for job, summary in summaries.items():
            rt = got.summaries["Equipartition"][job].response_time
            assert rt.n == summary.response_time.n
            assert rt.mean == summary.response_time.mean
            assert rt.half_width == summary.response_time.half_width


class TestMapReplications:
    """map_items: the ordered fan-out that sweep shards run on."""

    def test_serial(self):
        assert map_items(_square, range(4)) == [0, 1, 4, 9]

    def test_parallel_equals_serial(self):
        assert map_items(_square, range(6), workers=3) == map_items(_square, range(6))

    def test_zero_count(self):
        assert map_items(_square, [], workers=2) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            map_items(_square, range(3), workers=-1)

    def test_commits_in_item_order(self):
        commits = []
        results = map_items(
            _square, range(8), workers=3,
            on_commit=lambda i, r: commits.append((i, r)),
        )
        assert results == [r * r for r in range(8)]
        assert commits == list(enumerate(results))
