"""The paper's 1% confidence-interval replication stopping rule.

Driven through :func:`repro.sweep.run_to_confidence`, which grows a mix
spec's seed axis until every job's response-time interval converges.
"""

import pytest

from repro.sweep import SweepSpec, run_sweep, run_to_confidence
from repro.sweep.cells import mix_comparison


def _spec(policies, seeds=(0,), mixes=(1,), kind="mix"):
    return SweepSpec(
        name="confidence", kind=kind, mixes=mixes, policies=policies, seeds=seeds
    )


def _run(policies, seeds=(0,), **kwargs):
    """(sweep result, assembled comparison) for mix 1 under ``policies``."""
    result = run_to_confidence(_spec(policies, seeds), **kwargs)
    return result, mix_comparison(result.spec, result.payloads, 1)


class TestConfidenceStoppingRule:
    def test_stops_when_converged(self):
        result, comparison = _run(
            ("Equipartition", "Dynamic"),
            target_relative=0.05,  # loose: converges quickly
            min_seeds=3,
            max_seeds=20,
        )
        assert 3 <= comparison.n_replications < 20
        assert result.spec.seeds == tuple(range(comparison.n_replications))
        for policy in comparison.policies():
            for summary in comparison.summaries[policy].values():
                assert summary.response_time.relative_half_width() <= 0.05

    def test_respects_minimum(self):
        _, comparison = _run(
            ("Equipartition",),
            target_relative=0.5,  # trivially satisfied
            min_seeds=4,
            max_seeds=20,
        )
        assert comparison.n_replications == 4

    def test_caps_at_maximum(self):
        _, comparison = _run(
            ("Dynamic",),
            target_relative=1e-9,  # unreachable
            target_absolute=0.0,
            min_seeds=2,
            max_seeds=5,
        )
        assert comparison.n_replications == 5

    def test_invalid_parameters(self):
        spec = _spec(("Dynamic",))
        with pytest.raises(ValueError):
            run_to_confidence(spec, min_seeds=1)
        with pytest.raises(ValueError):
            run_to_confidence(spec, min_seeds=5, max_seeds=3)
        opensys = SweepSpec(
            name="o", kind="opensys", scenarios=("steady",),
            policies=("Dynamic",), lite=True,
        )
        with pytest.raises(ValueError, match="'mix' spec"):
            run_to_confidence(opensys)

    def test_parallel_summaries_identical_to_serial(self):
        """workers=N must not change the seed prefix or a single number."""
        kwargs = dict(
            target_relative=0.05, min_seeds=3, max_seeds=10, collect_metrics=True
        )
        policies = ("Equipartition", "Dynamic")
        serial, expected = _run(policies, seeds=(7,), **kwargs)
        parallel, got = _run(policies, seeds=(7,), workers=2, **kwargs)
        assert parallel.spec.seeds == serial.spec.seeds
        assert serial.spec.seeds[0] == 7
        assert got.n_replications == expected.n_replications
        assert got.summaries == expected.summaries
        assert got.metrics == expected.metrics
        assert got.metrics  # metrics were collected, not vacuously equal

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            run_to_confidence(_spec(("Dynamic",)), workers=0)

    def test_tighter_target_needs_more_replications(self):
        _, loose = _run(("Dynamic",), target_relative=0.20, max_seeds=30)
        _, tight = _run(("Dynamic",), target_relative=0.005, max_seeds=30)
        assert tight.n_replications >= loose.n_replications


class TestPrefixResult:
    def test_result_matches_a_plain_sweep_of_the_prefix(self):
        result, comparison = _run(
            ("Equipartition", "Dyn-Aff"), target_relative=0.2, min_seeds=3,
            max_seeds=6,
        )
        plain = run_sweep(result.spec)
        assert result.payloads == plain.payloads
        assert comparison == mix_comparison(plain.spec, plain.payloads, 1)
