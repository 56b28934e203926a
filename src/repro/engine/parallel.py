"""Ordered process-pool fan-out and the Section 6 stopping rule.

:func:`map_items` is the one parallel loop in the code base: the sweep
executor (:mod:`repro.sweep.executor`) hands it shards of cells, it runs
them on up to ``workers`` processes, and it *commits* results strictly
in item order.  Each cell is a pure function of its config, so
``workers=N`` output is bit-identical to ``workers=1``.

The paper's stopping rule ("enough replications of each experiment so
that the 95% confidence interval is within 1% of the point estimate of
the mean") lives here as :class:`ConvergenceCriterion` plus the
incremental :class:`BatchedConvergence` check;
:func:`repro.sweep.run_to_confidence` applies them to a growing seed
axis, checking exactly the seed prefixes a serial run would examine.
"""

from __future__ import annotations

import concurrent.futures
import typing

from repro.engine.stats import ConfidenceInterval, SampleStats

T = typing.TypeVar("T")
U = typing.TypeVar("U")

#: Default absolute half-width below which a metric counts as converged
#: regardless of its relative half-width.  This is the escape hatch for
#: zero-mean metrics, whose relative half-width is infinite: without it a
#: single all-but-constant metric centred on 0 forces every experiment to
#: burn its seed cap.
DEFAULT_TARGET_ABSOLUTE = 1e-9


def resolve_workers(workers: typing.Optional[int]) -> int:
    """Normalize a ``workers`` argument; ``None`` means serial (1).

    Raises:
        ValueError: if ``workers`` is given and not a positive integer.
    """
    if workers is None:
        return 1
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    return int(workers)


class ConvergenceCriterion:
    """The paper's 1%-relative stopping rule with an absolute escape hatch.

    A confidence interval converges when its half-width is within
    ``target_relative`` of the mean *or* at most ``target_absolute`` in
    absolute terms.  The absolute tolerance is what lets zero-mean metrics
    (infinite relative half-width) terminate.
    """

    def __init__(
        self,
        target_relative: float = 0.01,
        target_absolute: float = DEFAULT_TARGET_ABSOLUTE,
    ) -> None:
        if target_relative < 0 or target_absolute < 0:
            raise ValueError("convergence tolerances must be non-negative")
        self.target_relative = target_relative
        self.target_absolute = target_absolute

    def interval_converged(self, ci: ConfidenceInterval) -> bool:
        """True when ``ci`` satisfies either tolerance."""
        if ci.half_width <= self.target_absolute:
            return True
        return ci.relative_half_width() <= self.target_relative


class BatchedConvergence(typing.Generic[T]):
    """Incremental stopping-rule check over replication results.

    Parallel execution delivers results in waves; this accumulator folds
    each newly committed replication into per-metric :class:`SampleStats`
    via the Chan et al. pairwise merge (the same reduction that combines
    partial statistics across workers) and answers "has every tracked
    metric converged?" for each committed prefix.  Results are folded in
    commit order whatever the wave size, so serial and parallel runs stop
    at the identical replication.
    """

    def __init__(
        self,
        extract: typing.Callable[[T], typing.Mapping[str, float]],
        criterion: ConvergenceCriterion,
    ) -> None:
        self._extract = extract
        self._criterion = criterion
        self._samples: typing.Dict[str, SampleStats] = {}
        self._committed = 0

    @property
    def samples(self) -> typing.Dict[str, SampleStats]:
        """Per-metric statistics over every committed replication."""
        return self._samples

    def __call__(self, committed: typing.Sequence[T]) -> bool:
        """Fold any new results in ``committed`` and test convergence."""
        for result in committed[self._committed:]:
            part_values = self._extract(result)
            for name, value in part_values.items():
                part = SampleStats()
                part.add(float(value))
                self._samples.setdefault(name, SampleStats()).merge(part)
            self._committed += 1
        if not self._samples:
            return False
        return all(
            self._criterion.interval_converged(stats.confidence_interval())
            for stats in self._samples.values()
        )


def map_items(
    fn: typing.Callable[[U], T],
    items: typing.Sequence[U],
    workers: typing.Optional[int] = None,
    on_commit: typing.Optional[typing.Callable[[int, T], None]] = None,
) -> typing.List[T]:
    """Map ``fn`` over ``items``, optionally across a process pool.

    Result ``i`` is always ``fn(items[i])``, and ``on_commit(i, result)``
    fires in item order for any worker count — the progress signal the
    telemetry layer surfaces; it observes results and must not mutate
    them.  With ``workers > 1`` both ``fn`` and each item cross a process
    boundary, so both must pickle.
    """
    n_workers = resolve_workers(workers)
    results: typing.List[T] = []
    if n_workers == 1 or len(items) <= 1:
        for index, item in enumerate(items):
            results.append(fn(item))
            if on_commit is not None:
                on_commit(index, results[-1])
        return results
    with concurrent.futures.ProcessPoolExecutor(max_workers=n_workers) as pool:
        futures = [pool.submit(fn, item) for item in items]
        for index, future in enumerate(futures):
            results.append(future.result())
            if on_commit is not None:
                on_commit(index, results[-1])
    return results
