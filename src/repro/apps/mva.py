"""The MVA application: wavefront dynamic programming.

Figure 2's application is a Mean Value Analysis computation — a dynamic
programming problem over a (customers x stations) grid in which cell
``(n, k)`` depends on ``(n-1, k)`` and ``(n, k-1)``.  The anti-diagonal
wavefront gives parallelism that first slowly grows (1, 2, ..., min(N, K))
and then slowly shrinks back to 1 — the paper calls this representative of
many "wave front" computations.

The real computation this models is implemented in
:mod:`repro.kernels.mva_solver`; this module encodes only its scheduling
shape and cache behaviour.
"""

from __future__ import annotations

import dataclasses
import random

from repro.apps.base import AppSpec
from repro.apps.reference import ReferenceSpec
from repro.threads.graph import ThreadGraph


@dataclasses.dataclass(frozen=True)
class MvaParams:
    """Structural knobs of the MVA workload."""

    customers: int = 24
    stations: int = 24
    mean_service_s: float = 0.16
    service_jitter: float = 0.2


class MvaSpec(AppSpec):
    """MVA: moderate working set, wavefront parallelism profile."""

    name = "MVA"
    description = (
        "Dynamic-programming wavefront (Mean Value Analysis); parallelism "
        "slowly grows to min(N, K) and then slowly shrinks"
    )

    #: Calibrated against Table 1's MVA row: a ~1100-line persistent hot
    #: set (the MVA recurrence table) re-touched constantly, plus a slow
    #: (~5k lines/s) sequential scan through the 3500-line data.
    _REFERENCE = ReferenceSpec(
        data_blocks=3500,
        p_reuse=0.9875,
        refs_per_touch=20,
        reuse_window=1100,
        cold_pattern="sequential",
    )

    def __init__(self, params: MvaParams = MvaParams()) -> None:
        if params.customers < 1 or params.stations < 1:
            raise ValueError("grid must be at least 1x1")
        if not 0.0 <= params.service_jitter < 1.0:
            raise ValueError("service_jitter must be in [0, 1)")
        self.params = params

    @property
    def reference(self) -> ReferenceSpec:
        return self._REFERENCE

    def max_parallelism_hint(self) -> int:
        return min(self.params.customers, self.params.stations)

    def layout(self) -> ThreadGraph:
        """The (customers x stations) wavefront grid, cells in row order."""
        p = self.params
        graph = ThreadGraph(name=self.name)
        ids = [[0] * p.stations for _ in range(p.customers)]
        for n in range(p.customers):
            for k in range(p.stations):
                # Column k's cells share the station-k data (data group).
                ids[n][k] = graph.add_thread(0.0, phase=f"wave{n + k}", data_group=k)
        for n in range(p.customers):
            for k in range(p.stations):
                if n > 0:
                    graph.add_dependency(ids[n - 1][k], ids[n][k])
                if k > 0:
                    graph.add_dependency(ids[n][k - 1], ids[n][k])
        return graph

    def build_graph(self, rng: random.Random) -> ThreadGraph:
        """The wavefront grid with each cell's service time jittered."""
        p = self.params
        services = [
            p.mean_service_s * (1.0 + p.service_jitter * (2.0 * rng.random() - 1.0))
            for _ in range(p.customers * p.stations)
        ]
        return ThreadGraph(self.name, self.shape, services)


#: Default instance used by the paper's workload mixes.
MVA = MvaSpec()
