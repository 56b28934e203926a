"""The MATRIX application: blocked parallel matrix multiply.

Figure 3's application computes C = A x B with a cache-blocked algorithm:
each thread owns one square block of the output matrix and multiplies
block pairs sized to fit the processor cache, "resulting in very high
cache hit rates, and so good application performance".  Scheduling-wise
MATRIX is an embarrassingly parallel flat fan of long-running threads —
massive, constant parallelism.

The real blocked multiply is implemented in :mod:`repro.kernels.matmul`.
"""

from __future__ import annotations

import dataclasses
import random

from repro.apps.base import AppSpec
from repro.apps.reference import ReferenceSpec
from repro.threads.graph import ThreadGraph


@dataclasses.dataclass(frozen=True)
class MatrixParams:
    """Structural knobs of the MATRIX workload."""

    #: number of output blocks, i.e. independent threads (8x8 grid)
    n_blocks: int = 64
    mean_service_s: float = 12.0
    service_jitter: float = 0.05


class MatrixSpec(AppSpec):
    """MATRIX: cache-resident working set, massive flat parallelism."""

    name = "MATRIX"
    description = (
        "Blocked parallel matrix multiply; one long thread per output "
        "block, massive constant parallelism, cache-resident working set"
    )

    #: Calibrated against Table 1's MATRIX row: the cache-sized resident
    #: block tiles (~1150 lines, re-touched with very high reuse) plus a
    #: slow (~2.7k lines/s) stream through the input matrices.
    _REFERENCE = ReferenceSpec(
        data_blocks=2400,
        p_reuse=0.99325,
        refs_per_touch=20,
        reuse_window=1150,
        cold_pattern="sequential",
    )

    def __init__(self, params: MatrixParams = MatrixParams()) -> None:
        if params.n_blocks < 1:
            raise ValueError("need at least one output block")
        if not 0.0 <= params.service_jitter < 1.0:
            raise ValueError("service_jitter must be in [0, 1)")
        self.params = params

    @property
    def reference(self) -> ReferenceSpec:
        return self._REFERENCE

    def max_parallelism_hint(self) -> int:
        return self.params.n_blocks

    def layout(self) -> ThreadGraph:
        """A flat fan: one independent thread per output block."""
        graph = ThreadGraph(name=self.name)
        for _ in range(self.params.n_blocks):
            graph.add_thread(0.0, phase="multiply")
        return graph

    def build_graph(self, rng: random.Random) -> ThreadGraph:
        """The flat fan with each block's service time jittered."""
        p = self.params
        services = [
            p.mean_service_s * (1.0 + p.service_jitter * (2.0 * rng.random() - 1.0))
            for _ in range(p.n_blocks)
        ]
        return ThreadGraph(self.name, self.shape, services)


#: Default instance used by the paper's workload mixes.
MATRIX = MatrixSpec()
