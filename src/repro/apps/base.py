"""Common shape of an application description."""

from __future__ import annotations

import abc
import functools
import random
import typing

from repro.machine.footprint import FootprintCurve
from repro.machine.params import SEQUENT_SYMMETRY, MachineSpec
from repro.apps.reference import ReferenceSpec
from repro.threads.data_affinity import DataAffinitySpec
from repro.threads.graph import GraphShape, ThreadGraph
from repro.threads.job import Job


class AppSpec(abc.ABC):
    """Everything the experiments need to know about one application.

    Concrete subclasses provide the thread dependence graph builder and
    the memory reference model.  The footprint curve used by the
    scheduling simulations is *derived* from the reference model, so the
    two cache representations cannot drift apart.
    """

    #: short name used in tables ("MVA", "MATRIX", "GRAVITY")
    name: str = ""
    #: one-line description for documentation output
    description: str = ""

    @property
    @abc.abstractmethod
    def reference(self) -> ReferenceSpec:
        """The application's memory reference model."""

    @abc.abstractmethod
    def build_graph(self, rng: random.Random) -> ThreadGraph:
        """Construct a fresh thread dependence graph instance.

        Thread service times may be jittered through ``rng`` so that
        replications see statistically-varying workloads.  Specs whose
        structure does not depend on ``rng`` build it once with
        :meth:`layout` and instantiate :attr:`shape` with fresh service
        times; others may build every graph from scratch.
        """

    def layout(self) -> ThreadGraph:
        """The graph's structure (threads, dependencies, phases, data groups).

        Service times in the layout are ignored.  Only specs that use
        :attr:`shape` implement it.
        """
        raise NotImplementedError(f"{type(self).__name__} has no fixed layout")

    @functools.cached_property
    def shape(self) -> GraphShape:
        """The compiled :meth:`layout`: built on first use, then shared by
        every graph this spec instantiates."""
        return self.layout().shape

    def footprint_curve(self, machine: MachineSpec = SEQUENT_SYMMETRY) -> FootprintCurve:
        """Working-set growth law on ``machine`` (derived from the reference model)."""
        return self.reference.footprint_curve(machine)

    def make_job(
        self,
        rng: random.Random,
        instance: int = 0,
        n_processors: int = 16,
        machine: MachineSpec = SEQUENT_SYMMETRY,
        data_affinity: typing.Optional[DataAffinitySpec] = None,
    ) -> Job:
        """Instantiate a schedulable job running this application.

        The worker pool is sized to ``min(graph max parallelism,
        n_processors)`` — the paper's structure of "many user-level threads
        supported by a smaller, fixed number of workers".
        """
        graph = self.build_graph(rng)
        graph.validate_acyclic()
        max_workers = min(self.max_parallelism_hint(), n_processors)
        name = self.name if instance == 0 else f"{self.name}-{instance}"
        return Job(
            name=name,
            graph=graph,
            curve=self.footprint_curve(machine),
            max_workers=max(1, max_workers),
            data_affinity=data_affinity,
        )

    @abc.abstractmethod
    def max_parallelism_hint(self) -> int:
        """Upper bound on simultaneously runnable threads (sizes worker pools)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
