"""Dataset-aware user factories for batch execution.

``run_batch`` builds one fresh :class:`~repro.interaction.base.UserAgent`
per query.  That is conveniently a closure::

    run_batch(search, queries, lambda qi: OracleUser(ds, qi))

but a closure must capture the dataset it was written against.  This
module defines the **dataset-aware factory protocol**: a
:class:`DatasetUserFactory` is a small object whose
:meth:`~DatasetUserFactory.build` receives the searched dataset plus the
query index, so one factory instance serves any dataset (the CLI,
``benchmarks/regression.py`` and the benchmarks pass ``OracleFactory()``
without binding a dataset first).

Plain ``factory(query_index)`` callables remain supported everywhere;
:func:`build_user` dispatches between the two shapes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from repro.data.dataset import Dataset
from repro.interaction.base import UserAgent, UserDecision
from repro.interaction.heuristic import HeuristicUser
from repro.interaction.oracle import OracleUser
from repro.interaction.scripted import CallbackUser

__all__ = [
    "DatasetUserFactory",
    "OracleFactory",
    "HeuristicFactory",
    "RejectAllFactory",
    "UserFactoryLike",
    "build_user",
]


class DatasetUserFactory(ABC):
    """Builds one user per query, given the executing side's dataset.

    Subclasses must be deterministic: calling :meth:`build` twice with
    the same arguments must produce users that make identical
    decisions, or run parity across ``max_in_flight`` values is lost.
    """

    @abstractmethod
    def build(self, dataset: Dataset, query_index: int) -> UserAgent:
        """Create the user agent for one query."""

    def __call__(self, dataset: Dataset, query_index: int) -> UserAgent:
        return self.build(dataset, query_index)


@dataclass(frozen=True)
class OracleFactory(DatasetUserFactory):
    """Builds :class:`~repro.interaction.oracle.OracleUser` per query.

    Field defaults mirror ``OracleUser``'s, so
    ``OracleFactory().build(ds, qi)`` behaves identically to
    ``OracleUser(ds, qi)``.
    """

    min_f1: float = 0.40
    recall_beta: float = 1.5
    sweep_steps: int = 32
    weight_by_confidence: bool = False

    def build(self, dataset: Dataset, query_index: int) -> UserAgent:
        return OracleUser(
            dataset,
            query_index,
            min_f1=self.min_f1,
            recall_beta=self.recall_beta,
            sweep_steps=self.sweep_steps,
            weight_by_confidence=self.weight_by_confidence,
        )


@dataclass(frozen=True)
class HeuristicFactory(DatasetUserFactory):
    """Builds label-free :class:`HeuristicUser` agents (default knobs).

    Extra keyword arguments for ``HeuristicUser`` can be supplied via
    *kwargs* (kept as a plain dict).
    """

    kwargs: dict = field(default_factory=dict)

    def build(self, dataset: Dataset, query_index: int) -> UserAgent:
        return HeuristicUser(**self.kwargs)


@dataclass(frozen=True)
class RejectAllFactory(DatasetUserFactory):
    """Builds users that reject every view — the all-noise control."""

    def build(self, dataset: Dataset, query_index: int) -> UserAgent:
        return CallbackUser(lambda view: UserDecision.reject(view.n_points))


#: Either shape accepted by ``run_batch``: a dataset-aware factory or a
#: classic ``factory(query_index) -> UserAgent`` callable.
UserFactoryLike = Union[DatasetUserFactory, Callable[[int], UserAgent]]


def build_user(
    factory: UserFactoryLike, dataset: Dataset, query_index: int
) -> UserAgent:
    """Instantiate the user for one query under either factory shape."""
    if isinstance(factory, DatasetUserFactory):
        return factory.build(dataset, query_index)
    return factory(int(np.asarray(query_index)))
