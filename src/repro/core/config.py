"""Configuration of the interactive search (paper §2 parameters)."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Any, Mapping

from repro.exceptions import ConfigurationError

#: Recognized density evaluation strategies (values of
#: :attr:`SearchConfig.kde_mode`).
KDE_MODES = ("exact", "binned")

#: Per annotated field type: the accepted-value test and its wording.
#: ``bool`` is a subclass of ``int`` in Python, so the numeric tests
#: exclude it explicitly.
_FIELD_TYPES = {
    "int": (
        lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
        "an integer",
    ),
    "float": (
        lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
        "a real number",
    ),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


@dataclass(frozen=True)
class SearchConfig:
    """All tunables of :class:`~repro.core.search.InteractiveNNSearch`.

    Attributes
    ----------
    support:
        The paper's *support* ``s``: the number of candidate nearest
        neighbors analyzed per projection and returned at the end.
        Values below the data dimensionality are raised to ``d`` at run
        time (paper §2: "this support should at least be equal to the
        dimensionality d").
    axis_parallel:
        Restrict query-cluster subspaces to original attributes
        (paper §2.1's interpretability variant) instead of arbitrary
        principal-component directions.
    grid_resolution:
        Grid points per axis for density profiles (the paper's ``p``).
    bandwidth_scale:
        Multiplier on Silverman kernel bandwidths.  Silverman's rule
        over-smooths multimodal projections; the default sharpens the
        profiles so query clusters keep crisp boundaries.
    overlap_threshold:
        Termination threshold ``t``: stop when the top-``s`` sets of two
        consecutive major iterations share at least this fraction.
    min_major_iterations, max_major_iterations:
        Bounds on the number of major iterations; the minimum guarantees
        at least one overlap comparison, the maximum bounds user effort.
    projection_restarts:
        Refinement restarts per minor iteration.  1 reproduces the
        paper's Fig. 3 exactly; higher values add random-subset seeds
        and keep the most discriminative outcome, which rescues the
        refinement when full-dimensional distances carry no signal.
    projection_weight:
        The per-projection preference weight ``w_i`` (the paper always
        uses 1).
    remove_unpicked:
        Whether to drop points with zero counts after each major
        iteration (Fig. 2's removal step).  Exposed for ablation.
    use_live_population:
        Use the current (pruned) population as the Bernoulli ``N`` in
        the meaningfulness statistics.  When False, the original data
        set size is used throughout.
    kde_mode:
        Density evaluation strategy for view profiles: ``"exact"``
        (the paper's per-point KDE, the default), ``"binned"``
        (histogram + separable blur, ``O(n + p^2)`` per view with a
        documented error bound — see :mod:`repro.density.binned`; exact
        statistics are recomputed for accepted views).  The mode is
        part of checkpoint/journal provenance, so replay stays
        byte-identical per mode.
    rng_seed:
        Seed of the engine's random generator, which draws the
        random-subset seeds of the projection restarts.  Its bit state
        is saved in every checkpoint and journal, so resume and replay
        continue the same stream.
    """

    support: int = 20
    axis_parallel: bool = False
    grid_resolution: int = 60
    bandwidth_scale: float = 0.4
    overlap_threshold: float = 0.95
    min_major_iterations: int = 3
    max_major_iterations: int = 6
    projection_restarts: int = 4
    projection_weight: float = 1.0
    remove_unpicked: bool = True
    use_live_population: bool = True
    kde_mode: str = "exact"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            accepts, kind = _FIELD_TYPES[f.type]
            value = getattr(self, f.name)
            if not accepts(value):
                raise ConfigurationError(
                    f"{f.name} must be {kind}, got {value!r}"
                )
        if self.support <= 0:
            raise ConfigurationError("support must be positive")
        if self.grid_resolution < 2:
            raise ConfigurationError("grid_resolution must be at least 2")
        if not 0 < self.bandwidth_scale < math.inf:
            raise ConfigurationError("bandwidth_scale must be positive and finite")
        if not 0 < self.overlap_threshold <= 1:
            raise ConfigurationError("overlap_threshold must be in (0, 1]")
        if self.min_major_iterations < 1:
            raise ConfigurationError("min_major_iterations must be >= 1")
        if self.max_major_iterations < self.min_major_iterations:
            raise ConfigurationError(
                "max_major_iterations must be >= min_major_iterations"
            )
        if self.projection_restarts < 1:
            raise ConfigurationError("projection_restarts must be at least 1")
        if not 0 < self.projection_weight < math.inf:
            raise ConfigurationError(
                "projection_weight must be positive and finite"
            )
        if self.kde_mode not in KDE_MODES:
            raise ConfigurationError(
                f"kde_mode must be one of {KDE_MODES}, got {self.kde_mode!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        """The config as a JSON-ready mapping, one key per field.

        The one encoder of the config format shared by checkpoints,
        journals and the service wire; :meth:`from_dict` inverts it.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchConfig":
        """Rebuild a config from :meth:`to_dict` output.

        The one decoder of the config format, so it is also where
        input written by older versions is handled: the retired
        ``kde_subsample`` key is dropped, any unknown key is rejected,
        and the retired ``kde_mode="subsampled"`` fails validation like
        any other unknown mode.

        Raises
        ------
        repro.exceptions.ConfigurationError
            Naming the offending key or value.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError("config must be an object")
        params = {k: v for k, v in data.items() if k != "kde_subsample"}
        unknown = sorted(set(params) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigurationError(f"unknown config field(s): {unknown}")
        try:
            return cls(**params)
        except TypeError as exc:
            raise ConfigurationError(f"malformed config: {exc}") from exc

    def effective_support(self, dim: int) -> int:
        """The support actually used: ``max(support, d)`` (paper §2)."""
        return max(self.support, dim)

    @classmethod
    def paper_exact(cls, **overrides: object) -> "SearchConfig":
        """A configuration reproducing the paper's algorithms verbatim.

        Disables every engineering extension this library adds on top
        of the published pseudocode: single-seed projection refinement
        (Fig. 3 exactly), unscaled Silverman bandwidths (§2.2's quoted
        rule), and unconditional pruning of never-picked points
        (Fig. 2).  Keyword overrides are applied on top.
        """
        params: dict[str, object] = {
            "projection_restarts": 1,
            "bandwidth_scale": 1.0,
        }
        params.update(overrides)
        return cls(**params)  # type: ignore[arg-type]
