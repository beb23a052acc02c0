"""Unit tests for repro.core.config."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import KDE_MODES, SearchConfig
from repro.exceptions import ConfigurationError


class TestSearchConfig:
    def test_defaults_valid(self):
        cfg = SearchConfig()
        assert cfg.support > 0
        assert cfg.projection_restarts >= 1

    def test_effective_support_floor(self):
        cfg = SearchConfig(support=5)
        assert cfg.effective_support(20) == 20
        assert cfg.effective_support(3) == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"support": 0},
            {"grid_resolution": 1},
            {"bandwidth_scale": 0.0},
            {"overlap_threshold": 0.0},
            {"overlap_threshold": 1.5},
            {"min_major_iterations": 0},
            {"min_major_iterations": 5, "max_major_iterations": 4},
            {"projection_restarts": 0},
            {"projection_weight": 0.0},
            {"kde_mode": "approximate"},
            {"kde_mode": "EXACT"},
            {"kde_mode": "subsampled"},
            {"bandwidth_scale": float("nan")},
            {"bandwidth_scale": float("inf")},
            {"projection_weight": float("nan")},
            {"overlap_threshold": float("nan")},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigurationError):
            SearchConfig(**kwargs)

    @pytest.mark.parametrize("mode", ["exact", "binned"])
    def test_kde_modes_accepted(self, mode):
        cfg = SearchConfig(kde_mode=mode)
        assert cfg.kde_mode == mode

    def test_kde_defaults_exact(self):
        cfg = SearchConfig()
        assert cfg.kde_mode == "exact"

    def test_frozen(self):
        cfg = SearchConfig()
        with pytest.raises(AttributeError):
            cfg.support = 99

    @pytest.mark.parametrize(
        "field, value",
        [
            ("grid_resolution", 30.5),
            ("grid_resolution", 30.0),
            ("support", 12.5),
            ("support", True),
            ("support", "x"),
            ("rng_seed", None),
            ("bandwidth_scale", True),
            ("bandwidth_scale", "0.4"),
            ("overlap_threshold", None),
            ("axis_parallel", "yes"),
            ("axis_parallel", 1),
            ("remove_unpicked", np.bool_(True)),
            ("kde_mode", 3),
        ],
    )
    def test_mistyped_fields_are_rejected_by_name(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be "):
            SearchConfig(**{field: value})
        with pytest.raises(ConfigurationError, match=f"^{field} must be "):
            SearchConfig.from_dict({field: value})

    def test_numeric_fields_take_any_real_or_integral_type(self):
        cfg = SearchConfig(
            support=np.int64(12),
            rng_seed=np.uint32(7),
            bandwidth_scale=1,
            projection_weight=np.float32(0.5),
        )
        assert cfg.support == 12 and cfg.bandwidth_scale == 1


#: Valid configs: each field drawn inside its accepted range.
configs = st.builds(
    SearchConfig,
    support=st.integers(1, 500),
    axis_parallel=st.booleans(),
    grid_resolution=st.integers(2, 200),
    bandwidth_scale=st.floats(1e-3, 10.0),
    overlap_threshold=st.floats(1e-3, 1.0),
    min_major_iterations=st.integers(1, 5),
    max_major_iterations=st.integers(5, 10),
    projection_restarts=st.integers(1, 8),
    projection_weight=st.floats(1e-3, 10.0),
    remove_unpicked=st.booleans(),
    use_live_population=st.booleans(),
    kde_mode=st.sampled_from(KDE_MODES),
    rng_seed=st.integers(0, 2**63 - 1),
)


class TestCodec:
    @given(configs)
    def test_round_trip(self, config):
        assert SearchConfig.from_dict(config.to_dict()) == config
        wire = json.loads(json.dumps(config.to_dict()))
        assert SearchConfig.from_dict(wire) == config

    def test_retired_subsample_key_is_dropped(self):
        old = dict(SearchConfig(kde_mode="binned").to_dict(), kde_subsample=200)
        assert SearchConfig.from_dict(old) == SearchConfig(kde_mode="binned")

    @pytest.mark.parametrize(
        "payload, named",
        [
            ({"kde_mode": "subsampled"}, "subsampled"),
            ({"kde_mode": "subsampled", "kde_subsample": 512}, "subsampled"),
            ({"no_such_knob": 1}, "no_such_knob"),
            ({"support": -1}, "support"),
            ({"support": "many"}, "support must be an integer"),
            ([1, 2], "object"),
        ],
    )
    def test_rejections_name_the_input(self, payload, named):
        with pytest.raises(ConfigurationError, match=named):
            SearchConfig.from_dict(payload)
