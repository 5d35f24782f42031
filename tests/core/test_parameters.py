"""Parameters and parameter spaces (log2 representation, unit transforms)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parameters import Parameter, ParameterSpace


class TestParameter:
    def test_log2_endpoints(self):
        p = Parameter("bw", 2.0**20, 2.0**36)
        assert p.from_unit(0.0) == pytest.approx(2.0**20)
        assert p.from_unit(1.0) == pytest.approx(2.0**36)
        assert p.to_unit(2.0**28) == pytest.approx(0.5)

    def test_log2_midpoint_is_geometric_mean(self):
        p = Parameter("bw", 1e3, 1e9)
        assert p.from_unit(0.5) == pytest.approx(math.sqrt(1e3 * 1e9), rel=1e-9)

    def test_linear_midpoint_is_arithmetic_mean(self):
        p = Parameter("x", 10.0, 30.0, scale="linear")
        assert p.from_unit(0.5) == pytest.approx(20.0)

    def test_clipping(self):
        p = Parameter("x", 1.0, 10.0)
        assert p.clip(0.1) == 1.0
        assert p.clip(100.0) == 10.0
        assert p.from_unit(-0.5) == pytest.approx(1.0)
        assert p.from_unit(1.5) == pytest.approx(10.0)

    def test_integer_rounding(self):
        p = Parameter("n", 1.0, 64.0, integer=True)
        value = p.from_unit(0.37)
        assert value == round(value)

    def test_grid(self):
        p = Parameter("x", 2.0**0, 2.0**4)
        assert p.grid(1) == [pytest.approx(4.0)]
        grid = p.grid(5)
        assert grid[0] == pytest.approx(1.0)
        assert grid[-1] == pytest.approx(16.0)
        assert grid[2] == pytest.approx(4.0)
        with pytest.raises(ValueError):
            p.grid(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Parameter("x", 10.0, 1.0)
        with pytest.raises(ValueError):
            Parameter("x", -1.0, 1.0)  # log2 scale needs positive bounds
        with pytest.raises(ValueError):
            Parameter("x", 1.0, 2.0, scale="cubic")
        Parameter("x", -1.0, 1.0, scale="linear")  # fine on a linear scale

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=1e-3, max_value=1e12),
        st.floats(min_value=1.5, max_value=1e6),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_unit_roundtrip_log2(self, low, factor, x):
        p = Parameter("x", low, low * factor)
        value = p.from_unit(x)
        assert low <= value <= low * factor * (1 + 1e-9)
        assert p.to_unit(value) == pytest.approx(x, abs=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=-1e6, max_value=1e6),
        st.floats(min_value=1e-3, max_value=1e6),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_unit_roundtrip_linear(self, low, width, x):
        p = Parameter("x", low, low + width, scale="linear")
        value = p.from_unit(x)
        assert p.to_unit(value) == pytest.approx(x, abs=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_from_unit_is_monotonic(self, x1, x2):
        p = Parameter("x", 1.0, 1e6)
        lo, hi = sorted((x1, x2))
        assert p.from_unit(lo) <= p.from_unit(hi) * (1 + 1e-12)


class TestParameterSpace:
    def build(self):
        return ParameterSpace(
            [
                Parameter("a", 2.0**10, 2.0**20),
                Parameter("b", 1.0, 100.0, scale="linear"),
                Parameter("c", 2.0**20, 2.0**36),
            ]
        )

    def test_basic_properties(self):
        space = self.build()
        assert space.dimension == 3
        assert space.names == ["a", "b", "c"]
        assert "a" in space and "z" not in space
        assert len(list(iter(space))) == 3
        assert space["b"].scale == "linear"

    def test_duplicate_and_empty_rejected(self):
        with pytest.raises(ValueError):
            ParameterSpace([])
        with pytest.raises(ValueError):
            ParameterSpace([Parameter("a", 1, 2), Parameter("a", 1, 2)])

    def test_array_dict_roundtrip(self):
        space = self.build()
        values = {"a": 2.0**15, "b": 42.0, "c": 2.0**30}
        unit = space.to_unit_array(values)
        back = space.from_unit_array(unit)
        for name in space.names:
            assert back[name] == pytest.approx(values[name], rel=1e-9)

    def test_from_unit_array_shape_check(self):
        space = self.build()
        with pytest.raises(ValueError):
            space.from_unit_array([0.5, 0.5])

    def test_sampling_in_bounds(self):
        space = self.build()
        rng = np.random.default_rng(0)
        for _ in range(20):
            values = space.sample(rng)
            for parameter in space:
                assert parameter.low <= values[parameter.name] <= parameter.high

    def test_subset(self):
        space = self.build()
        subset = space.subset(["c", "a"])
        assert subset.names == ["c", "a"]
        with pytest.raises(KeyError):
            space.subset(["missing"])

    def test_clip_unit(self):
        space = self.build()
        clipped = space.clip_unit([-1.0, 0.5, 2.0])
        assert clipped.tolist() == [0.0, 0.5, 1.0]

    def test_describe_mentions_every_parameter(self):
        text = self.build().describe()
        for name in ("a", "b", "c"):
            assert name in text
