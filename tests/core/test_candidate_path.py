"""The per-candidate path is cheaper but computes exactly what it did.

Between ask and tell the drivers work on plain floats, ``Parameter``
caches its log2 bounds, and TPE scores all dimensions in one array pass.
Each test here pins one of those equivalences bit for bit (``float.hex``)
against the formula it replaced, which is kept in this file as the
reference.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms.tpe import TPESearch
from repro.core.evaluation import CACHE_DECIMALS, unit_cache_key
from repro.core.parameters import Parameter, ParameterSpace

EDGE_COORDINATES = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 5e-324, -5e-324,
    math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), -1e300, 1e300,
]
coordinates = st.one_of(
    st.sampled_from(EDGE_COORDINATES),
    st.floats(min_value=-0.5, max_value=1.5),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def parameters(draw, name="p"):
    scale = draw(st.sampled_from(["log2", "linear"]))
    if scale == "log2":
        low = draw(st.floats(min_value=1e-6, max_value=1e6))
        high = low * draw(st.floats(min_value=1.001, max_value=1e9))
    else:
        low = draw(st.floats(min_value=-1e6, max_value=1e6))
        high = low + draw(st.floats(min_value=1e-3, max_value=1e9))
    return Parameter(name, low, high, scale=scale, integer=draw(st.booleans()))


@st.composite
def spaces(draw, max_dimension=5):
    d = draw(st.integers(min_value=1, max_value=max_dimension))
    return ParameterSpace([draw(parameters(f"p{i}")) for i in range(d)])


def _outcome(function, *args):
    """``float.hex`` of every value, or the exception type raised."""
    try:
        result = function(*args)
    except (ValueError, OverflowError) as error:
        return type(error)
    return {name: float.hex(value) for name, value in result.items()}


def _reference_from_unit(p, x):
    """``Parameter.from_unit`` with the log2 bounds computed per call."""
    x = min(max(float(x), 0.0), 1.0)
    if p.scale == "log2":
        lo, hi = math.log2(p.low), math.log2(p.high)
        value = 2.0 ** (lo + x * (hi - lo))
    else:
        value = p.low + x * (p.high - p.low)
    if p.integer:
        value = float(round(value))
    return p.clip(value)


def _reference_to_unit(p, value):
    value = p.clip(value)
    if p.scale == "log2":
        lo, hi = math.log2(p.low), math.log2(p.high)
        return (math.log2(value) - lo) / (hi - lo)
    return (value - p.low) / (p.high - p.low)


class TestUnitToValues:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), space=spaces())
    def test_clip_unit_first_changes_nothing(self, data, space):
        """The driver maps an asked candidate without ``clip_unit``:
        ``from_unit`` clamps each coordinate itself, identically."""
        x = np.array(data.draw(st.lists(coordinates, min_size=len(space), max_size=len(space))))
        expected = _outcome(space.from_unit_array, space.clip_unit(x))
        assert _outcome(space.from_unit_array, x) == expected

        def indexed(unit):  # the numpy-scalar indexing the float path replaced
            unit = np.asarray(unit, dtype=float)
            return {p.name: _reference_from_unit(p, unit[i]) for i, p in enumerate(space)}

        assert _outcome(indexed, x) == expected

    @settings(max_examples=300, deadline=None)
    @given(p=parameters(), x=coordinates, value=st.floats(allow_nan=False))
    def test_cached_log2_bounds_transform_bit_for_bit(self, p, x, value):
        def pair(function, *args):
            try:
                return float.hex(function(*args))
            except (ValueError, OverflowError) as error:
                return type(error)

        assert pair(p.from_unit, x) == pair(_reference_from_unit, p, x)
        assert pair(p.to_unit, value) == pair(_reference_to_unit, p, value)


class TestCacheKey:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(coordinates, st.floats(0.0, 1.0)), min_size=1, max_size=6))
    def test_float_key_equals_and_hashes_like_the_numpy_key(self, values):
        unit = np.array(values)
        with np.errstate(over="ignore"):  # rounding 1e300 overflows to inf, either way
            key = unit_cache_key(unit, CACHE_DECIMALS)
            reference = tuple(np.round(unit, CACHE_DECIMALS))
        assert all(type(k) is float for k in key)
        assert [float.hex(k) for k in key] == [float.hex(float(r)) for r in reference]
        if not any(math.isnan(k) for k in key):  # NaN != NaN in either form
            assert key == reference
            assert hash(key) == hash(reference)
            assert {reference: 1}[key] == 1


class TestParameterIdentity:
    @settings(max_examples=100, deadline=None)
    @given(p=parameters())
    def test_pickle_replace_equality_and_hash_ignore_the_cache(self, p):
        names = ["name", "low", "high", "scale", "unit", "integer"]
        fields = {name: getattr(p, name) for name in names}
        # The pickled state is the constructor's fields, in order, as it
        # was before Parameter derived its log2 bounds.
        state = p.__reduce_ex__(2)[2]
        assert list(state) == names
        assert state == fields
        fresh_pickle = pickle.dumps(p)
        for twin in (pickle.loads(fresh_pickle), copy.copy(p), copy.deepcopy(p),
                     dataclasses.replace(p), Parameter(**fields)):
            assert twin == p
            assert hash(twin) == hash(p)
            assert repr(twin) == repr(p)
            assert float.hex(twin.from_unit(0.625)) == float.hex(p.from_unit(0.625))
        wider = dataclasses.replace(p, high=p.high * 2 if p.high > 0 else p.high + 1.0)
        assert wider != p
        assert float.hex(wider.from_unit(1.0)) == float.hex(_reference_from_unit(wider, 1.0))


# ---------------------------------------------------------------------- #
# TPE: the per-dimension Parzen scoring the array pass replaced
# ---------------------------------------------------------------------- #
def _reference_bandwidths(centers, min_bandwidth):
    if centers.size == 1:
        return np.array([0.25])
    order = np.argsort(centers)
    sorted_centers = centers[order]
    gaps = np.diff(sorted_centers)
    widths = np.empty_like(sorted_centers)
    widths[0] = gaps[0] if gaps.size else 0.25
    widths[-1] = gaps[-1] if gaps.size else 0.25
    if centers.size > 2:
        widths[1:-1] = np.maximum(gaps[:-1], gaps[1:])
    bandwidths = np.empty_like(widths)
    bandwidths[order] = np.maximum(widths, min_bandwidth)
    return bandwidths


def _reference_log_density(x, centers, bandwidths):
    z = (x[:, None] - centers[None, :]) / bandwidths[None, :]
    log_kernels = -0.5 * z**2 - np.log(bandwidths[None, :]) - 0.5 * np.log(2 * np.pi)
    maxima = log_kernels.max(axis=1, keepdims=True)
    return (
        maxima.squeeze(1)
        + np.log(np.exp(log_kernels - maxima).sum(axis=1))
        - np.log(centers.size)
    )


def _reference_propose(tpe, rng):
    d = tpe.space.dimension
    observations = np.array(tpe._points)
    scores = np.array(tpe._scores)
    n_good = max(1, int(np.ceil(tpe.gamma * scores.size)))
    order = np.argsort(scores)
    good = observations[order[:n_good]]
    bad = observations[order[n_good:]]
    if bad.size == 0:
        bad = observations
    candidates = np.empty((tpe.candidates_per_step, d))
    log_l = np.zeros(tpe.candidates_per_step)
    log_g = np.zeros(tpe.candidates_per_step)
    for dim in range(d):
        good_centers = good[:, dim]
        bad_centers = bad[:, dim]
        good_bw = _reference_bandwidths(good_centers, tpe.min_bandwidth)
        bad_bw = _reference_bandwidths(bad_centers, tpe.min_bandwidth)
        picks = rng.integers(0, good_centers.size, size=tpe.candidates_per_step)
        column = np.clip(rng.normal(good_centers[picks], good_bw[picks]), 0.0, 1.0)
        candidates[:, dim] = column
        log_l += _reference_log_density(column, good_centers, good_bw)
        log_g += _reference_log_density(column, bad_centers, bad_bw)
    return candidates[int(np.argmax(log_l - log_g))]


@st.composite
def tpe_states(draw):
    d = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=200))
    # gamma near 1 leaves the bad set empty; near 0 makes n_good = 1
    gamma = draw(st.one_of(st.sampled_from([1e-3, 0.25, 0.999]), st.floats(0.01, 0.99)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    points = rng.random((n, d))
    if draw(st.booleans()):  # duplicate centres, as clipped draws produce
        levels = draw(st.integers(min_value=1, max_value=4))
        points = np.round(points * levels) / levels
    scores = rng.normal(size=n)
    if draw(st.booleans()):
        scores = np.round(scores)  # tied scores
    return dict(
        d=d, points=points, scores=scores.tolist(), gamma=gamma,
        candidates=draw(st.integers(min_value=1, max_value=64)),
        min_bandwidth=draw(st.sampled_from([1e-3, 1e-9, 0.05])),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )


class TestTPEArrayPass:
    @settings(max_examples=300, deadline=None)
    @given(state=tpe_states())
    def test_propose_equals_the_per_dimension_reference(self, state):
        tpe = TPESearch(
            gamma=state["gamma"],
            candidates_per_step=state["candidates"],
            min_bandwidth=state["min_bandwidth"],
        )
        tpe.setup(ParameterSpace([Parameter(f"p{i}", 1.0, 2.0**20) for i in range(state["d"])]))
        tpe._points = [np.array(p) for p in state["points"]]
        tpe._scores = list(state["scores"])
        rng = np.random.default_rng(state["seed"])
        reference_rng = np.random.default_rng(state["seed"])
        got = tpe._propose(rng)
        expected = _reference_propose(tpe, reference_rng)
        assert [float.hex(v) for v in got.tolist()] == [float.hex(v) for v in expected.tolist()]
        assert rng.bit_generator.state == reference_rng.bit_generator.state
