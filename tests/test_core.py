import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzsim.core import (
    ConfigError,
    RngStream,
    gaussian_vector,
)
from reference_engine import normalize


def test_normalize_unit():
    np.testing.assert_allclose(normalize(np.array([3.0, 4.0])), [0.6, 0.8], rtol=1e-15)


def test_normalize_zero_vector():
    np.testing.assert_array_equal(normalize(np.zeros(2)), np.zeros(2))


def test_normalize_subthreshold():
    np.testing.assert_array_equal(normalize(np.array([2e-13, 0.0]), eps=1e-12), np.zeros(2))


def test_normalize_requires_positive_eps():
    with pytest.raises(ConfigError):
        normalize(np.ones(2), eps=0.0)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=16))
def test_normalize_output_norm(coords):
    """Output norm is either 0 or 1 up to 1e-12."""
    out = normalize(np.array(coords))
    n = np.linalg.norm(out)
    assert n == 0.0 or abs(n - 1.0) <= 1e-12


def test_gaussian_vector_zero_variance():
    rng = RngStream(1, 0)
    np.testing.assert_array_equal(gaussian_vector(rng, 3, 0.0), np.zeros(3))


def test_gaussian_vector_negative_variance():
    with pytest.raises(ConfigError):
        gaussian_vector(RngStream(1, 0), 3, -1.0)


def test_gaussian_vector_empirical_variance():
    """Monte-Carlo check: sample variance of 1e6 draws at variance 1e-5
    lands within 5%."""
    draws = gaussian_vector(RngStream(42, 0), 10**6, 1e-5)
    var = float(np.var(draws))
    assert abs(var - 1e-5) <= 0.05 * 1e-5


def test_stream_determinism():
    a = gaussian_vector(RngStream(7, 3), 16, 1.0)
    b = gaussian_vector(RngStream(7, 3), 16, 1.0)
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_differ():
    a = gaussian_vector(RngStream(7, 0), 16, 1.0)
    b = gaussian_vector(RngStream(7, 1), 16, 1.0)
    assert not np.array_equal(a, b)


@settings(max_examples=25)
@given(st.integers(0, 2**32), st.integers(0, 2**16))
def test_stream_replay_any_key(seed, stream_id):
    a = RngStream(seed, stream_id).normal(8)
    b = RngStream(seed, stream_id).normal(8)
    np.testing.assert_array_equal(a, b)
