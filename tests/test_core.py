import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzsim.core import (
    ConfigError,
    RngStream,
    dot,
    gaussian_vector,
    norms,
)
from reference_engine import normalize

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "byzsim"


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


@settings(max_examples=100)
@given(st.integers(1, 12), st.integers(1, 40), st.integers(0, 2**32))
def test_dot_gives_each_row_its_own_bits_in_any_layout(R, d, seed):
    """A row's dot and norm have the bits of that row alone, contiguous,
    whether it sits in a C- or F-ordered array, a strided view, a block
    or a broadcast: the engine's rows and a run alone share this."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((R, d)) * 10.0 ** rng.uniform(-8, 8, (R, 1))
    b = rng.standard_normal(d)
    alone = np.array([dot(row.copy(), row.copy()) for row in a])
    strided = np.zeros((2 * R, 3 * d))
    strided[::2, ::3] = a
    for view in (a, np.asfortranarray(a), strided[::2, ::3], np.stack((a, a))[1]):
        assert dot(view, view).tobytes() == alone.tobytes()
        assert norms(view).tobytes() == np.sqrt(alone).tobytes()
    assert dot(a, b).tobytes() == np.array([dot(row.copy(), b) for row in a]).tobytes()


# Dotted numpy names whose sums may reach BLAS, whose order depends on the kernel.
BLAS_NAMES = {"numpy.vecdot", "numpy.dot", "numpy.inner", "numpy.linalg.norm"}


def blas_names(source: str) -> list[tuple[int, str]]:
    """(line, dotted name) of each name in BLAS_NAMES that source refers
    to, through any ``import numpy`` or ``from numpy... import`` alias."""
    tree = ast.parse(source)
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "numpy":
                    aliases[a.asname or "numpy"] = a.name if a.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"

    def dotted(node) -> str | None:
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    return sorted((node.lineno, dotted(node)) for node in ast.walk(tree)
                  if dotted(node) in BLAS_NAMES)


def test_blas_names_sees_every_spelling():
    source = ("import numpy as np\nimport numpy\nfrom numpy import inner as ip\n"
              "from numpy.linalg import norm\nfrom numpy import linalg\n"
              "# np.dot(a, b) in a comment\ns = 'np.vecdot'\n"
              "np.vecdot(a, b); numpy.dot(a, b); ip(a, b); norm(a); linalg.norm(a)\n"
              "np.linalg.norm(a, axis=1); f = np.dot\n")
    assert blas_names(source) == [(8, "numpy.dot"), (8, "numpy.inner"), (8, "numpy.linalg.norm"),
                                  (8, "numpy.linalg.norm"), (8, "numpy.vecdot"),
                                  (9, "numpy.dot"), (9, "numpy.linalg.norm")]


def test_only_core_spells_a_dot_or_a_norm():
    """Outside ``core.py``, no module of the package refers to np.vecdot,
    np.dot, np.inner or np.linalg.norm: every dot product and Euclidean
    norm goes through ``core.dot`` and ``core.norms``, whose sums do not
    depend on the BLAS kernel. Out of scope: the softmax ``@`` products in
    ``objectives`` (matmuls, pinned per platform) and the ``einsum`` of
    ``aggregators._sq_dists`` (numpy's own loop, no BLAS)."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = {path.name: blas_names(path.read_text())
             for path in modules if path.name != "core.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}
