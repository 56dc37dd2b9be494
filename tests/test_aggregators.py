import math
from dataclasses import fields
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from byzsim.aggregators import (
    AggregatorSpec,
    _sq_dists,
    aggregate,
    coordinate_median,
    geometric_median,
    krum,
    nnm_transform,
    theoretical_kappa,
    trimmed_mean,
)
from byzsim.core import ConfigError
from reference_engine import (
    reference_krum,
    reference_nnm_neighbours,
    reference_nnm_transform,
    reference_sq_dists,
)

finite_vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(3, 9), st.integers(1, 4)),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


def gm_objective(y, mat):
    return float(np.linalg.norm(mat - y, axis=1).sum())


def grid_search_gm(mat, lo=-0.5, hi=1.5, steps=201):
    """Independent oracle: dense 2-D grid minimizing the distance sum,
    followed by a local refinement pass around the best grid point."""
    best, best_val = None, np.inf
    xs = np.linspace(lo, hi, steps)
    for a in xs:
        for b in xs:
            y = np.array([a, b])
            v = gm_objective(y, mat)
            if v < best_val:
                best, best_val = y, v
    span = (hi - lo) / (steps - 1)
    xs = np.linspace(best[0] - span, best[0] + span, 101)
    ys = np.linspace(best[1] - span, best[1] + span, 101)
    for a in xs:
        for b in ys:
            y = np.array([a, b])
            v = gm_objective(y, mat)
            if v < best_val:
                best, best_val = y, v
    return best


# ---------------------------------------------------------------------------
# aggregate dispatch


def test_mean_aggregate():
    spec = AggregatorSpec(rule="mean")
    np.testing.assert_array_equal(
        aggregate(spec, [np.array([1.0, 1.0]), np.array([3.0, 3.0])], 0), [2.0, 2.0]
    )


def test_cwmed_of_identical_vectors():
    spec = AggregatorSpec(rule="cwmed")
    v = np.array([0.3, -1.2, 7.0])
    np.testing.assert_array_equal(aggregate(spec, [v] * 5, 2), v)


def test_gm_fermat_point():
    """The geometric median of the unit right triangle sits at
    ((3-sqrt(3))/6, same), verified against a grid-search oracle."""
    mat = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    oracle = grid_search_gm(mat)
    got = aggregate(AggregatorSpec(rule="gm"), mat, 0)
    np.testing.assert_allclose(got, oracle, atol=1e-4)
    np.testing.assert_allclose(got, [0.21132, 0.21132], atol=1e-4)


def test_aggregate_wrong_count():
    """n is the number of vectors given: five can hold B = 2, four cannot."""
    spec = AggregatorSpec(rule="mean")
    np.testing.assert_array_equal(aggregate(spec, [np.zeros(2)] * 5, 2), np.zeros(2))
    with pytest.raises(ConfigError, match=r"need 0 <= B < n/2, got B=2, n=4"):
        aggregate(spec, [np.zeros(2)] * 4, 2)


@pytest.mark.parametrize("rule", ["mean", "krum", "gm", "cwmed", "trimmed_mean"])
@pytest.mark.parametrize("nnm", [False, True])
@pytest.mark.parametrize("n,B,match", [
    (7, -1, r"need 0 <= B < n/2, got B=-1, n=7"),
    (6, 3, r"need 0 <= B < n/2, got B=3, n=6"),
    (3, 1, r"krum needs n - B - 2 >= 1, got n=3, B=1"),
], ids=["negative", "half", "krum"])
def test_aggregate_checks_the_budget(rule, nnm, n, B, match):
    """Every rule rejects a budget outside 0 <= B < n/2, for n vectors
    or for each matrix of a block; only Krum needs n - B - 2 >= 1."""
    spec = AggregatorSpec(rule=rule, nnm=nnm)
    for shape in ((n, 2), (3, n, 2)):
        if match.startswith("krum") and rule != "krum":
            assert aggregate(spec, np.zeros(shape), B).shape == shape[:-2] + (2,)
            continue
        with pytest.raises(ConfigError, match=match):
            aggregate(spec, np.zeros(shape), B)


# ---------------------------------------------------------------------------
# NNM


def test_nnm_scalar_example():
    out = nnm_transform(np.array([[0.0], [1.0], [100.0]]), B=1)
    np.testing.assert_allclose(out.ravel(), [0.5, 0.5, 50.5])


def test_nnm_identical_inputs_unchanged():
    mat = np.tile([2.0, -1.0], (6, 1))
    np.testing.assert_allclose(nnm_transform(mat, B=2), mat)


def test_nnm_b_zero_gives_global_mean():
    mat = np.arange(12.0).reshape(4, 3)
    out = nnm_transform(mat, B=0)
    np.testing.assert_allclose(out, np.tile(mat.mean(axis=0), (4, 1)))


def nnm_reference(mat, B):
    """Exhaustive distance-sort oracle with smaller-index tie-breaking.
    It ranks by the squared distance of direct differences, as
    ``nnm_transform`` does: a square root can round two different squared
    distances to one value, and so make a tie that is not there."""
    n = len(mat)
    g = n - B
    out = np.empty_like(mat)
    for i in range(n):
        dists = [(np.einsum("k,k->", mat[j] - mat[i], mat[j] - mat[i]), j) for j in range(n)]
        chosen = [j for _, j in sorted(dists, key=lambda t: (t[0], t[1]))[:g]]
        out[i] = mat[chosen].mean(axis=0)
    return out


@settings(max_examples=60)
@given(finite_vectors, st.integers(0, 3))
# Row 0 is farther from row 1 than row 2 is, by less than the rounding of
# the distance's square root.
@example(np.array([[0, 0.0078125], [673265.5185893088, 0], [0, 0]]), 1)
def test_nnm_matches_reference(mat, B):
    if B >= len(mat) / 2:
        B = (len(mat) - 1) // 2
    np.testing.assert_allclose(nnm_transform(mat, B), nnm_reference(mat, B), rtol=1e-10, atol=1e-6)


@settings(max_examples=40)
@given(
    hnp.arrays(np.float64, st.tuples(st.integers(3, 8), st.integers(1, 3)),
               elements=st.floats(-100, 100, allow_nan=False)),
    st.data(),
)
def test_nnm_pairing_property(mat, data):
    """For any pivot, the Byzantines captured by the neighbor set cost no
    more (in distance to the pivot) than the good points it excluded.
    Checked exhaustively over all good-set choices on small instances."""
    n = len(mat)
    B = data.draw(st.integers(0, (n - 1) // 2))
    G = n - B
    mu = np.array(data.draw(st.lists(st.floats(-100, 100), min_size=mat.shape[1],
                                     max_size=mat.shape[1])))
    dists = np.linalg.norm(mat - mu, axis=1)
    neighbor = set(np.argsort(dists, kind="stable")[:G])
    for good in combinations(range(n), G):
        good = set(good)
        lhs = sum(dists[b] for b in neighbor - good)
        rhs = sum(dists[g] for g in good - neighbor)
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)


# ---------------------------------------------------------------------------
# Krum


def test_krum_tie_breaks_to_smaller_index():
    mat = np.array([[0.0], [0.1], [0.2], [100.0]])
    np.testing.assert_array_equal(krum(mat, B=1), [0.0])


def test_krum_identical_vectors():
    mat = np.tile([1.0, 2.0], (5, 1))
    np.testing.assert_array_equal(krum(mat, B=1), [1.0, 2.0])


def test_krum_three_points():
    mat = np.array([[0.0], [1.0], [5.0]])
    np.testing.assert_array_equal(krum(mat, B=0), [0.0])


def test_krum_invalid_budget():
    with pytest.raises(ConfigError):
        krum(np.zeros((3, 2)), B=1)


def krum_reference(mat, n, B):
    """Scores from the squared distances ``krum`` takes: summed in another
    order, rows whose scores tie exactly can differ in the last bit."""
    m = n - B - 2
    scores = []
    for i in range(n):
        d2 = sorted(np.einsum("k,k->", mat[j] - mat[i], mat[j] - mat[i])
                    for j in range(n) if j != i)
        scores.append(sum(d2[:m]))
    return mat[int(np.argmin(scores))]


@settings(max_examples=60)
@given(finite_vectors, st.integers(0, 3))
# The rows permute one vector's coordinates, so their scores tie.
@example(np.array([[-49.22, -6.2, 4898.42], [4898.42, -6.2, -49.22],
                   [-6.2, 4898.42, -49.22], [-6.2, -49.22, 4898.42]]), 0)
def test_krum_matches_reference(mat, B):
    n = len(mat)
    if n - B - 2 < 1 or B >= n / 2:
        B = 0
    np.testing.assert_array_equal(krum(mat, B), krum_reference(mat, n, B))


@st.composite
def distance_instances(draw):
    """An (n, d) matrix or an (R, n, d) block with a budget B, the last B
    rows of each matrix copies of one vector (exact distance ties), at a
    common offset up to 1e8 and a scale from 1e-8 to 1e8; on integer
    grids, most distances tie."""
    n = draw(st.integers(3, 30))
    B = draw(st.integers(0, (n - 1) // 2))
    d = draw(st.sampled_from([1, 2, 3, 4, 10, 17, 200]))
    R = draw(st.sampled_from([None, 1, 2, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n, d) if R is None else (R, n, d)
    if draw(st.booleans()):
        mat = rng.integers(-3, 4, size=shape).astype(float)
    else:
        mat = rng.normal(size=shape)
    if B and draw(st.booleans()):
        mat[..., n - B:, :] = mat[..., n - B:n - B + 1, :]
    scale = draw(st.sampled_from([1e-8, 1e-3, 1.0, 1e3, 1e8]))
    offset = draw(st.sampled_from([0.0, 1.0, 1e4, 1e8]))
    return mat * scale + offset * rng.normal(size=d), B


@settings(max_examples=300, deadline=None)
@given(distance_instances())
# At d = 1 and G >= 8, numpy would sum a contiguous neighbour axis pairwise.
@example((np.random.default_rng(1).normal(size=(2, 30, 1)) + 1e4, 0))
def test_distance_kernels_keep_the_bits_of_all_pairs(instance):
    """Distances, NNM and Krum equal, bit for bit, the kernels that took
    all n x n differences and the neighbour mean as one ``mean``. At d = 1,
    where that ``mean`` sums pairwise, NNM equals a running sum of the
    reference's neighbours in sorted order, divided by their count."""
    mat, B = instance
    n = mat.shape[-2]
    assert np.array_equal(_sq_dists(mat), reference_sq_dists(mat))
    if mat.shape[-1] == 1:
        neighbours = reference_nnm_neighbours(mat, B)
        total = neighbours[..., 0, :].copy()
        for g in range(1, n - B):
            total += neighbours[..., g, :]
        assert np.array_equal(nnm_transform(mat, B), total / (n - B))
    else:
        assert np.array_equal(nnm_transform(mat, B), reference_nnm_transform(mat, B))
    if n - B - 2 >= 1:
        assert np.array_equal(krum(mat, B), reference_krum(mat, B))


# ---------------------------------------------------------------------------
# Geometric median


def test_gm_two_points_matches_midpoint_objective():
    mat = np.array([[0.0, 0.0], [2.0, 2.0]])
    got = geometric_median(mat)
    assert gm_objective(got, mat) <= gm_objective(mat.mean(axis=0), mat) + 1e-9


def test_gm_collinear_majority():
    mat = np.array([[0.0], [0.0], [10.0]])
    got = geometric_median(mat)
    assert abs(got[0]) <= 1e-7


def test_gm_objective_never_worse_than_mean():
    rng = np.random.default_rng(0)
    for _ in range(50):
        mat = rng.normal(size=(7, 4)) * 10 ** rng.uniform(-3, 3)
        got = geometric_median(mat)
        assert gm_objective(got, mat) <= gm_objective(mat.mean(axis=0), mat) + 1e-9


def smoothed_surrogate(y, mat, nu):
    r = np.linalg.norm(mat - y, axis=1)
    return float(np.where(r >= nu, r, r * r / (2 * nu) + nu / 2).sum())


def test_weiszfeld_surrogate_monotone():
    rng = np.random.default_rng(3)
    for _ in range(25):
        mat = rng.normal(size=(9, 3)) * 10 ** rng.uniform(-2, 4)
        _, history = geometric_median(mat, return_history=True)
        vals = [smoothed_surrogate(y, mat, 1e-8) for y in history]
        for prev, cur in zip(vals, vals[1:]):
            assert cur <= prev * (1 + 1e-12) + 1e-12


# ---------------------------------------------------------------------------
# Coordinate median / trimmed mean


def test_cwmed_even_count():
    mat = np.array([[1.0], [2.0], [3.0], [100.0]])
    np.testing.assert_array_equal(coordinate_median(mat), [2.5])


def test_cwmed_odd_count():
    np.testing.assert_array_equal(coordinate_median(np.array([[1.0], [2.0], [100.0]])), [2.0])


def test_trimmed_mean_drops_extremes():
    mat = np.array([[1.0], [2.0], [3.0], [100.0]])
    np.testing.assert_array_equal(trimmed_mean(mat, trim_b=1), [2.5])


def test_trimmed_mean_zero_trim_is_mean():
    mat = np.arange(8.0).reshape(4, 2)
    np.testing.assert_array_equal(trimmed_mean(mat, 0), mat.mean(axis=0))


# ---------------------------------------------------------------------------
# Equivariance properties (all rules)

ALL_SPECS = [
    AggregatorSpec(rule="mean"),
    AggregatorSpec(rule="krum"),
    AggregatorSpec(rule="gm"),
    AggregatorSpec(rule="cwmed"),
    AggregatorSpec(rule="trimmed_mean"),
    AggregatorSpec(rule="gm", nnm=True),
    AggregatorSpec(rule="cwmed", nnm=True),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.rule + ("+nnm" if s.nnm else ""))
def test_permutation_invariance(spec):
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(7, 3))  # distinct with probability 1
    base = aggregate(spec, mat, 2)
    for _ in range(5):
        perm = rng.permutation(7)
        np.testing.assert_allclose(aggregate(spec, mat[perm], 2), base, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.rule + ("+nnm" if s.nnm else ""))
def test_translation_equivariance(spec):
    rng = np.random.default_rng(6)
    mat = rng.normal(size=(7, 3))
    t = rng.normal(size=3) * 10
    np.testing.assert_allclose(
        aggregate(spec, mat + t, 2), aggregate(spec, mat, 2) + t, rtol=1e-9, atol=1e-8
    )


# ---------------------------------------------------------------------------
# Blocks: a (T, n, d) array gives each matrix the bits it gets alone

RULES = ("mean", "krum", "gm", "cwmed", "trimmed_mean")


def stacked(spec, mats, B):
    return np.stack([aggregate(spec, m, B) for m in mats])


@st.composite
def blocks(draw):
    """A (T, n, d) block whose matrices sit at scales from 1e-8 to 1e4, so
    their Weiszfeld iterations stop after different pass counts."""
    T, n, d = draw(st.integers(1, 4)), draw(st.integers(3, 9)), draw(st.integers(1, 4))
    mats = draw(hnp.arrays(np.float64, (T, n, d),
                           elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)))
    scales = draw(hnp.arrays(np.float64, (T, 1, 1),
                             elements=st.sampled_from([1e-8, 1e-3, 1.0, 1e4])))
    return mats * scales


@settings(max_examples=150, deadline=None)
@given(blocks(), st.sampled_from(RULES), st.booleans(), st.data())
def test_block_equals_each_matrix_alone(mats, rule, nnm, data):
    n = mats.shape[1]
    B = data.draw(st.integers(0, (n - 1) // 2))
    assume(rule != "krum" or n - B - 2 >= 1)
    spec = AggregatorSpec(rule=rule, nnm=nnm)
    assert np.array_equal(aggregate(spec, mats, B), stacked(spec, mats, B))


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("nnm", [False, True])
def test_block_of_one(rule, nnm):
    mat = np.random.default_rng(11).normal(size=(7, 3))
    spec = AggregatorSpec(rule=rule, nnm=nnm)
    got = aggregate(spec, mat[None], 2)
    assert got.shape == (1, 3)
    assert np.array_equal(got[0], aggregate(spec, mat, 2))


def test_gm_block_rows_stop_at_their_own_pass_counts():
    """Rows that converge after different pass counts leave the block's
    passes one by one; each keeps the iterate it stopped at, and the
    block's history is as long as its slowest row's."""
    rng = np.random.default_rng(12)
    mats = rng.normal(size=(4, 9, 3)) * np.array([1e-6, 1.0, 1e3, 1e6])[:, None, None]
    alone = [geometric_median(m, return_history=True) for m in mats]
    passes = [len(history) - 1 for _, history in alone]
    assert len(set(passes)) >= 3, passes
    got, history = geometric_median(mats, return_history=True)
    assert np.array_equal(got, np.stack([y for y, _ in alone]))
    assert len(history) == max(passes) + 1
    for row, (y, row_history) in enumerate(alone):
        for k, frame in enumerate(history):
            assert np.array_equal(frame[row], row_history[min(k, passes[row])])


def test_gm_block_row_falls_back_to_mean():
    """A cluster narrower than the smoothing nu stalls: its one pass lands
    an ulp off the mean with a larger distance sum, and the guard returns
    the mean. In a block, that row alone falls back."""
    rng = np.random.default_rng(0)
    stalled = rng.normal(size=(5, 2)) * 1e-9 + rng.normal(size=2)
    y, history = geometric_median(stalled, return_history=True)
    assert np.array_equal(y, stalled.mean(axis=0))
    assert not np.array_equal(history[-1], y)
    mats = np.stack([rng.normal(size=(5, 2)), stalled, rng.normal(size=(5, 2)) * 1e3])
    got = geometric_median(mats)
    assert np.array_equal(got, np.stack([geometric_median(m) for m in mats]))
    assert not np.array_equal(got[0], mats[0].mean(axis=0))


@pytest.mark.parametrize("rule", RULES)
def test_block_worker_count_checked_on_axis_minus_two(rule):
    spec = AggregatorSpec(rule=rule)
    with pytest.raises(ConfigError, match=r"or a \(T, n, d\) block, got shape \(2, 3, 7, 1\)"):
        aggregate(spec, np.zeros((2, 3, 7, 1)), 2)


# ---------------------------------------------------------------------------
# Aggregation bound, checked directly from its definition


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(np.float64, st.tuples(st.integers(5, 7), st.integers(1, 3)),
               elements=st.floats(-1e6, 1e6, allow_nan=False)),
    st.integers(1, 2),
    st.sampled_from(["gm", "cwmed"]),
)
def test_certified_bound_all_labelings(mat, B, rule):
    """For every admissible good set S of size n - B, the aggregate stays
    within kappa/G * sum of good deviations of the good mean. Evaluated
    straight from the inequality, not through the fuzzing checker."""
    n, d = mat.shape
    if B >= n / 2:
        B = (n - 1) // 2
    G = n - B
    spec = AggregatorSpec(rule=rule)
    kappa = theoretical_kappa(spec, n, B, d)
    if rule == "gm":
        # tiny smoothing: the default 1e-8 leaves an O(nu) output error that
        # exceeds the probe tolerance on exact-duplicate clusters
        agg = geometric_median(mat, nu=1e-13, max_iters=500, tol=1e-15)
    else:
        agg = aggregate(spec, mat, B)
    for good in combinations(range(n), G):
        sub = mat[list(good)]
        vbar = sub.mean(axis=0)
        disp = float(np.linalg.norm(sub - vbar, axis=1).sum())
        lhs = float(np.linalg.norm(agg - vbar))
        scale = max(1.0, float(np.linalg.norm(mat - vbar, axis=1).max()))
        assert lhs <= kappa / G * disp + 1e-9 * scale


# ---------------------------------------------------------------------------
# Theoretical coefficients


def test_kappa_gm():
    assert theoretical_kappa(AggregatorSpec(rule="gm"), 20, 3, d=10) == pytest.approx(17.0 / 7.0)


def test_kappa_cwmed():
    spec = AggregatorSpec(rule="cwmed")
    assert theoretical_kappa(spec, 20, 3, d=10) == pytest.approx(math.sqrt(10) * 17.0 / 7.0)


def test_kappa_gm_no_byzantines():
    assert theoretical_kappa(AggregatorSpec(rule="gm"), 10, 0, d=4) == pytest.approx(2.0)


def test_kappa_absent_rules():
    for rule in ("mean", "krum", "trimmed_mean"):
        assert theoretical_kappa(AggregatorSpec(rule=rule), 10, 2, d=4) is None


def test_kappa_nnm_composition():
    spec = AggregatorSpec(rule="gm", nnm=True)
    assert theoretical_kappa(spec, 20, 3, d=10) is None  # needs a leverage constant
    kappa = 2.0 * (1.0 + 3.0 / 14.0)
    expected = (8 * kappa + 4) * (3.0 / 17.0) * 2.0
    assert theoretical_kappa(spec, 20, 3, d=10, leverage_c=2.0) == pytest.approx(expected)


def test_spec_validation():
    """A spec names the rule only; n and B come with the vectors."""
    assert [f.name for f in fields(AggregatorSpec)] == ["rule", "nnm"]
    with pytest.raises(ConfigError, match="unknown rule 'median'"):
        AggregatorSpec(rule="median")
