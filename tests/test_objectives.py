import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from byzsim.core import ConfigError, RngStream
from byzsim.objectives import (
    ObjectiveSpec,
    default_smoothness,
    gradient,
    gradient_with_labels,
    index_tables,
    make_shifts,
    softmax_dataset,
    value,
    worker_shard,
)
from reference_engine import (
    local_gradient,
    reference_gradient_with_labels,
    reference_softmax_value,
    stochastic_gradient,
)

QUARTIC = ObjectiveSpec(kind="quartic", dim=10)
EXP = ObjectiveSpec(kind="exponential", dim=3, direction=(0.0, 0.0, 0.0))
SOFTMAX = ObjectiveSpec(
    kind="softmax", dim=12, n_classes=4, feature_dim=3,
    feature_seed=11, samples_per_worker=15, n_workers=6,
)


def central_difference(spec, x, h=1e-5):
    fd = np.empty(spec.dim)
    for j in range(spec.dim):
        e = np.zeros(spec.dim)
        e[j] = h
        fd[j] = (value(spec, x + e) - value(spec, x - e)) / (2 * h)
    return fd


def test_quartic_value_at_ones():
    assert value(QUARTIC, np.ones(10)) == 100.0


def test_quartic_value_at_zero():
    assert value(QUARTIC, np.zeros(10)) == 0.0


def test_exponential_zero_direction():
    assert value(EXP, np.array([5.0, -2.0, 1.0])) == 1.0


def test_quartic_gradient_at_ones():
    g = gradient(QUARTIC, np.ones(10))
    np.testing.assert_allclose(g, 40.0 * np.ones(10), rtol=1e-15)
    assert abs(np.linalg.norm(g) - 40.0 * math.sqrt(10)) < 1e-9


def test_quartic_gradient_at_zero():
    np.testing.assert_array_equal(gradient(QUARTIC, np.zeros(10)), np.zeros(10))


@pytest.mark.parametrize("spec", [QUARTIC,
                                  ObjectiveSpec(kind="exponential", dim=3,
                                                direction=(0.4, -0.7, 0.2)),
                                  SOFTMAX])
def test_gradient_matches_finite_difference(spec):
    rng = RngStream(3, 0)
    for _ in range(10):
        x = rng.normal(spec.dim)
        x *= 5.0 * rng.uniform(0, 1) / max(np.linalg.norm(x), 1e-12)
        fd = central_difference(spec, x)
        g = gradient(spec, x)
        rel = np.abs(fd - g) / np.maximum(1.0, np.abs(g))
        assert rel.max() <= 1e-5


def test_make_shifts_single_worker_is_zero():
    shifts = make_shifts(RngStream(0, 0), 1, 5, 1e-3)
    np.testing.assert_allclose(shifts[0], np.zeros(5), atol=1e-18)


def test_make_shifts_two_workers_symmetric():
    s = make_shifts(RngStream(0, 0), 2, 5, 1e-3)
    np.testing.assert_allclose(s[0], -s[1], rtol=1e-12)


def test_make_shifts_sum_to_zero():
    s = make_shifts(RngStream(5, 0), 17, 10, 1e-3)
    assert np.linalg.norm(np.sum(s, axis=0)) <= 1e-10


def test_noiseless_oracle_is_exact_gradient():
    x = np.linspace(-1, 1, 10)
    g = stochastic_gradient(QUARTIC, x, np.zeros(10), RngStream(0, 0), 0.0)
    np.testing.assert_array_equal(g, gradient(QUARTIC, x))


def test_oracle_mean_matches_shifted_gradient():
    """Monte-Carlo: averaging many oracle draws at a fixed point recovers
    gradient + shift within three standard errors."""
    x = 0.3 * np.ones(10)
    shift = make_shifts(RngStream(9, 0), 5, 10, 1e-3)[2]
    rng = RngStream(9, 1)
    trials = 10**5
    var = 1e-5
    acc = np.zeros(10)
    for _ in range(trials):
        acc += stochastic_gradient(QUARTIC, x, shift, rng, var)
    mean = acc / trials
    se = math.sqrt(var / trials)
    err = np.abs(mean - gradient(QUARTIC, x) - shift)
    assert err.max() <= 3.0 * se + 1e-12


def test_oracle_unbiased_across_workers_noiseless():
    x = 0.5 * np.ones(10)
    shifts = make_shifts(RngStream(4, 0), 8, 10, 1e-3)
    rng = RngStream(4, 1)
    draws = [stochastic_gradient(QUARTIC, x, s, rng, 0.0) for s in shifts]
    np.testing.assert_allclose(np.mean(draws, axis=0), gradient(QUARTIC, x), atol=1e-12)


def local_min_value(shift):
    """Closed-form minimum of the tilted quartic ||x||^4 + <s, x>."""
    return -0.75 * (0.25 ** (1.0 / 3.0)) * float(np.linalg.norm(shift)) ** (4.0 / 3.0)


def test_local_objective_reading():
    """The shifted oracle is the gradient of f_i(x) = f(x) + <s, x>: a
    central difference of f_i matches ``local_gradient``."""
    shift = np.array([1.0] + [0.0] * 9)
    x = 0.2 * np.ones(10)
    h = 1e-5
    fd = [(value(QUARTIC, x + e) + shift @ (x + e) - value(QUARTIC, x - e) - shift @ (x - e))
          / (2 * h) for e in h * np.eye(10)]
    np.testing.assert_allclose(fd, local_gradient(QUARTIC, x, shift), rtol=1e-8, atol=1e-10)


def test_local_min_value_matches_closed_form():
    """The minimum of the tilted quartic ||x||^4 + <s, x> is
    -(3/4) * (1/4)^(1/3) * ||s||^(4/3), reached at
    x* = -(||s||/4)^(1/3) s/||s||: the gradient vanishes there, f_i takes
    the closed-form value, and nearby points lie no lower."""
    rng = RngStream(3, 0)
    for sn in (0.05, 0.1, 0.3):
        shift = np.zeros(10)
        shift[0] = sn
        x_star = -((sn / 4.0) ** (1.0 / 3.0)) * shift / sn
        f_star = value(QUARTIC, x_star) + shift @ x_star
        assert f_star == pytest.approx(local_min_value(shift), rel=1e-12)
        assert np.abs(local_gradient(QUARTIC, x_star, shift)).max() <= 1e-15
        for _ in range(100):
            x = x_star + 1e-2 * rng.normal(10)
            assert value(QUARTIC, x) + shift @ x >= f_star


def test_quartic_smoothness_hessian_bound():
    """Spot check of the declared constants: ||H(x)|| = 12||x||^2 stays
    below L0 + L1 * ||grad f(x)||."""
    meta = default_smoothness(QUARTIC)
    rng = RngStream(11, 0)
    for _ in range(200):
        x = rng.normal(10) * rng.uniform(0, 5)
        hess_norm = 12.0 * float(np.dot(x, x))
        grad_norm = float(np.linalg.norm(gradient(QUARTIC, x)))
        assert hess_norm <= meta.L0 + meta.L1 * grad_norm + 1e-9


def test_sum_gradient_norm_bound():
    """Averaged local gradient norms stay below
    8 L1 (f - f*) + 8 L1 D* + L0/L1 for the tilted quartic locals."""
    meta = default_smoothness(QUARTIC)
    shifts = make_shifts(RngStream(21, 0), 6, 10, 1e-3)
    locals_min = [local_min_value(s) for s in shifts]
    delta_star = -float(np.mean(locals_min))  # f* = 0
    rng = RngStream(21, 1)
    for _ in range(50):
        x = rng.normal(10) * rng.uniform(0, 3)
        lhs = float(np.mean([np.linalg.norm(gradient(QUARTIC, x) + s) for s in shifts]))
        rhs = (8 * meta.L1 * value(QUARTIC, x)
               + 8 * meta.L1 * delta_star + meta.L0 / meta.L1)
        assert lhs <= rhs + 1e-9


def test_softmax_dataset_shards_are_class_sorted():
    feats, labels = softmax_dataset(SOFTMAX)
    assert feats.shape == (90, 3)
    assert np.all(np.diff(labels) >= 0)
    shard = worker_shard(SOFTMAX, 2)
    assert shard == slice(30, 45)


def test_softmax_flipped_labels_change_gradient():
    _, labels = softmax_dataset(SOFTMAX)
    x = RngStream(2, 0).normal(12)
    g, g_flipped = gradient_with_labels(SOFTMAX, x, index_tables(
        SOFTMAX, [(slice(None), labels), (slice(None), (labels + 1) % 4)]))
    assert np.linalg.norm(g - g_flipped) > 1e-3


@settings(max_examples=200, deadline=None)
@given(n_classes=st.integers(2, 17), feature_dim=st.integers(1, 20), rows=st.integers(1, 600),
       workers=st.integers(1, 4), shard=st.booleans(), label_shift=st.integers(0, 16),
       scale=st.just(0.0) | st.floats(1e-3, 100.0), seed=st.integers(0, 2**32 - 1))
@example(n_classes=10, feature_dim=20, rows=600, workers=4, shard=False, label_shift=3,
         scale=30.0, seed=0)
@example(n_classes=16, feature_dim=3, rows=7, workers=1, shard=True, label_shift=0,
         scale=1e-3, seed=1)
@example(n_classes=8, feature_dim=1, rows=1, workers=1, shard=False, label_shift=0,
         scale=1.0, seed=0)
@example(n_classes=129, feature_dim=2, rows=300, workers=2, shard=False, label_shift=64,
         scale=10.0, seed=2)
@example(n_classes=257, feature_dim=1, rows=600, workers=3, shard=True, label_shift=128,
         scale=30.0, seed=3)
def test_class_major_softmax_equals_row_major(n_classes, feature_dim, rows, workers, shard,
                                              label_shift, scale, seed):
    """The class-major gradient and value equal the row-major reference,
    which takes the same two products and adds each row's classes by a
    running loop, bit for bit: from 2
    classes to 17, and at 129 and 257, past the 128 terms where numpy's
    pairwise sum of a row splits it in two; on the full data and on one
    worker's shard, with true and shifted labels, at x = 0 and at scales
    1e-3 to 100, and on a single row, whose one column numpy would sum
    pairwise."""
    spec = ObjectiveSpec(kind="softmax", dim=n_classes * feature_dim, n_classes=n_classes,
                         feature_dim=feature_dim, feature_seed=seed % 1000,
                         samples_per_worker=max(1, rows // workers), n_workers=workers)
    rows_ = worker_shard(spec, seed % workers) if shard else slice(None)
    table = [(rows_, (softmax_dataset(spec)[1][rows_] + label_shift) % n_classes)]
    x = RngStream(seed, 1).normal(spec.dim, std=scale)
    assert np.array_equal(gradient_with_labels(spec, x, index_tables(spec, table)),
                          reference_gradient_with_labels(spec, x, table))
    assert value(spec, x) == reference_softmax_value(spec, x)


def test_gradient_with_labels_needs_one_label_per_feature_row():
    _, labels = softmax_dataset(SOFTMAX)
    x = RngStream(2, 0).normal(12)
    with pytest.raises(ConfigError, match="14 labels for 15 feature rows"):
        index_tables(SOFTMAX, [(slice(None), labels), (slice(0, 15), labels[:14])])


@st.composite
def label_tables(draw, labels, n_classes, workers, m, max_tables=6):
    """A mix of ``(rows, labels)`` tables over a dataset with ``labels``,
    in ``workers`` shards of m rows: the full data with its labels, worker
    shards with shifted labels (label flipping), shards with labels drawn
    freely (an ``oracle.labels`` table), and slices of any length and
    offset, with one row or an odd number of them. A table may repeat."""
    rows = len(labels)
    tables = []
    for kind in draw(st.lists(st.sampled_from(["full", "flip", "given", "slice"]),
                              min_size=1, max_size=max_tables)):
        if kind == "full":
            tables.append((slice(None), labels))
            continue
        if kind == "slice":
            start = draw(st.integers(0, rows - 1))
            rows_ = slice(start, draw(st.integers(start + 1, rows)))
        else:
            worker = draw(st.integers(0, workers - 1))
            rows_ = slice(worker * m, (worker + 1) * m)
        if kind == "given":
            size = len(range(rows)[rows_])
            given = draw(st.lists(st.integers(0, n_classes - 1), min_size=size, max_size=size))
            tables.append((rows_, np.array(given)))
        else:
            tables.append((rows_, (labels[rows_] + draw(st.integers(1, n_classes - 1)))
                           % n_classes))
    return tables


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n_classes=st.integers(2, 12), feature_dim=st.integers(1, 8),
       workers=st.integers(1, 5), m=st.integers(1, 61),
       scale=st.just(0.0) | st.floats(1e-3, 100.0), seed=st.integers(0, 2**32 - 1))
@example(data=None, n_classes=129, feature_dim=2, workers=3, m=37, scale=10.0, seed=2)
@example(data=None, n_classes=257, feature_dim=1, workers=4, m=25, scale=30.0, seed=3)
@example(data=None, n_classes=10, feature_dim=20, workers=20, m=1, scale=30.0, seed=4)
@example(data=None, n_classes=8, feature_dim=1, workers=1, m=1, scale=1.0, seed=0)
def test_one_pass_gives_each_table_its_own_gradient(data, n_classes, feature_dim, workers, m,
                                                    scale, seed):
    """One softmax pass serves any mix of label tables: each table's
    gradient equals the reference's bit for bit, and equals the gradient
    of a pass with that table alone, and of a pass with the tables in
    reverse. From 2 classes to 12, and at 129 and 257; shards of one row
    and of odd sizes at unaligned offsets; a dataset of one row. The
    ``@example``s, which draw nothing, mix the full data, every worker's
    flipped shard and every worker's shard with labels shifted by its
    index, as the engine does with label flipping over an
    ``oracle.labels`` table."""
    spec = ObjectiveSpec(kind="softmax", dim=n_classes * feature_dim, n_classes=n_classes,
                         feature_dim=feature_dim, feature_seed=seed % 1000,
                         samples_per_worker=m, n_workers=workers)
    labels = softmax_dataset(spec)[1]
    if data is None:
        shards = [worker_shard(spec, i) for i in range(workers)]
        tables = [(slice(None), labels),
                  *((s, (labels[s] + 1) % n_classes) for s in shards),
                  *((s, (labels[s] + i) % n_classes) for i, s in enumerate(shards))]
    else:
        tables = data.draw(label_tables(labels, n_classes, workers, m))
    x = RngStream(seed, 1).normal(spec.dim, std=scale)
    indexed = index_tables(spec, tables)
    got = gradient_with_labels(spec, x, indexed)
    assert got.shape == (len(tables), spec.dim)
    assert np.array_equal(got, reference_gradient_with_labels(spec, x, tables))
    for t, table in enumerate(indexed):
        assert np.array_equal(gradient_with_labels(spec, x, [table])[0], got[t])
    assert np.array_equal(gradient_with_labels(spec, x, indexed[::-1]), got[::-1])
    # A row of points is one pass per point.
    points = np.stack([x, 2.0 * x])
    both = gradient_with_labels(spec, points, indexed)
    assert np.array_equal(both[0], got)
    assert np.array_equal(both[1], gradient_with_labels(spec, 2.0 * x, indexed))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n_classes=st.integers(2, 11), feature_dim=st.integers(1, 20),
       workers=st.integers(1, 4), m=st.integers(1, 100),
       scale=st.just(0.0) | st.floats(1e-3, 100.0), seed=st.integers(0, 2**32 - 1))
@example(data=None, n_classes=2, feature_dim=1, workers=1, m=1, scale=0.0, seed=0)
@example(data=None, n_classes=2, feature_dim=3, workers=1, m=1, scale=1.0, seed=1)
@example(data=None, n_classes=10, feature_dim=20, workers=4, m=100, scale=30.0, seed=2)
def test_loss_from_the_pass_equals_value(data, n_classes, feature_dim, workers, m, scale, seed):
    """The loss a pass returns beside its gradients is ``value`` at that
    point, bit for bit, whichever one to four tables share the pass, and
    at each row of a (R, dim) block. Covers a dataset of one row (whose
    class sum is a running ``add.accumulate``), two classes and x = 0."""
    spec = ObjectiveSpec(kind="softmax", dim=n_classes * feature_dim, n_classes=n_classes,
                         feature_dim=feature_dim, feature_seed=seed % 1000,
                         samples_per_worker=m, n_workers=workers)
    labels = softmax_dataset(spec)[1]
    if data is None:
        tables = [(slice(None), labels)]
    else:
        tables = data.draw(label_tables(labels, n_classes, workers, m, max_tables=4))
    tables = index_tables(spec, tables)
    x = RngStream(seed, 1).normal(spec.dim, std=scale)
    grads, f = gradient_with_labels(spec, x, tables, loss=True)
    assert np.array_equal(grads, gradient_with_labels(spec, x, tables))
    assert np.array_equal(f, value(spec, x))
    points = np.stack([np.zeros(spec.dim), x, 2.0 * x])
    grads, f = gradient_with_labels(spec, points, tables, loss=True)
    assert np.array_equal(grads, gradient_with_labels(spec, points, tables))
    assert np.array_equal(f, [value(spec, p) for p in points])


@settings(max_examples=300, deadline=None)
@given(n_classes=st.integers(2, 11), feature_dim=st.integers(1, 20), workers=st.integers(1, 4),
       m=st.integers(1, 104), R=st.integers(1, 40), scale=st.floats(1e-3, 10.0),
       seed=st.integers(0, 2**32 - 1))
@example(n_classes=2, feature_dim=1, workers=1, m=1, R=3, scale=1.0, seed=0)
@example(n_classes=10, feature_dim=20, workers=4, m=104, R=40, scale=3.0, seed=1)
def test_batched_value_equals_the_row_loop(n_classes, feature_dim, workers, m, R, scale, seed):
    """``value`` on a (R, dim) block, one stacked pass, gives each row the
    bits of ``value`` at that row alone: from 2 classes to 11, on up to
    416 data rows or a single one, at x = 0 (row 0) and at growing scales."""
    spec = ObjectiveSpec(kind="softmax", dim=n_classes * feature_dim, n_classes=n_classes,
                         feature_dim=feature_dim, feature_seed=seed % 1000,
                         samples_per_worker=m, n_workers=workers)
    X = RngStream(seed, 1).normal(R * spec.dim, std=scale).reshape(R, spec.dim)
    X *= np.arange(R)[:, None]
    got = value(spec, X)
    assert got.shape == (R,)
    assert np.array_equal(got, [value(spec, x) for x in X])


def test_spec_validation():
    with pytest.raises(ConfigError):
        ObjectiveSpec(kind="cubic", dim=3)
    with pytest.raises(ConfigError):
        ObjectiveSpec(kind="exponential", dim=3, direction=(1.0,))
    with pytest.raises(ConfigError):
        ObjectiveSpec(kind="softmax", dim=7, n_classes=2, feature_dim=3,
                      samples_per_worker=5, n_workers=2)
