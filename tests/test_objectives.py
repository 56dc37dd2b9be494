import math

import numpy as np
import pytest

from byzsim.core import ConfigError, RngStream
from byzsim.objectives import (
    ObjectiveSpec,
    default_smoothness,
    gradient,
    gradient_with_labels,
    local_gradient,
    make_shifts,
    softmax_dataset,
    stochastic_gradient,
    value,
    worker_shard,
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
    g = gradient_with_labels(SOFTMAX, x, labels)
    g_flipped = gradient_with_labels(SOFTMAX, x, (labels + 1) % 4)
    assert np.linalg.norm(g - g_flipped) > 1e-3


def test_spec_validation():
    with pytest.raises(ConfigError):
        ObjectiveSpec(kind="cubic", dim=3)
    with pytest.raises(ConfigError):
        ObjectiveSpec(kind="exponential", dim=3, direction=(1.0,))
    with pytest.raises(ConfigError):
        ObjectiveSpec(kind="softmax", dim=7, n_classes=2, feature_dim=3,
                      samples_per_worker=5, n_workers=2)
