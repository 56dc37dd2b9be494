import numpy as np
import pytest

from byzsim.attacks import AttackContext, AttackSpec, byzantine_update, shift_labels
from byzsim.core import ConfigError


def block(honest, byzantine):
    """(n, d) array with the honest rows first, and G."""
    honest = np.asarray(honest, dtype=float)
    return np.vstack([honest, np.asarray(byzantine, dtype=float)]), len(honest)


def update(spec, iteration, honest, byzantine, honest_grads=None, byzantine_grads=None):
    momenta, G = block(honest, byzantine)
    grads = momenta if honest_grads is None else block(
        honest_grads, byzantine if byzantine_grads is None else byzantine_grads)[0]
    return byzantine_update(spec, iteration, momenta, grads, G)


def test_none_sends_honest_momentum():
    out = update(AttackSpec("none"), 0, [[0.0, 0.0]], [[2.0, -1.0]])
    np.testing.assert_array_equal(out, [[2.0, -1.0]])


def test_bit_flip_negates_momentum():
    out = update(AttackSpec("bit_flip"), 0, [[0.0, 0.0]], [[3.0, -4.0]])
    np.testing.assert_array_equal(out, [[-3.0, 4.0]])


def test_bit_flip_gradient_level():
    spec = AttackSpec("bit_flip", bf_gradient_level=True)
    out = update(spec, 0, [[0.0, 0.0]], [[3.0, -4.0]],
                 honest_grads=[[0.0, 0.0]], byzantine_grads=[[1.0, 2.0]])
    np.testing.assert_array_equal(out, [[-1.0, -2.0]])


def test_mimic_warmup_then_attack():
    spec = AttackSpec("mimic", mimic_warmup=50)
    args = ([[5.0, 5.0]], [[7.0, 7.0]], [[1.0, 1.0]])
    np.testing.assert_array_equal(update(spec, 49, *args), [[7.0, 7.0]])
    np.testing.assert_array_equal(update(spec, 50, *args), [[-2.0, -2.0]])


def test_alie_zero_dispersion_returns_mean():
    u = np.array([1.5, -0.5])
    out = update(AttackSpec("alie"), 0, [u, u, u], [[0.0, 0.0]])
    np.testing.assert_array_equal(out, [u])


def test_alie_offset_is_exactly_z_sigma():
    updates = np.array([[1.0, 0.0], [3.0, 4.0], [2.0, 2.0]])
    z = 1.7
    ctx = AttackContext.from_honest(0, updates, updates)
    out = update(AttackSpec("alie", alie_z=z), 0, updates, [[0.0, 0.0]])
    np.testing.assert_array_equal(out, [ctx.honest_mean + z * ctx.coord_std])
    np.testing.assert_allclose(np.abs(out[0] - updates.mean(axis=0)),
                               z * updates.std(axis=0), rtol=1e-14)


def test_alie_uses_population_std():
    updates = np.array([[0.0], [2.0]])
    ctx = AttackContext.from_honest(0, updates, updates)
    # population std of {0, 2} is 1 (not sqrt(2))
    np.testing.assert_array_equal(ctx.coord_std, [1.0])


def test_three_byzantine_rows():
    """Each kind returns one row per Byzantine worker: the per-worker kinds
    act on each worker's own row, the honest-statistics kinds send the same
    vector from every row."""
    honest = [[1.0, 0.0], [3.0, 4.0], [2.0, 2.0], [2.0, 6.0]]
    byz = [[7.0, 1.0], [-2.0, 5.0], [0.5, -0.5]]
    byz_grads = [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
    honest_grads = [[4.0, 0.0], [0.0, 4.0], [4.0, 4.0], [0.0, 0.0]]
    kw = dict(honest_grads=honest_grads, byzantine_grads=byz_grads)
    np.testing.assert_array_equal(update(AttackSpec("none"), 0, honest, byz, **kw), byz)
    np.testing.assert_array_equal(update(AttackSpec("label_flip"), 0, honest, byz, **kw), byz)
    np.testing.assert_array_equal(
        update(AttackSpec("bit_flip"), 0, honest, byz, **kw), -np.asarray(byz))
    np.testing.assert_array_equal(
        update(AttackSpec("bit_flip", bf_gradient_level=True), 0, honest, byz, **kw),
        -np.asarray(byz_grads))
    np.testing.assert_array_equal(
        update(AttackSpec("mimic", mimic_warmup=0), 0, honest, byz, **kw),
        np.tile([-4.0, -4.0], (3, 1)))
    ctx = AttackContext.from_honest(0, honest, honest_grads)
    np.testing.assert_array_equal(
        update(AttackSpec("alie"), 0, honest, byz, **kw),
        np.tile(ctx.honest_mean + ctx.coord_std, (3, 1)))


def test_shift_labels_examples():
    assert shift_labels([3], 5, 10)[0] == 8
    assert shift_labels([7], 5, 10)[0] == 2
    np.testing.assert_array_equal(shift_labels([0, 4, 9], 0, 10), [0, 4, 9])


def test_shift_labels_out_of_range():
    with pytest.raises(ConfigError):
        shift_labels([10], 1, 10)


def test_unknown_attack_kind():
    with pytest.raises(ConfigError):
        AttackSpec("gradient_ascent")


def contexts_built(monkeypatch):
    """Every AttackContext that ``byzantine_update`` builds from now on."""
    made = []
    build = AttackContext.from_honest

    def record(iteration, updates, gradients):
        made.append(build(iteration, updates, gradients))
        return made[-1]

    monkeypatch.setattr(AttackContext, "from_honest", record)
    return made


def test_attacks_compute_only_the_statistics_they_read(monkeypatch):
    made = contexts_built(monkeypatch)
    honest, byz = [[1.0, 0.0], [3.0, 4.0], [2.0, 2.0]], [[0.0, 0.0]]
    update(AttackSpec("mimic", mimic_warmup=0), 0, honest, byz)
    update(AttackSpec("alie"), 0, honest, byz)
    mimic, alie = (set(ctx.__dict__) & {"honest_mean", "gradient_mean", "coord_std"}
                   for ctx in made)
    assert mimic == {"gradient_mean"}
    assert alie == {"honest_mean", "coord_std"}


def test_statistics_along_the_worker_axis_of_a_run_block():
    """A (R, n, d) block of runs gets each run's vectors, as alone."""
    rng = np.random.default_rng(3)
    momenta, grads = rng.normal(size=(4, 6, 3)), rng.normal(size=(4, 6, 3))
    for spec in (AttackSpec("alie", alie_z=1.3), AttackSpec("mimic", mimic_warmup=0),
                 AttackSpec("bit_flip"), AttackSpec("bit_flip", bf_gradient_level=True),
                 AttackSpec("none")):
        block = byzantine_update(spec, 0, momenta, grads, 4)
        assert block.shape == (4, 2, 3)
        for r in range(4):
            np.testing.assert_array_equal(block[r], byzantine_update(spec, 0, momenta[r],
                                                                     grads[r], 4))
