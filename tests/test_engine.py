import logging
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from byzsim.aggregators import AggregatorSpec
from byzsim.attacks import AttackSpec
from byzsim.core import ConfigError, RngStream
from byzsim.engine import (
    RunConfig,
    Schedule,
    gamma0_cap,
    run,
    run_batch,
    schedule_values,
)
from byzsim.harness import write_trajectory_csv
from byzsim.objectives import (
    ObjectiveSpec,
    OracleConfig,
    gradient,
    softmax_dataset,
    value,
    worker_shard,
)
from reference_engine import reference_run


def quartic_config(
    n=1,
    B=0,
    rule="mean",
    nnm=False,
    attack="none",
    optimizer="byz_nsgdm",
    schedule=None,
    K=5,
    seed=0,
    noise=0.0,
    shifts=0.0,
    log_every=1,
    dim=10,
    **kw,
):
    return RunConfig(
        objective=ObjectiveSpec(kind="quartic", dim=dim),
        oracle=OracleConfig(noise_variance=noise, shift_variance=shifts),
        n=n,
        B=B,
        attack=AttackSpec(kind=attack),
        aggregator=AggregatorSpec(rule=rule, n=n, B=B, nnm=nnm),
        schedule=schedule or Schedule(kind="constant", gamma0=0.01, momentum_beta=0.9),
        optimizer=optimizer,
        K=K,
        seed=seed,
        x0=np.ones(dim),
        log_every=log_every,
        **kw,
    )


# ---------------------------------------------------------------------------
# Schedules


def test_theoretical_schedule_values():
    s = Schedule(kind="theoretical", gamma0=1.0, horizon=255)
    gamma, eta = schedule_values(s, 0)
    assert gamma == pytest.approx(1.0 / 64.0)
    assert eta == pytest.approx(1.0 / 16.0)
    assert schedule_values(s, 200) == (gamma, eta)  # constant over k


def test_practical_decay_values():
    s = Schedule(kind="practical_decay", gamma0=0.1, momentum_beta=0.9)
    assert schedule_values(s, 4)[0] == pytest.approx(0.05)
    assert schedule_values(s, 0)[0] == pytest.approx(0.1)
    assert schedule_values(s, 4)[1] == pytest.approx(0.1)


def test_constant_schedule_values():
    s = Schedule(kind="constant", gamma0=0.1, momentum_beta=0.3)
    for k in (0, 1, 100):
        assert schedule_values(s, k) == (0.1, pytest.approx(0.7))


def test_gamma0_cap_examples():
    # evaluate the three branches independently
    b1 = 1.0 / (2 * 3.0)
    b2 = 3001**0.25 / (math.sqrt(32) * 3.0)
    b3 = 1.0 / (math.sqrt(128 * (1 + 2 * 17.0 / 7.0)) * 3.0)
    assert gamma0_cap(3.0, 17.0 / 7.0, 3000) == pytest.approx(min(b1, b2, b3))

    assert gamma0_cap(3.0, 0.0, 10**9) == pytest.approx(1.0 / (math.sqrt(128) * 3.0))

    assert gamma0_cap(0.5, 0.0, 0) == pytest.approx(2.0 / math.sqrt(128))
    assert gamma0_cap(0.5, 0.0, 0) == pytest.approx(0.1767766952966369)


# ---------------------------------------------------------------------------
# Momentum, as the engine runs it: one noiseless, shiftless worker under
# the mean, so the k-th aggregate is that worker's momentum v^k, and its
# gradients are the exact gradients at the captured iterates.


def momenta_and_gradients(beta, K, **kw):
    schedule = Schedule(kind="constant", gamma0=0.01, momentum_beta=beta)
    cfg = quartic_config(schedule=schedule, K=K, **kw)
    result = run(cfg, capture_states=True)
    return result.aggregates, [gradient(cfg.objective, x) for x in result.states]


def test_momentum_full_replacement():
    """eta = 1 (beta = 0): each momentum is this step's gradient."""
    momenta, grads = momenta_and_gradients(0.0, 5, init_momentum="zero")
    for v, g in zip(momenta, grads):
        np.testing.assert_array_equal(v, g)


def test_momentum_half():
    """eta = 1/2: v^1 = g^0 / 2 from a zero start, then the mean of the
    previous momentum and this step's gradient."""
    momenta, grads = momenta_and_gradients(0.5, 3, init_momentum="zero")
    np.testing.assert_array_equal(momenta[0], 0.5 * grads[0])
    for k in (1, 2):
        np.testing.assert_array_equal(momenta[k], 0.5 * momenta[k - 1] + 0.5 * grads[k])


def test_momentum_eta_bounds():
    """eta = 1 - momentum_beta must lie in (0, 1]."""
    with pytest.raises(ConfigError):
        Schedule(kind="constant", gamma0=0.1, momentum_beta=1.0)  # eta = 0
    with pytest.raises(ConfigError):
        Schedule(kind="constant", gamma0=0.1, momentum_beta=-0.5)  # eta = 1.5


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 0.99), st.integers(1, 30), st.integers(0, 10**6))
def test_momentum_unrolled_identity(beta, steps, seed):
    """The engine's recursive momentum equals the geometric unrolled sum
    to 1e-12 relative accuracy, from a random start."""
    eta = 1.0 - beta
    x0 = RngStream(seed, 0).normal(10)
    schedule = Schedule(kind="constant", gamma0=0.01, momentum_beta=beta)
    cfg = replace(quartic_config(schedule=schedule, K=steps), x0=x0)
    result = run(cfg, capture_states=True)
    gs = [gradient(cfg.objective, x) for x in result.states]
    unrolled = (1 - eta) ** steps * gs[0]  # v^0 is the first gradient draw
    for t, g in enumerate(gs[:steps]):
        unrolled = unrolled + eta * (1 - eta) ** (steps - 1 - t) * g
    np.testing.assert_allclose(result.aggregates[-1], unrolled, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# run()


def test_single_step_hand_execution():
    cfg = quartic_config(K=1, schedule=Schedule("constant", 0.01, momentum_beta=0.0))
    res = run(cfg)
    expected = np.ones(10) - 0.01 * np.ones(10) / math.sqrt(10)
    np.testing.assert_allclose(res.final_x, expected, rtol=1e-15)
    assert res.records[0].grad_norm == pytest.approx(40 * math.sqrt(10))


def test_zero_dispersion_robust_aggregation_matches_single_worker():
    """Noiseless homogeneous workers all transmit the same vector, so a
    robust aggregate equals the honest mean and the trajectory collapses
    to the single-worker one."""
    solo = run(quartic_config(n=1, B=0, K=20)).records
    for rule in ("krum", "cwmed"):
        multi = run(quartic_config(n=20, B=3, rule=rule, K=20)).records
        for a, b in zip(solo, multi):
            assert a.grad_norm == b.grad_norm and a.f_value == b.f_value
    for rule in ("mean", "gm", "trimmed_mean"):
        multi = run(quartic_config(n=20, B=3, rule=rule, K=20)).records
        for a, b in zip(solo, multi):
            assert a.grad_norm == pytest.approx(b.grad_norm, rel=1e-12)


def test_step_size_bound_normalized():
    cfg = quartic_config(n=5, B=1, rule="cwmed", attack="bit_flip", K=50,
                         noise=1e-5, shifts=1e-3, seed=3)
    res = run(cfg, capture_states=True)
    for rec in res.records[1:]:
        assert rec.step_size in (0.0, 0.01)
    for prev, cur in zip(res.states, res.states[1:]):
        moved = np.linalg.norm(cur - prev)
        assert moved == 0.0 or abs(moved - 0.01) <= 1e-12 * 0.01


def test_trajectory_determinism():
    cfg = lambda: quartic_config(n=8, B=2, rule="gm", nnm=True, attack="alie",
                                 K=30, noise=1e-5, shifts=1e-3, seed=11)
    r1, r2 = run(cfg()), run(cfg())
    assert r1.records == r2.records
    np.testing.assert_array_equal(r1.final_x, r2.final_x)


def test_mimic_warmup_bitwise_honest():
    """A mimic attacker that never leaves warmup is indistinguishable from
    an honest-behaving byzantine worker."""
    base = quartic_config(n=6, B=2, rule="cwmed", attack="none", K=15,
                          noise=1e-5, shifts=1e-3, seed=5)
    mim = quartic_config(n=6, B=2, rule="cwmed", attack="mimic", K=15,
                         noise=1e-5, shifts=1e-3, seed=5)
    mim.attack = AttackSpec(kind="mimic", mimic_warmup=10**9)
    assert run(base).records == run(mim).records


def test_initial_momentum_tracks_local_gradient():
    """With a stochastic-gradient start, ||v0 - grad f_i(x0)|| is the norm
    of one noise draw: around sigma, never wildly above."""
    cfg = quartic_config(n=12, B=0, K=1, noise=1e-4, shifts=1e-3, seed=7)
    res = run(cfg, capture_states=True)
    # reconstruct v0 deviation via a fresh run at eta=1? simpler: the first
    # aggregate with eta=1 equals the mean of fresh draws; here just check
    # the logged aggregation error stays at noise scale.
    sigma = math.sqrt(10 * 1e-4)
    assert res.records[1].agg_error <= 5 * sigma


def test_zero_init_momentum_flag():
    cfg = quartic_config(K=1, init_momentum="zero",
                         schedule=Schedule("constant", 0.01, momentum_beta=0.5))
    res = run(cfg)
    # v1 = 0.5 * grad, normalized step along ones
    expected = np.ones(10) - 0.01 / math.sqrt(10)
    np.testing.assert_allclose(res.final_x, expected, rtol=1e-15)


def test_baseline_divergence_reported():
    cfg = quartic_config(optimizer="baseline", K=200,
                         schedule=Schedule("constant", 0.1, momentum_beta=0.9))
    res = run(cfg)
    assert res.diverged
    assert res.divergence_step is not None
    for rec in res.records:
        assert math.isfinite(rec.f_value) and math.isfinite(rec.grad_norm)


def test_baseline_step_is_unnormalized():
    cfg = quartic_config(optimizer="baseline", K=1,
                         schedule=Schedule("constant", 1e-4, momentum_beta=0.0))
    res = run(cfg)
    g = gradient(ObjectiveSpec(kind="quartic", dim=10), np.ones(10))
    np.testing.assert_allclose(res.final_x, np.ones(10) - 1e-4 * g, rtol=1e-14)


def test_log_every_and_final_row():
    cfg = quartic_config(K=25, log_every=10)
    res = run(cfg)
    assert [r.k for r in res.records] == [0, 10, 20, 25]


def test_gamma0_above_cap_warns_but_runs(caplog):
    cfg = quartic_config(n=20, B=3, rule="gm", K=3,
                         schedule=Schedule(kind="theoretical", gamma0=5.0, horizon=3))
    with caplog.at_level(logging.WARNING, logger="byzsim"):
        res = run(cfg)
    assert not res.diverged
    assert any("exceeds the guarantee cap" in r.message for r in caplog.records)


def test_gamma0_within_cap_is_silent(caplog):
    cfg = quartic_config(n=20, B=3, rule="gm", K=3,
                         schedule=Schedule(kind="theoretical", gamma0=0.001, horizon=3))
    with caplog.at_level(logging.WARNING, logger="byzsim"):
        run(cfg)
    assert not caplog.records


def test_config_validation():
    with pytest.raises(ConfigError):
        run(quartic_config(n=4, B=2))
    cfg = quartic_config()
    cfg.x0 = np.ones(3)
    with pytest.raises(ConfigError):
        run(cfg)
    cfg = quartic_config(attack="label_flip")
    with pytest.raises(ConfigError):
        run(cfg)
    cfg = quartic_config()
    cfg.aggregator = AggregatorSpec(rule="mean", n=5, B=0)
    with pytest.raises(ConfigError):
        run(cfg)
    with pytest.raises(ConfigError, match="oracle.labels"):
        run(softmax_config(oracle=OracleConfig(labels=())))
    with pytest.raises(ConfigError, match="unknown optimizer 'byz_nsgmd' in RunConfig"):
        run(quartic_config(optimizer="byz_nsgmd"))
    with pytest.raises(ConfigError, match="unknown init_momentum 'one'"):
        run(quartic_config(init_momentum="one"))


SOFTMAX_SPEC = ObjectiveSpec(kind="softmax", dim=12, n_classes=4, feature_dim=3,
                             feature_seed=2, samples_per_worker=10, n_workers=6)


def softmax_config(**kw):
    defaults = dict(
        objective=SOFTMAX_SPEC,
        oracle=OracleConfig(noise_variance=1e-4, shift_variance=0.0),
        n=6,
        B=2,
        attack=AttackSpec(kind="label_flip", label_shift=2),
        aggregator=AggregatorSpec(rule="cwmed", n=6, B=2),
        schedule=Schedule(kind="constant", gamma0=0.05, momentum_beta=0.9),
        optimizer="byz_nsgdm",
        K=40,
        seed=1,
        x0=np.zeros(12),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_label_flip_on_softmax_runs():
    cfg = softmax_config()
    res = run(cfg)
    assert not res.diverged
    clean = run(softmax_config(attack=AttackSpec(kind="none")))
    # poisoned gradients must actually change the trajectory
    assert res.records[-1].f_value != clean.records[-1].f_value


def test_worker_label_table_override():
    """An explicit per-worker label table reroutes honest oracles to their
    shard with those labels; label flipping then poisons the given rows."""
    from byzsim.objectives import softmax_dataset, worker_shard

    labels = softmax_dataset(SOFTMAX_SPEC)[1]
    table = tuple(
        tuple(int(v) for v in labels[worker_shard(SOFTMAX_SPEC, i)]) for i in range(6)
    )
    scrambled = tuple(
        tuple((v + i) % 4 for v in row) for i, row in enumerate(table)
    )
    base = run(softmax_config(attack=AttackSpec(kind="none")))
    with_table = run(softmax_config(attack=AttackSpec(kind="none"),
                                    oracle=OracleConfig(noise_variance=1e-4, labels=table)))
    with_scrambled = run(softmax_config(attack=AttackSpec(kind="none"),
                                        oracle=OracleConfig(noise_variance=1e-4,
                                                            labels=scrambled)))
    # shard labels match the dataset rows, but the shard-mean gradient
    # differs from the full-dataset one, and scrambling moves it further
    assert with_table.records[-1].f_value != base.records[-1].f_value
    assert with_scrambled.records[-1].f_value != with_table.records[-1].f_value
    again = run(softmax_config(attack=AttackSpec(kind="none"),
                               oracle=OracleConfig(noise_variance=1e-4, labels=table)))
    assert again.records == with_table.records


def test_label_flip_uses_table_rows_when_given():
    from byzsim.objectives import softmax_dataset, worker_shard

    labels = softmax_dataset(SOFTMAX_SPEC)[1]
    table = tuple(
        tuple(int(v) for v in labels[worker_shard(SOFTMAX_SPEC, i)]) for i in range(6)
    )
    with_table = run(softmax_config(oracle=OracleConfig(noise_variance=1e-4, labels=table)))
    without = run(softmax_config())
    assert with_table.records != without.records  # honest oracles now shard-local


# ---------------------------------------------------------------------------
# Lockstep batches: every row of run_batch equals its run alone, as the
# test-only single-run loop reference_engine.reference_run computes it.


def csv_bytes(records) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectory.csv"
        write_trajectory_csv(records, path)
        return path.read_bytes()


def assert_rows_equal_runs_alone(configs):
    batch = run_batch(configs, capture_states=True)
    assert len(batch) == len(configs)
    for config, got in zip(configs, batch):
        want = reference_run(config, capture_states=True)
        assert csv_bytes(got.records) == csv_bytes(want.records)
        assert (got.diverged, got.divergence_step) == (want.diverged, want.divergence_step)
        np.testing.assert_array_equal(got.final_x, want.final_x)
        np.testing.assert_array_equal(got.honest_shifts, want.honest_shifts)
        assert len(got.states) == len(want.states)
        assert len(got.aggregates) == len(want.aggregates)
        for a, b in zip(got.states + got.aggregates, want.states + want.aggregates):
            np.testing.assert_array_equal(a, b)
    return batch


LOCKSTEP_K = 10


def lockstep_group(family, rule, nnm, init_momentum, log_every, rows):
    """One config per row (seed, gamma0, momentum_beta, schedule kind,
    optimizer) of a quartic run under ``family`` (an attack) or of the
    softmax label-flip run with an ``oracle.labels`` table."""
    configs = []
    for seed, gamma0, beta, kind, optimizer in rows:
        schedule = Schedule(kind=kind, gamma0=gamma0, momentum_beta=beta,
                            horizon=LOCKSTEP_K if kind == "theoretical" else None)
        if family == "label_flip":
            labels = softmax_dataset(SOFTMAX_SPEC)[1]
            table = tuple(tuple((int(v) + i) % 4 for v in labels[worker_shard(SOFTMAX_SPEC, i)])
                          for i in range(6))
            config = softmax_config(
                oracle=OracleConfig(noise_variance=1e-4, labels=table),
                aggregator=AggregatorSpec(rule=rule, n=6, B=2, nnm=nnm), K=6)
        else:
            config = quartic_config(n=7, B=2, rule=rule, nnm=nnm, K=LOCKSTEP_K, dim=4,
                                    noise=1e-4, shifts=1e-3)
            config.attack = LOCKSTEP_ATTACKS[family]
        configs.append(replace(config, seed=seed, schedule=schedule, optimizer=optimizer,
                               init_momentum=init_momentum, log_every=log_every))
    return configs


LOCKSTEP_ATTACKS = {
    "none": AttackSpec(kind="none"),
    "bit_flip": AttackSpec(kind="bit_flip"),
    "bf_gradient_level": AttackSpec(kind="bit_flip", bf_gradient_level=True),
    "mimic": AttackSpec(kind="mimic", mimic_warmup=4),  # warm-up ends mid-run
    "alie": AttackSpec(kind="alie"),
}
OPTIMIZERS = ("byz_nsgdm", "baseline", "baseline_decay")
ROWS = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from([1e-3, 0.02, 0.3, 1.0]),
              st.sampled_from([0.0, 0.5, 0.9]),
              st.sampled_from(["constant", "practical_decay", "theoretical"]),
              st.sampled_from(OPTIMIZERS)),
    min_size=1, max_size=6)
# Baselines at gamma0 0.3 leave the quartic's basin within a few steps;
# the other rows finish.
MIXED_ROWS = [(0, 0.3, 0.9, "constant", "baseline"), (0, 1e-3, 0.9, "constant", "baseline"),
              (1, 0.3, 0.5, "practical_decay", "byz_nsgdm"),
              (0, 0.02, 0.0, "theoretical", "baseline_decay"),
              (2, 1.0, 0.9, "practical_decay", "baseline_decay")]


@pytest.mark.parametrize("family", [*LOCKSTEP_ATTACKS, "label_flip"])
@pytest.mark.parametrize("rule,nnm", [(rule, nnm) for nnm in (False, True) for rule in
                                      ("mean", "krum", "gm", "cwmed", "trimmed_mean")])
@settings(max_examples=3, deadline=None)
@given(rows=ROWS, init_momentum=st.sampled_from(["stochastic_gradient", "zero"]),
       log_every=st.sampled_from([1, 3]))
@example(rows=MIXED_ROWS, init_momentum="zero", log_every=1)
@example(rows=MIXED_ROWS[::-1], init_momentum="stochastic_gradient", log_every=3)
def test_lockstep_rows_equal_runs_alone(family, rule, nnm, rows, init_momentum, log_every):
    configs = lockstep_group(family, rule, nnm, init_momentum, log_every, rows)
    assert_rows_equal_runs_alone(configs)


def test_lockstep_rows_diverge_alone():
    """Rows that diverge mid-run, at the step check or at the logged
    objective value, leave the batch; the rows around them finish."""
    quartic = assert_rows_equal_runs_alone(
        lockstep_group("bit_flip", "gm", True, "stochastic_gradient", 1, MIXED_ROWS))
    assert [r.diverged for r in quartic] == [True, False, False, False, True]
    assert all(1 < r.divergence_step < LOCKSTEP_K for r in quartic if r.diverged)

    # mimic turns the mean into ascent on exp(<a, x>); the baselines then
    # overflow f at a finite iterate (gamma0 0.2, 1.0) or leave the step
    # check's range first (0.3).
    base = RunConfig(
        objective=ObjectiveSpec(kind="exponential", dim=3, direction=(0.5, -0.25, 1.0)),
        oracle=OracleConfig(), n=5, B=2, attack=AttackSpec(kind="mimic", mimic_warmup=0),
        aggregator=AggregatorSpec(rule="mean", n=5, B=2),
        schedule=Schedule(kind="constant", gamma0=0.1, momentum_beta=0.0),
        optimizer="baseline", K=30, seed=0, x0=np.zeros(3))
    configs = [replace(base, schedule=Schedule(kind="constant", gamma0=g, momentum_beta=0.0),
                       optimizer=opt)
               for g, opt in ((0.2, "baseline"), (0.1, "baseline"), (0.3, "baseline"),
                              (1.0, "baseline"), (0.1, "byz_nsgdm"))]
    with np.errstate(over="ignore", invalid="ignore"):
        exponential = assert_rows_equal_runs_alone(configs)
    assert [r.diverged for r in exponential] == [True, False, True, True, False]
    spec = base.objective
    with np.errstate(over="ignore"):
        assert [math.isfinite(value(spec, r.final_x)) for r in exponential] == [
            False, True, True, False, True]


@pytest.mark.parametrize("field,change", [
    ("K", dict(K=6)),
    ("attack", dict(attack=AttackSpec(kind="alie"))),
    ("x0", dict(x0=np.zeros(10))),
])
def test_lockstep_rejects_rows_that_differ_elsewhere(field, change):
    base = quartic_config(n=5, B=1, attack="bit_flip")
    with pytest.raises(ConfigError, match=f"not in '{field}'"):
        run_batch([base, replace(base, seed=3, **change)])


def test_empty_batch_runs_nothing():
    assert run_batch([]) == []
