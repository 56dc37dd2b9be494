import json
import math

import numpy as np
import pytest

from byzsim.aggregators import AggregatorSpec, aggregate, base_kappa, theoretical_kappa
from byzsim.attacks import AttackSpec
from byzsim.core import ConfigError, RngStream
from byzsim.engine import RunConfig, Schedule, gamma0_cap, run
from byzsim.objectives import (
    ObjectiveSpec,
    OracleConfig,
    SmoothnessMeta,
    default_smoothness,
    gradient,
    make_shifts,
)
from byzsim.verify import (
    FUZZ_BLOCK,
    CheckReport,
    _byz_subsets,
    _byz_vectors,
    _good_vectors,
    _Score,
    check_descent,
    check_gradient,
    check_l0l1,
    check_robustness,
    heterogeneity,
)
from reference_engine import local_gradient

QUARTIC = ObjectiveSpec(kind="quartic", dim=10)


# ---------------------------------------------------------------------------
# Robustness fuzzing


@pytest.mark.parametrize("rule,nnm", [("gm", False), ("cwmed", False),
                                      ("gm", True), ("cwmed", True)])
def test_certified_rules_have_no_violations(rule, nnm):
    spec = AggregatorSpec(rule=rule, nnm=nnm)
    [rep] = check_robustness(spec, n=20, B=3, trials=500, d=10, rng=RngStream(1, 0))
    assert rep.violations == 0
    assert rep.worst_margin >= 0


def test_certified_small_configurations():
    for n, B, d in [(5, 1, 1), (7, 2, 3), (12, 5, 10)]:
        for rule in ("gm", "cwmed"):
            [rep] = check_robustness(AggregatorSpec(rule=rule), n=n, B=B, trials=300, d=d,
                                     rng=RngStream(2, n * 100 + B))
            assert rep.violations == 0, (rule, n, B, d)


def test_nnm_without_byzantines_is_exact():
    """B=0 composes to a zero coefficient: mixing maps every input to the
    global mean, so the aggregate must coincide with it."""
    for rule in ("gm", "cwmed"):
        spec = AggregatorSpec(rule=rule, nnm=True)
        [rep] = check_robustness(spec, n=6, B=0, trials=200, d=4, rng=RngStream(12, 0))
        assert rep.violations == 0, rule


def test_empirical_kappa_below_theoretical():
    spec = AggregatorSpec(rule="gm")
    [rep] = check_robustness(spec, n=20, B=3, trials=500, d=10, rng=RngStream(3, 0))
    assert rep.parameters["kappa_empirical"] <= rep.parameters["kappa_theoretical"]


def test_mean_must_violate():
    """Fuzzer sanity: the plain mean with one Byzantine slot breaks any
    finite coefficient."""
    spec = AggregatorSpec(rule="mean")
    [rep] = check_robustness(spec, n=20, B=3, trials=200, d=10, rng=RngStream(4, 0), kappa=1e6)
    assert rep.violations > 0
    assert rep.worst_margin < 0


def test_uncertified_rules_report_only():
    for rule in ("krum", "trimmed_mean"):
        spec = AggregatorSpec(rule=rule)
        [rep] = check_robustness(spec, n=20, B=3, trials=200, d=10, rng=RngStream(5, 0))
        assert rep.violations == 0  # nothing asserted
        assert not rep.parameters["asserted"]
        assert rep.parameters["kappa_empirical"] > 0


def test_too_many_labelings_rejected_before_any_draw():
    """C(30, 8) labelings are far past the cap: the check refuses before
    it draws an instance (the stand-in stream has no methods)."""
    spec = AggregatorSpec(rule="gm")
    with pytest.raises(ConfigError, match="5852925 good-set labelings"):
        check_robustness(spec, n=30, B=8, trials=10, d=4, rng=object())


def reference_check_robustness(spec, n, B, trials, d, rng, kappa=None, tol_rel=1e-9):
    """The fuzz one instance at a time, scoring the labelings from the
    whole (labelings, n, d) difference tensor, its squared coordinates
    added in order: the loop that ``check_robustness`` blocks."""
    G = n - B
    kappa_base = base_kappa(spec.rule, n, B, d)
    asserted = kappa is not None or kappa_base is not None
    subs = _byz_subsets(n, B)
    byz_mask = np.zeros((len(subs), n), dtype=bool)
    byz_mask[np.repeat(np.arange(len(subs)), B), subs.ravel()] = True
    score = _Score()
    kappa_emp = 0.0
    for _ in range(trials):
        goods = _good_vectors(rng, G, d)
        byz = _byz_vectors(rng, goods, B, d)
        mat = np.empty((n, d))
        byz_pos = np.sort(rng.choice(n, B)) if B > 0 else np.empty(0, dtype=int)
        mat[np.setdiff1d(np.arange(n), byz_pos)] = goods
        mat[byz_pos] = byz
        agg = aggregate(spec, mat, B)

        vbar = (mat.sum(axis=0) - mat[subs].sum(axis=1)) / G
        diff = mat[None, :, :] - vbar[:, None, :]
        sq = diff * diff
        dist = sq[..., 0].copy()
        for k in range(1, d):  # a running sum over the coordinates
            dist += sq[..., k]
        np.sqrt(dist, out=dist)
        disp = dist.sum(axis=1) - np.take_along_axis(dist, subs, axis=1).sum(axis=1)
        good_max = np.where(byz_mask, -np.inf, dist).max(axis=1)
        lhs = np.linalg.norm(agg - vbar, axis=1)

        positive = disp > 0
        ratios = np.where(positive, lhs * G / np.maximum(disp, 1e-300), 0.0)
        kappa_emp = max(kappa_emp, float(ratios.max()))
        if not asserted:
            continue
        lev_c = np.where(positive, good_max * G / np.maximum(disp, 1e-300), 0.0)
        kap = kappa if kappa is not None else theoretical_kappa(spec, n, B, d, lev_c)
        rhs = np.where(positive, kap / G * disp, 0.0)
        tol = tol_rel * np.maximum(np.maximum(rhs, dist.max(axis=1)), 1.0)
        score.add(rhs + tol - lhs)
    return score.report(f"robustness[{spec.name}]", trials, {
        "n": n, "B": B, "d": d, "tol_rel": tol_rel, "asserted": asserted,
        "kappa_theoretical": kappa if kappa is not None else kappa_base,
        "kappa_empirical": kappa_emp,
    })


@pytest.mark.parametrize("rule,nnm,kappa", [
    ("gm", False, None), ("cwmed", True, None), ("krum", False, None), ("mean", False, 1e6),
], ids=["gm", "cwmed+nnm", "krum", "mean-teeth"])
def test_blocked_fuzz_reports_equal_one_at_a_time(rule, nnm, kappa):
    """Blocks of instances give the reports of the one-at-a-time loop, to
    the byte, on either side of each block boundary."""
    spec = AggregatorSpec(rule=rule, nnm=nnm)
    for trials in (1, FUZZ_BLOCK - 1, FUZZ_BLOCK, FUZZ_BLOCK + 1, 150):
        [got] = check_robustness(spec, n=20, B=3, trials=trials, d=10,
                                 rng=RngStream(21, trials), kappa=kappa)
        want = reference_check_robustness(spec, 20, 3, trials, 10, RngStream(21, trials),
                                          kappa=kappa)
        assert got.to_json() == want.to_json(), trials


@pytest.mark.parametrize("n,B,d", [(7, 2, 3), (5, 1, 1), (6, 0, 4), (8, 2, 17), (12, 5, 10)])
def test_blocked_fuzz_matches_at_other_shapes(n, B, d):
    """One coordinate, a few, more than eight, and no Byzantine slots at
    all."""
    spec = AggregatorSpec(rule="gm", nnm=True)
    [got] = check_robustness(spec, n=n, B=B, trials=60, d=d, rng=RngStream(22, n))
    want = reference_check_robustness(spec, n, B, 60, d, RngStream(22, n))
    assert got.to_json() == want.to_json()


def _specs(names):
    return [AggregatorSpec(rule=name.removesuffix("+nnm"), nnm=name.endswith("+nnm"))
            for name in names]


# Every rule of the battery's stream-1 pass, asserted and reported, bare
# and NNM; an asserted rule with a reported one; every rule under one
# explicit coefficient.
SHARED_GROUPS = [
    pytest.param(("gm+nnm", "cwmed+nnm", "gm", "cwmed", "krum", "trimmed_mean"), None,
                 id="battery-stream-1"),
    pytest.param(("gm", "krum"), None, id="asserted-and-reported"),
    pytest.param(("mean", "cwmed+nnm", "trimmed_mean"), 1e6, id="explicit-kappa"),
]


def assert_shared_pass_equals_each_alone(names, kappa, n, B, d, trials, stream):
    specs = _specs(names)
    got = check_robustness(*specs, n=n, B=B, trials=trials, d=d, rng=RngStream(23, stream),
                           kappa=kappa)
    assert [rep.name for rep in got] == [f"robustness[{name}]" for name in names]
    for spec, rep in zip(specs, got):
        want = reference_check_robustness(spec, n, B, trials, d, RngStream(23, stream),
                                          kappa=kappa)
        assert rep.to_json() == want.to_json(), (spec.name, trials)


@pytest.mark.parametrize("names,kappa", SHARED_GROUPS)
@pytest.mark.parametrize("trials", [1, FUZZ_BLOCK - 1, FUZZ_BLOCK, FUZZ_BLOCK + 1, 150])
def test_shared_pass_reports_equal_each_spec_alone(names, kappa, trials):
    """Rules fuzzed in one pass get, each, the report of the one-at-a-time
    loop run for that rule alone, to the byte, on either side of each
    block boundary."""
    assert_shared_pass_equals_each_alone(names, kappa, 20, 3, 10, trials, trials)


@pytest.mark.parametrize("names,kappa", SHARED_GROUPS)
@pytest.mark.parametrize("n,B,d", [(7, 2, 3), (6, 0, 4), (8, 2, 17)])
def test_shared_pass_matches_at_other_shapes(names, kappa, n, B, d):
    assert_shared_pass_equals_each_alone(names, kappa, n, B, d, 60, n)


@pytest.mark.parametrize("n,B,match", [
    (20, -1, r"need 0 <= B < n/2, got B=-1, n=20"),
    (20, 10, r"need 0 <= B < n/2, got B=10, n=20"),
    (3, 1, r"krum needs n - B - 2 >= 1, got n=3, B=1"),
], ids=["negative", "half", "krum"])
def test_fuzz_checks_the_budget_before_any_draw(n, B, match):
    """Every spec of a pass is checked against (n, B) before an instance is
    drawn (the stand-in stream has no methods); Krum, fuzzed after gm,
    has a bound of its own."""
    specs = (AggregatorSpec(rule="gm"), AggregatorSpec(rule="krum"))
    with pytest.raises(ConfigError, match=match):
        check_robustness(*specs, n=n, B=B, trials=10, d=4, rng=object())


def test_labelings_are_read_only():
    """Every fuzz shares the cached labelings; none can write into them."""
    subs = _byz_subsets(20, 3)
    assert subs.shape == (1140, 3)
    with pytest.raises(ValueError, match="read-only"):
        subs[0, 0] = 5
    assert _byz_subsets(20, 3) is subs


def test_median_ignores_single_huge_outlier():
    spec = AggregatorSpec(rule="cwmed")
    out = aggregate(spec, np.array([[0.0], [0.0], [1e9]]), 1)
    assert out[0] == 0.0


def test_definition_bound_on_degenerate_cluster():
    """Identical good vectors with huge outliers: the aggregate must sit
    on the cluster up to the scale-aware tolerance the checker uses."""
    mat = np.zeros((20, 10))
    mat[:17] = 1.234
    mat[17:] = 1e9 / math.sqrt(10)
    for nnm in (False, True):
        agg = aggregate(AggregatorSpec(rule="gm", nnm=nnm), mat, 3)
        lhs = np.linalg.norm(agg - mat[0])
        maxdev = np.linalg.norm(mat[17] - mat[0])
        assert lhs <= 1e-9 * maxdev  # dispersion is 0, bound reduces to tolerance


def test_report_roundtrip_and_determinism():
    spec = AggregatorSpec(rule="gm")
    [rep1] = check_robustness(spec, n=8, B=2, trials=100, d=4, rng=RngStream(6, 0))
    [rep2] = check_robustness(spec, n=8, B=2, trials=100, d=4, rng=RngStream(6, 0))
    assert rep1.as_dict() == rep2.as_dict()
    parsed = json.loads(rep1.to_json())
    assert parsed["instances"] == 100
    assert parsed["name"] == "robustness[gm]"


def test_report_writes_non_finite_worst_margin_as_null():
    for worst in (math.inf, math.nan):
        rep = CheckReport("c", 1, 0, worst)
        assert json.loads(rep.to_json())["worst_margin"] is None
        assert rep.worst_margin is worst  # the report itself keeps it
    with pytest.raises(ValueError):
        CheckReport("c", 1, 0, 0.5, {"kappa": math.inf}).to_json()


# ---------------------------------------------------------------------------
# Smoothness


def test_quartic_l0l1_clean():
    rep = check_l0l1(QUARTIC, default_smoothness(QUARTIC), 1000, radius=5.0,
                     rng=RngStream(7, 0))
    assert rep.violations == 0
    assert rep.worst_margin >= 0


def test_quartic_l0l1_wrong_constants_detected():
    rep = check_l0l1(QUARTIC, SmoothnessMeta(L0=1e-6, L1=1e-6, f_star=0.0),
                     100, radius=5.0, rng=RngStream(7, 1))
    assert rep.violations > 0


def test_l0l1_degenerate_segment():
    """x == y segments hold trivially; run with radius 0 so every draw
    collapses."""
    rep = check_l0l1(QUARTIC, default_smoothness(QUARTIC), 10, radius=0.0,
                     rng=RngStream(7, 2))
    assert rep.violations == 0


def test_exponential_l0l1():
    spec = ObjectiveSpec(kind="exponential", dim=4, direction=(0.3, -0.2, 0.1, 0.4))
    rep = check_l0l1(spec, default_smoothness(spec), 500, radius=3.0,
                     rng=RngStream(7, 3))
    assert rep.violations == 0


def test_l0l1_needs_known_minimum():
    """The gradient-norm lower bound needs f*; softmax declares none."""
    spec = ObjectiveSpec(kind="softmax", dim=15, n_classes=3, feature_dim=5, feature_seed=7,
                         samples_per_worker=20, n_workers=5)
    assert default_smoothness(spec).f_star is None
    with pytest.raises(ConfigError, match="needs a known minimum f_star"):
        check_l0l1(spec, default_smoothness(spec), 10, radius=1.0, rng=RngStream(7, 4))


# ---------------------------------------------------------------------------
# Gradients


@pytest.mark.parametrize("spec", [
    QUARTIC,
    ObjectiveSpec(kind="exponential", dim=3, direction=(0.5, -0.25, 1.0)),
    ObjectiveSpec(kind="softmax", dim=15, n_classes=3, feature_dim=5,
                  feature_seed=7, samples_per_worker=20, n_workers=5),
], ids=lambda s: s.kind)
def test_check_gradient_passes(spec):
    rep = check_gradient(spec, 30, rng=RngStream(8, 0))
    assert rep.violations == 0


def test_nan_margins_are_violations():
    """Far from the origin the exponential overflows: the finite
    differences of 4 of these 20 points are NaN, and each is a violation
    that leaves the worst margin NaN."""
    spec = ObjectiveSpec(kind="exponential", dim=3, direction=(0.5, -0.25, 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        rep = check_gradient(spec, 20, rng=RngStream(1, 5), radius=2000.0)
    assert rep.violations >= 4
    assert math.isnan(rep.worst_margin)
    score = _Score()
    score.add([1.0, float("nan"), -2.0])
    score.add([3.0])
    assert score.violations == 2 and math.isnan(score.worst)


def test_check_gradient_at_origin():
    rep = check_gradient(QUARTIC, 5, rng=RngStream(8, 1), radius=0.0)
    assert rep.violations == 0


# ---------------------------------------------------------------------------
# Descent


def descent_config(**kw):
    defaults = dict(
        objective=QUARTIC,
        oracle=OracleConfig(noise_variance=0.0, shift_variance=0.0),
        n=1,
        B=0,
        attack=AttackSpec(kind="none"),
        aggregator=AggregatorSpec(rule="mean"),
        schedule=Schedule(kind="constant", gamma0=0.01, momentum_beta=0.9),
        optimizer="byz_nsgdm",
        K=200,
        seed=0,
        x0=np.ones(10),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_descent_noiseless_single_worker():
    cfg = descent_config()
    res = run(cfg, capture_states=True)
    rep = check_descent(res, cfg)
    assert rep.violations == 0
    assert rep.instances == 200


def test_descent_under_attack_within_cap():
    kappa = theoretical_kappa(AggregatorSpec(rule="gm"), 20, 3, d=10)
    cap = gamma0_cap(3.0, kappa, 300)
    cfg = descent_config(
        n=20, B=3,
        oracle=OracleConfig(noise_variance=1e-5, shift_variance=1e-3),
        attack=AttackSpec(kind="bit_flip"),
        aggregator=AggregatorSpec(rule="gm", nnm=True),
        schedule=Schedule(kind="constant", gamma0=min(0.01, cap), momentum_beta=0.9),
        K=300, seed=2,
    )
    res = run(cfg, capture_states=True)
    rep = check_descent(res, cfg)
    assert rep.violations == 0


def test_descent_zero_step_iterations():
    """Starting at the stationary point with no noise keeps the aggregate
    at zero; the inequality still holds on every (zero) step."""
    cfg = descent_config(x0=np.zeros(10), K=10)
    res = run(cfg, capture_states=True)
    assert all(r.step_size == 0.0 for r in res.records[1:])
    rep = check_descent(res, cfg)
    assert rep.violations == 0


def test_descent_requires_capture():
    cfg = descent_config(K=5)
    res = run(cfg)
    with pytest.raises(ConfigError):
        check_descent(res, cfg)


# ---------------------------------------------------------------------------
# Heterogeneity


def test_heterogeneity_zero_shifts():
    assert heterogeneity(make_shifts(RngStream(9, 0), 4, 10, 0.0)) == 0.0


def test_heterogeneity_explicit_shifts():
    s = np.zeros(10)
    s[0] = 1.0
    assert heterogeneity([s, -s]) == pytest.approx(1.0)


def test_heterogeneity_matches_rms_of_shifts():
    """The RMS of the shifts is the heterogeneity of the local gradients
    at any point: grad f_i - grad f = s_i everywhere."""
    shifts = make_shifts(RngStream(9, 2), 8, 10, 1e-3)
    rng = np.random.default_rng(3)
    for x in rng.normal(size=(7, 10)) * 2.0:
        g = gradient(QUARTIC, x)
        dev = [np.sum((local_gradient(QUARTIC, x, s) - g) ** 2) for s in shifts]
        assert math.sqrt(np.mean(dev)) == pytest.approx(heterogeneity(shifts), rel=1e-12)
