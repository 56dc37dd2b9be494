"""Independent numerical certification of the library's key properties.

Every check here is an oracle that does not share code paths with the
thing it certifies: the aggregation bound is fuzzed against adversarial
inputs and checked against every admissible good-set labeling, the
smoothness inequalities are evaluated on random segments with a grid
approximation of the segment supremum, the per-step descent inequality is
re-evaluated from captured trajectories with exact values, and analytic
gradients are compared against central finite differences.

Checks return a :class:`CheckReport` (JSON-serializable) with the number
of instances, violations, and the worst margin seen; a negative worst
margin means at least one violation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .aggregators import AggregatorSpec, aggregate, base_kappa
from .core import ConfigError, RngStream
from .engine import RunConfig, RunResult, schedule_values
from .objectives import (
    ObjectiveSpec,
    OracleConfig,
    SmoothnessMeta,
    default_smoothness,
    gradient,
    local_gradient,
    make_shifts,
    value,
)

__all__ = [
    "CheckReport",
    "check_robustness",
    "check_l0l1",
    "check_descent",
    "measure_heterogeneity",
    "check_gradient",
]


@dataclass
class CheckReport:
    """Machine-readable outcome of one check."""

    name: str
    instances: int
    violations: int
    worst_margin: float
    parameters: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "parameters": self.parameters,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


@lru_cache(maxsize=32)
def _byz_subsets(n: int, B: int):
    """All size-B index subsets as an (count, B) int array."""
    combs = list(combinations(range(n), B))
    return np.array(combs, dtype=int).reshape(len(combs), B)


def _sample_subsets(n: int, B: int, count: int, true_set: np.ndarray, rng: RngStream):
    rows = [np.sort(true_set)]
    for _ in range(count - 1):
        rows.append(np.sort(rng.choice(n, B)))
    return np.unique(np.stack(rows), axis=0)


def _good_vectors(rng: RngStream, G: int, d: int) -> np.ndarray:
    family = int(rng.integers(0, 3))
    scale = 10.0 ** rng.uniform(-2.0, 1.0)
    center = rng.normal(d, std=10.0 ** rng.uniform(-1.0, 1.0))
    goods = center + scale * rng.normal(G * d).reshape(G, d)
    if family == 1 and G >= 2:
        half = G // 2
        goods[:half] += scale * 5.0 * rng.normal(d)
    elif family == 2:
        goods[int(rng.integers(0, G))] *= 100.0
    return goods


def _byz_vectors(rng: RngStream, goods: np.ndarray, B: int, d: int) -> np.ndarray:
    if B == 0:
        return np.empty((0, d))
    family = int(rng.integers(0, 5))
    vbar = goods.mean(axis=0)
    if family == 0:
        signs = np.where(rng.normal(B) >= 0, 1.0, -1.0)
        dirs = rng.normal(B * d).reshape(B, d)
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
        return 1e9 * signs[:, None] * dirs
    if family == 1:
        idx = rng.integers(0, goods.shape[0], size=B)
        return goods[np.asarray(idx)].copy()
    if family == 2:
        shift = rng.normal(d)
        shift *= 10.0 ** rng.uniform(0.0, 9.0) / max(np.linalg.norm(shift), 1e-300)
        return np.tile(vbar + shift, (B, 1))
    if family == 3:
        z = rng.uniform(0.5, 2.0)
        return np.tile(vbar + z * goods.std(axis=0), (B, 1))
    return rng.normal(B * d).reshape(B, d) * np.abs(goods - vbar).max()


def check_robustness(
    spec: AggregatorSpec,
    trials: int,
    d: int,
    rng: RngStream,
    kappa: float | None = None,
    tol_rel: float = 1e-9,
    max_labelings: int = 5000,
) -> CheckReport:
    """Fuzz the aggregation bound over adversarial instances.

    For each instance the bound is checked against every admissible
    good-set labeling of size G (sampled when their number exceeds
    ``max_labelings``). The coefficient used is, in order: the explicit
    ``kappa`` argument, the rule's closed form (composed per labeling
    with (8k+4)*alpha*C for NNM, alpha = B/(n-B), C the labeling's
    leverage constant), or nothing, in which case only the empirical
    worst ratio is recorded and no violation is counted. Tolerance is
    relative to the larger of the bound and the instance scale.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    n, B = spec.n, spec.B
    G = n - B
    kappa_base = base_kappa(spec.rule, n, B, d)
    asserted = kappa is not None or kappa_base is not None
    alpha = B / (n - B)

    if math.comb(n, B) <= max_labelings:
        subsets = _byz_subsets(n, B)
    else:
        subsets = None  # sampled per instance

    violations = 0
    worst_margin = math.inf
    kappa_emp = 0.0
    for _ in range(trials):
        goods = _good_vectors(rng, G, d)
        byz = _byz_vectors(rng, goods, B, d)
        mat = np.empty((n, d))
        byz_pos = np.sort(rng.choice(n, B)) if B > 0 else np.empty(0, dtype=int)
        good_pos = np.setdiff1d(np.arange(n), byz_pos)
        mat[good_pos] = goods
        if B > 0:
            mat[byz_pos] = byz
        agg = aggregate(spec, mat)

        subs = subsets if subsets is not None else _sample_subsets(
            n, B, max_labelings, byz_pos, rng
        )
        n_sub = subs.shape[0]
        total = mat.sum(axis=0)
        excluded = mat[subs].sum(axis=1) if B > 0 else np.zeros((n_sub, d))
        vbar = (total - excluded) / G
        dist = np.linalg.norm(mat[None, :, :] - vbar[:, None, :], axis=2)
        if B > 0:
            excl_dist = np.take_along_axis(dist, subs, axis=1)
            disp = dist.sum(axis=1) - excl_dist.sum(axis=1)
            byz_mask = np.zeros((n_sub, n), dtype=bool)
            byz_mask[np.repeat(np.arange(n_sub), B), subs.ravel()] = True
            good_max = np.where(byz_mask, -np.inf, dist).max(axis=1)
        else:
            disp = dist.sum(axis=1)
            good_max = dist.max(axis=1)
        lhs = np.linalg.norm(agg - vbar, axis=1)
        maxdev = dist.max(axis=1)

        positive = disp > 0
        ratios = np.where(positive, lhs * G / np.maximum(disp, 1e-300), 0.0)
        kappa_emp = max(kappa_emp, float(ratios.max()))

        if not asserted:
            continue
        if kappa is not None:
            kap = np.full(n_sub, kappa)
        elif spec.nnm:
            lev_c = np.where(positive, good_max * G / np.maximum(disp, 1e-300), 0.0)
            kap = (8.0 * kappa_base + 4.0) * alpha * lev_c
        else:
            kap = np.full(n_sub, kappa_base)
        rhs = np.where(positive, kap / G * disp, 0.0)
        tol = tol_rel * np.maximum(np.maximum(rhs, maxdev), 1.0)
        margins = rhs + tol - lhs
        violations += int((margins < 0).sum())
        worst_margin = min(worst_margin, float(margins.min()))

    return CheckReport(
        name=f"robustness[{spec.rule}{'+nnm' if spec.nnm else ''}]",
        instances=trials,
        violations=violations if asserted else 0,
        worst_margin=worst_margin if asserted else math.inf,
        parameters={
            "n": n,
            "B": B,
            "d": d,
            "tol_rel": tol_rel,
            "asserted": asserted,
            "kappa_theoretical": kappa if kappa is not None else kappa_base,
            "kappa_empirical": kappa_emp,
        },
    )


def _uniform_in_ball(rng: RngStream, d: int, radius: float) -> np.ndarray:
    v = rng.normal(d)
    v /= max(np.linalg.norm(v), 1e-300)
    return v * radius * rng.uniform(0.0, 1.0) ** (1.0 / d)


def _sup_grad_norm_on_segment(
    spec: ObjectiveSpec, x: np.ndarray, y: np.ndarray, grid_points: int
) -> float:
    t = np.linspace(0.0, 1.0, grid_points)
    pts = x[None, :] + t[:, None] * (y - x)[None, :]
    if spec.kind == "quartic":
        sq = np.sum(pts * pts, axis=1)
        return float(4.0 * (sq ** 1.5).max())
    return max(float(np.linalg.norm(gradient(spec, p))) for p in pts)


def check_l0l1(
    spec: ObjectiveSpec,
    meta: SmoothnessMeta,
    trials: int,
    radius: float,
    grid_points: int = 101,
    rng: RngStream | None = None,
    tol: float = 1e-9,
) -> CheckReport:
    """Test the declared (L0, L1) constants on random segments.

    Four inequalities per segment [x, y] inside the ball of the given
    radius: the segment-supremum smoothness bound (supremum approximated
    on a uniform grid), the exponential-form gradient Lipschitz bound,
    the function-value upper bound, and the gradient-norm lower bound
    against f - f*. Violations are counted at absolute-plus-relative
    tolerance ``tol``.
    """
    if grid_points < 2:
        raise ConfigError("grid_points must be >= 2")
    rng = rng or RngStream(0, 0)
    L0, L1 = meta.L0, meta.L1
    f_star = meta.f_star
    if f_star is None:
        from scipy.optimize import minimize

        res = minimize(
            lambda z: value(spec, z),
            np.zeros(spec.dim),
            jac=lambda z: gradient(spec, z),
            method="BFGS",
            options={"gtol": 1e-12, "maxiter": 1000},
        )
        f_star = float(res.fun)

    violations = 0
    worst_margin = math.inf

    def track(lhs: float, rhs: float):
        nonlocal violations, worst_margin
        margin = rhs + tol + tol * abs(rhs) - lhs
        if margin < 0:
            violations += 1
        worst_margin = min(worst_margin, margin)

    for _ in range(trials):
        x = _uniform_in_ball(rng, spec.dim, radius)
        y = _uniform_in_ball(rng, spec.dim, radius)
        gx, gy = gradient(spec, x), gradient(spec, y)
        ngx, ngy = float(np.linalg.norm(gx)), float(np.linalg.norm(gy))
        seg = float(np.linalg.norm(x - y))
        diff = float(np.linalg.norm(gx - gy))
        sup = _sup_grad_norm_on_segment(spec, x, y, grid_points)
        track(diff, (L0 + L1 * sup) * seg)
        track(diff, (L0 + L1 * ngy) * math.exp(L1 * seg) * seg)
        fx, fy = value(spec, x), value(spec, y)
        quad = (L0 + L1 * ngx) / 2.0 * math.exp(L1 * seg) * seg * seg
        track(fy, fx + float(np.dot(gx, y - x)) + quad)
        track(ngx * ngx / (4.0 * (L0 + L1 * ngx)), fx - f_star)

    return CheckReport(
        name=f"l0l1[{spec.kind}]",
        instances=trials,
        violations=violations,
        worst_margin=worst_margin,
        parameters={
            "L0": L0,
            "L1": L1,
            "radius": radius,
            "grid_points": grid_points,
            "tol": tol,
            "f_star": f_star,
        },
    )


def check_descent(
    result: RunResult,
    config: RunConfig,
    meta: SmoothnessMeta | None = None,
    tol_rel: float = 1e-7,
) -> CheckReport:
    """Re-evaluate the per-step descent inequality of the normalized
    optimizer along a captured trajectory, with exact objective values and
    gradients. Requires a run executed with ``capture_states=True``.
    """
    if result.states is None or result.aggregates is None:
        raise ConfigError("check_descent needs a run captured with capture_states=True")
    if config.optimizer != "byz_nsgdm":
        raise ConfigError("descent check applies to the normalized optimizer")
    spec = config.objective
    meta = meta or default_smoothness(spec)
    L0, L1 = meta.L0, meta.L1
    shifts = np.stack(result.honest_shifts)

    violations = 0
    worst_margin = math.inf
    steps = len(result.states) - 1
    for k in range(1, steps + 1):
        x_prev = result.states[k - 1]
        x_now = result.states[k]
        v = result.aggregates[k - 1]
        gamma = schedule_values(config.schedule, k - 1)[0]
        g_prev = gradient(spec, x_prev)
        mean_local = float(np.linalg.norm(g_prev[None, :] + shifts, axis=1).mean())
        f_prev = value(spec, x_prev)
        rhs = (
            f_prev
            - gamma * float(np.linalg.norm(g_prev))
            + 2.0 * gamma * float(np.linalg.norm(g_prev - v))
            + gamma * gamma / 2.0 * math.exp(gamma * L1) * (L0 + L1 * mean_local)
        )
        lhs = value(spec, x_now)
        scale = max(1.0, abs(f_prev), abs(rhs))
        margin = rhs + tol_rel * scale - lhs
        if margin < 0:
            violations += 1
        worst_margin = min(worst_margin, margin)

    return CheckReport(
        name="descent",
        instances=steps,
        violations=violations,
        worst_margin=worst_margin,
        parameters={"L0": L0, "L1": L1, "tol_rel": tol_rel, "K": steps},
    )


def measure_heterogeneity(
    spec: ObjectiveSpec,
    oracle: OracleConfig,
    points: int,
    rng: RngStream,
    G: int | None = None,
    shifts: list[np.ndarray] | None = None,
    radius: float = 5.0,
) -> float:
    """Empirical heterogeneity bound: the max over sampled points of the
    root-mean-square deviation of local gradients from the global one.

    Shifts may be passed explicitly; otherwise G of them are drawn and
    centered exactly as the engine does.
    """
    if points < 1:
        raise ConfigError("points must be >= 1")
    if shifts is None:
        if G is None:
            raise ConfigError("need either explicit shifts or a worker count G")
        shifts = make_shifts(rng, G, spec.dim, oracle.shift_variance)
    worst = 0.0
    for _ in range(points):
        x = _uniform_in_ball(rng, spec.dim, radius)
        g = gradient(spec, x)
        dev = [float(np.sum((local_gradient(spec, x, s) - g) ** 2)) for s in shifts]
        worst = max(worst, math.sqrt(sum(dev) / len(dev)))
    return worst


def check_gradient(
    spec: ObjectiveSpec,
    trials: int,
    h: float = 1e-5,
    rng: RngStream | None = None,
    tol: float = 1e-5,
    radius: float = 5.0,
) -> CheckReport:
    """Central finite differences against the analytic gradient.

    Per-coordinate relative error with a unit floor on the denominator:
    |fd_j - g_j| / max(1, |g_j|) must stay below ``tol``.
    """
    if h <= 0:
        raise ConfigError("h must be > 0")
    rng = rng or RngStream(0, 0)
    violations = 0
    worst_margin = math.inf
    for _ in range(trials):
        x = _uniform_in_ball(rng, spec.dim, radius)
        g = gradient(spec, x)
        fd = np.empty(spec.dim)
        for j in range(spec.dim):
            e = np.zeros(spec.dim)
            e[j] = h
            fd[j] = (value(spec, x + e) - value(spec, x - e)) / (2.0 * h)
        rel = np.abs(fd - g) / np.maximum(1.0, np.abs(g))
        margin = tol - float(rel.max())
        if margin < 0:
            violations += 1
        worst_margin = min(worst_margin, margin)
    return CheckReport(
        name=f"gradient[{spec.kind}]",
        instances=trials,
        violations=violations,
        worst_margin=worst_margin,
        parameters={"h": h, "tol": tol, "radius": radius},
    )
