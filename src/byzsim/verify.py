"""Independent numerical certification of the library's key properties.

Every check here is an oracle that does not share code paths with the
thing it certifies: the aggregation bound is fuzzed against adversarial
inputs and checked against every admissible good-set labeling, the
smoothness inequalities are evaluated on random segments with a grid
approximation of the segment supremum, the per-step descent inequality is
re-evaluated from captured trajectories with exact values, and analytic
gradients are compared against central finite differences.

Checks return a :class:`CheckReport` with the number of instances,
violations, and the worst margin seen, written as strict (RFC 8259) JSON:
a worst margin that is not finite is written as null. Every check scores
its margins the same way (``_Score``): a violation is a margin that is
negative or NaN, and the worst margin is the smallest one (NaN once any
margin is NaN), so a negative or NaN worst margin means at least one
violation.

The robustness fuzz certifies several rules in one pass over one stream:
it draws its instances ``FUZZ_BLOCK`` at a time, in the order one at a
time would draw them, and aggregates each block with one call per rule
on its (T, n, d) array: every rule takes that leading batch axis and
gives each instance the bits it gets alone. It then scores each
instance's C(n, B) labelings once, one coordinate at a time, adding the
d squared coordinates as a running sum into one (n, labelings)
accumulator allocated once per check, without the (labelings, n, d)
difference tensor. Only the distance of each rule's aggregate to the
good means differs between the rules, so each rule's report equals the
one a pass of its own would give, byte for byte.

Heterogeneity needs no sampling. A worker's local gradient is
grad f(x) + s_i, so grad f_i(x) - grad f(x) = s_i at every x, and the
heterogeneity zeta = sqrt(mean_i |grad f_i - grad f|^2) is exactly the
root mean square of the shifts (``heterogeneity``).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .aggregators import AggregatorSpec, aggregate, base_kappa, check_budget, theoretical_kappa
from .core import ConfigError, RngStream, dot, norms
from .engine import RunConfig, RunResult, schedule_values
from .objectives import ObjectiveSpec, SmoothnessMeta, default_smoothness, gradient, value

__all__ = [
    "CheckReport",
    "check_robustness",
    "check_l0l1",
    "check_descent",
    "heterogeneity",
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

    def as_dict(self) -> dict:
        """The report as strict JSON holds it: a worst margin that is not
        finite (infinite with no margins, NaN after a NaN margin) is None."""
        d = asdict(self)
        if not math.isfinite(d["worst_margin"]):
            d["worst_margin"] = None
        return d

    def to_json(self) -> str:
        """RFC 8259 JSON: a NaN or infinity anywhere raises ValueError."""
        return json.dumps(self.as_dict(), sort_keys=True, allow_nan=False)


class _Score:
    """Violations and worst margin of every margin handed to ``add``: the
    count of margins that are negative or NaN, and their minimum (NaN once
    any margin is NaN). A check adds its margins as it makes them, so a
    large fuzz never holds them all at once."""

    def __init__(self):
        self.violations = 0
        self.worst = math.inf

    def add(self, margins) -> None:
        margins = np.asarray(margins, dtype=float)
        # NaN fails ``>= 0`` and wins np.minimum; ``< 0`` and min() let it pass.
        self.violations += int(np.count_nonzero(~(margins >= 0)))
        self.worst = float(np.minimum(self.worst, margins.min()))

    def report(self, name: str, instances: int, parameters: dict) -> CheckReport:
        return CheckReport(name, instances, self.violations, self.worst, parameters)


# The robustness fuzz checks every labeling; C(20, 3) = 1140 is the most
# any caller uses.
MAX_LABELINGS = 5000
# Fuzz instances drawn and aggregated at once. The pairwise differences
# of a block take FUZZ_BLOCK x n(n-1)/2 x d floats (0.76 MB at n=20,
# d=10); its largest temporary is NNM's neighbour gather, FUZZ_BLOCK x
# (n - B) x n x d floats (1.4 MB at B=3). The accumulator and scratch
# buffer of ``_Labelings`` take 2 x n x C(n, B) floats (0.36 MB at n=20,
# B=3) whatever the block.
FUZZ_BLOCK = 50


@lru_cache(maxsize=32)
def _byz_subsets(n: int, B: int) -> np.ndarray:
    """All size-B index subsets as a (count, B) int array. Every caller
    shares it, so it is read-only."""
    combs = list(combinations(range(n), B))
    subs = np.array(combs, dtype=int).reshape(len(combs), B)
    subs.flags.writeable = False
    return subs


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
        dirs /= np.maximum(norms(dirs), 1e-300)[:, None]
        return 1e9 * signs[:, None] * dirs
    if family == 1:
        idx = rng.integers(0, goods.shape[0], size=B)
        return goods[np.asarray(idx)].copy()
    if family == 2:
        shift = rng.normal(d)
        shift *= 10.0 ** rng.uniform(0.0, 9.0) / max(norms(shift), 1e-300)
        return np.tile(vbar + shift, (B, 1))
    if family == 3:
        z = rng.uniform(0.5, 2.0)
        return np.tile(vbar + z * goods.std(axis=0), (B, 1))
    return rng.normal(B * d).reshape(B, d) * np.abs(goods - vbar).max()


def _instance(rng: RngStream, n: int, B: int, d: int) -> np.ndarray:
    """One adversarial (n, d) instance: good rows, Byzantine rows and the
    Byzantine positions, drawn in that order."""
    goods = _good_vectors(rng, n - B, d)
    byz = _byz_vectors(rng, goods, B, d)
    good = np.ones(n, dtype=bool)
    if B > 0:
        good[rng.choice(n, B)] = False
    mat = np.empty((n, d))
    mat[good] = goods
    mat[~good] = byz
    return mat


class _Labelings:
    """Every good-set labeling of an (n, d) instance, scored one coordinate
    at a time: the distance of row i to the good mean of labeling s adds
    its d squared coordinates as a running sum, into an (n, labelings)
    accumulator that, with one scratch buffer of its size, is allocated
    once per check."""

    def __init__(self, n: int, B: int):
        self.subs = _byz_subsets(n, B)
        S = len(self.subs)
        # Flat indices of each labeling's Byzantine rows into an (S, n)
        # array and into an (n, S) array.
        self.byz_by_labeling = self.subs + n * np.arange(S)[:, None]
        self.byz_by_row = self.subs.T * S + np.arange(S)
        self.acc = np.empty((n, S))
        self.tmp = np.empty((n, S))

    def score(self, mat: np.ndarray):
        """Per labeling: the good dispersion, the largest good distance,
        the largest distance over all rows, and the (labelings, d) good
        means."""
        subs = self.subs
        G = len(mat) - subs.shape[1]
        vbar = (mat.sum(axis=0) - mat.take(subs.T, axis=0).sum(axis=0)) / G
        mat_t, vbar_t = mat.T, np.ascontiguousarray(vbar.T)

        def square(k, out):
            np.copyto(out, vbar_t[k])
            np.subtract(mat_t[k][:, None], out, out=out)
            return np.multiply(out, out, out=out)

        square(0, self.acc)
        for k in range(1, mat.shape[1]):
            self.acc += square(k, self.tmp)
        dist = np.sqrt(self.acc, out=self.acc)
        by_labeling = np.ascontiguousarray(dist.T)
        disp = by_labeling.sum(axis=1) - by_labeling.take(self.byz_by_labeling).sum(axis=1)
        np.copyto(self.tmp, dist)
        np.put(self.tmp, self.byz_by_row, -np.inf)
        return disp, self.tmp.max(axis=0), dist.max(axis=0), vbar


def check_robustness(
    *specs: AggregatorSpec,
    n: int,
    B: int,
    trials: int,
    d: int,
    rng: RngStream,
    kappa: float | None = None,
    tol_rel: float = 1e-9,
) -> list[CheckReport]:
    """Fuzz the aggregation bound of each spec on n inputs with Byzantine
    budget B over the same adversarial instances; one report per spec, in
    spec order.

    For each instance the bound is checked against every admissible
    good-set labeling of size G; more than ``MAX_LABELINGS`` of them is
    an error. The coefficient used is, in order: the explicit ``kappa``
    argument, the rule's closed form (``theoretical_kappa``, given each
    labeling's leverage constant C for NNM), or nothing, in which case
    only the empirical worst ratio is recorded and no violation is
    counted. Tolerance is relative to the larger of the bound and the
    instance scale.

    Instances are drawn ``FUZZ_BLOCK`` at a time, in the order one at a
    time would draw them, and each block is aggregated by one call per
    spec on its (T, n, d) array; the rules give each instance the bits it
    gets alone. Each instance's labelings are scored once for every spec,
    and what depends on the instance alone (the good means, dispersions,
    leverage constants and the tolerance's scale floor) is computed once
    per instance; only the distance of a spec's aggregate to the good
    means, and its bound, are per spec. So a spec's report does not
    depend on the specs fuzzed with it, asserted or reported, and a
    reported rule costs only its aggregation and that distance.
    """
    if not specs:
        raise ConfigError("check_robustness needs at least one aggregator spec")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    for spec in specs:
        check_budget(spec.rule, n, B)
    if math.comb(n, B) > MAX_LABELINGS:
        raise ConfigError(f"n={n}, B={B} has {math.comb(n, B)} good-set labelings, "
                          f"more than the {MAX_LABELINGS} the fuzz checks")
    G = n - B
    coefficients = [kappa if kappa is not None else base_kappa(spec.rule, n, B, d)
                    for spec in specs]
    labelings = _Labelings(n, B)

    scores = [_Score() for _ in specs]
    kappa_emp = [0.0] * len(specs)
    for start in range(0, trials, FUZZ_BLOCK):
        mats = np.stack([_instance(rng, n, B, d)
                         for _ in range(min(FUZZ_BLOCK, trials - start))])
        aggs = [aggregate(spec, mats, B) for spec in specs]
        for t, mat in enumerate(mats):
            disp, good_max, dist_max, vbar = labelings.score(mat)
            positive = disp > 0
            safe_disp = np.maximum(disp, 1e-300)
            lev_c = np.where(positive, good_max * G / safe_disp, 0.0)
            tol_floor = np.maximum(dist_max, 1.0)
            for j, spec in enumerate(specs):
                lhs = norms(aggs[j][t] - vbar)
                ratios = np.where(positive, lhs * G / safe_disp, 0.0)
                kappa_emp[j] = max(kappa_emp[j], float(ratios.max()))
                if coefficients[j] is None:
                    continue
                kap = kappa if kappa is not None else theoretical_kappa(spec, n, B, d, lev_c)
                rhs = np.where(positive, kap / G * disp, 0.0)
                tol = tol_rel * np.maximum(rhs, tol_floor)
                scores[j].add(rhs + tol - lhs)

    return [
        score.report(f"robustness[{spec.name}]", trials, {
            "n": n,
            "B": B,
            "d": d,
            "tol_rel": tol_rel,
            "asserted": coefficient is not None,
            "kappa_theoretical": coefficient,
            "kappa_empirical": emp,
        })
        for spec, coefficient, score, emp in zip(specs, coefficients, scores, kappa_emp)
    ]


def _uniform_in_ball(rng: RngStream, d: int, radius: float) -> np.ndarray:
    v = rng.normal(d)
    v /= max(norms(v), 1e-300)
    return v * radius * rng.uniform(0.0, 1.0) ** (1.0 / d)


def _sup_grad_norm_on_segment(
    spec: ObjectiveSpec, x: np.ndarray, y: np.ndarray, grid_points: int
) -> float:
    t = np.linspace(0.0, 1.0, grid_points)
    pts = x[None, :] + t[:, None] * (y - x)[None, :]
    if spec.kind == "quartic":
        return float(4.0 * (dot(pts, pts) ** 1.5).max())
    return float(norms(gradient(spec, pts)).max())


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
    against f - f*, so ``meta`` must give f*. Violations are counted at
    absolute-plus-relative tolerance ``tol``.
    """
    if grid_points < 2:
        raise ConfigError("grid_points must be >= 2")
    if meta.f_star is None:
        raise ConfigError("check_l0l1 needs a known minimum f_star")
    rng = rng or RngStream(0, 0)
    L0, L1, f_star = meta.L0, meta.L1, meta.f_star

    score = _Score()
    for _ in range(trials):
        x = _uniform_in_ball(rng, spec.dim, radius)
        y = _uniform_in_ball(rng, spec.dim, radius)
        gx, gy = gradient(spec, x), gradient(spec, y)
        ngx, ngy = float(norms(gx)), float(norms(gy))
        seg, diff = float(norms(x - y)), float(norms(gx - gy))
        sup = _sup_grad_norm_on_segment(spec, x, y, grid_points)
        fx, fy = value(spec, x), value(spec, y)
        quad = (L0 + L1 * ngx) / 2.0 * math.exp(L1 * seg) * seg * seg
        pairs = (  # (lhs, rhs) of each inequality
            (diff, (L0 + L1 * sup) * seg),
            (diff, (L0 + L1 * ngy) * math.exp(L1 * seg) * seg),
            (fy, fx + float(dot(gx, y - x)) + quad),
            (ngx * ngx / (4.0 * (L0 + L1 * ngx)), fx - f_star),
        )
        score.add([rhs + tol + tol * abs(rhs) - lhs for lhs, rhs in pairs])

    return score.report(
        f"l0l1[{spec.kind}]",
        trials,
        {
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

    score = _Score()
    steps = len(result.states) - 1
    # f and the gradient at every captured iterate, one call each.
    states = np.array(result.states)
    f, grads = value(spec, states).tolist(), gradient(spec, states[:-1])
    for k in range(1, steps + 1):
        v = result.aggregates[k - 1]
        gamma = schedule_values(config.schedule, k - 1)[0]
        g_prev = grads[k - 1]
        mean_local = float(norms(g_prev + result.honest_shifts).mean())
        f_prev = f[k - 1]
        rhs = (
            f_prev
            - gamma * float(norms(g_prev))
            + 2.0 * gamma * float(norms(g_prev - v))
            + gamma * gamma / 2.0 * math.exp(gamma * L1) * (L0 + L1 * mean_local)
        )
        scale = max(1.0, abs(f_prev), abs(rhs))
        score.add(rhs + tol_rel * scale - f[k])

    return score.report("descent", steps, {"L0": L0, "L1": L1, "tol_rel": tol_rel, "K": steps})


def heterogeneity(shifts) -> float:
    """Heterogeneity zeta of workers with the given (G, d) shifts: the root
    mean square of the shifts, which is exactly
    sqrt(mean_i |grad f_i(x) - grad f(x)|^2) at every x."""
    shifts = np.asarray(shifts, dtype=float)
    return math.sqrt(float(np.mean(dot(shifts, shifts))))


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
    score = _Score()
    for _ in range(trials):
        x = _uniform_in_ball(rng, spec.dim, radius)
        g = gradient(spec, x)
        # All 2 dim probes x + h e_j and x - h e_j in one call.
        step = h * np.eye(spec.dim)
        f = value(spec, np.concatenate((x + step, x - step)))
        fd = (f[:spec.dim] - f[spec.dim:]) / (2.0 * h)
        rel = np.abs(fd - g) / np.maximum(1.0, np.abs(g))
        score.add(tol - float(rel.max()))
    return score.report(f"gradient[{spec.kind}]", trials, {"h": h, "tol": tol, "radius": radius})
