"""Per-layer timing of byzsim from outside the program.

A traced round replaces each public function listed in ``TARGETS`` by a
timing wrapper, in the namespace where its callers look the name up (for
example ``byzsim.engine.aggregate``, not ``byzsim.aggregators.aggregate``,
because the engine imported the name), and puts the original back when
the round ends. A wrapper records calls, total time and self time (its
time minus the time of wrapped calls made inside it). A name the program
no longer has is recorded as absent and its metrics read 0.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from collections import defaultdict

# Rule names as metric suffixes: "gm_nnm", never "gm+nnm".
RULE_KEYS = ("mean", "krum", "gm", "cwmed", "trimmed_mean", "krum_nnm", "gm_nnm", "cwmed_nnm")


def rule_key(spec) -> str:
    return spec.rule + ("_nnm" if spec.nnm else "")


def _spec_rule(args, kwargs):
    return rule_key(kwargs.get("spec", args[0] if args else None))


# (module, attribute path, layer name, key function or None). Several
# entries may share a layer name; their figures are summed.
TARGETS = (
    ("byzsim.core", "RngStream.normal", "core.RngStream.normal", None),
    ("byzsim.engine", "gradient", "objectives.gradient", None),
    ("byzsim.engine", "gradient_with_labels", "objectives.gradient_with_labels", None),
    ("byzsim.engine", "value", "objectives.value", None),
    ("byzsim.verify", "gradient", "objectives.gradient", None),
    ("byzsim.verify", "value", "objectives.value", None),
    ("byzsim.attacks", "AttackContext.from_honest", "attacks.AttackContext.from_honest", None),
    ("byzsim.engine", "byzantine_update", "attacks.byzantine_update", None),
    ("byzsim.engine", "aggregate", "engine.aggregate", _spec_rule),
    ("byzsim.verify", "aggregate", "verify.aggregate", _spec_rule),
    ("byzsim.aggregators", "nnm_transform", "aggregators.nnm_transform", None),
    ("byzsim.aggregators", "geometric_median", "aggregators.geometric_median", None),
    ("byzsim.aggregators", "krum", "aggregators.krum", None),
    ("byzsim.aggregators", "coordinate_median", "aggregators.coordinate_median", None),
    ("byzsim.aggregators", "trimmed_mean", "aggregators.trimmed_mean", None),
    ("byzsim", "run", "engine.run", None),
    ("byzsim.cli", "run", "engine.run", None),
    ("byzsim.harness", "run", "engine.run", None),
    ("byzsim.harness", "tune_gamma0", "harness.tune_gamma0", None),
    ("byzsim.harness", "run_sweep", "harness.run_sweep", None),
    ("byzsim.harness", "write_trajectory_csv", "harness.write_trajectory_csv", None),
    ("byzsim.cli", "check_robustness", "verify.check_robustness", _spec_rule),
    ("byzsim.cli", "check_l0l1", "verify.check_l0l1", None),
    ("byzsim.cli", "check_gradient", "verify.check_gradient", None),
    ("byzsim.cli", "check_descent", "verify.check_descent", None),
)


class Stat:
    __slots__ = ("calls", "seconds", "self_seconds", "units")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.units = 0  # Weiszfeld passes, or fuzz instances


class Tracer:
    """Accumulates per-layer figures over every round it is installed for."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.absent: set[str] = set()
        self.rounds = 0
        self._child_time: list[float] = []

    def _wrap(self, fn, layer, key_fn, units_fn=None):
        def wrapper(*args, **kwargs):
            key = layer
            if key_fn is not None:
                key = f"{layer}.{key_fn(args, kwargs)}"
            self._child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += dt
                st = self.stats[key]
                st.calls += 1
                st.seconds += dt
                st.self_seconds += dt - children
            if units_fn is not None:
                out = units_fn(st, args, kwargs, out)
            return out

        return wrapper

    def _wrapper_for(self, owner, name, layer, key_fn):
        fn = getattr(owner, name)
        if layer == "aggregators.geometric_median" and "return_history" in inspect.signature(fn).parameters:
            # Count Weiszfeld passes through the public history option.
            def with_history(*args, **kwargs):
                if kwargs.get("return_history"):
                    return fn(*args, **kwargs)
                return fn(*args, **kwargs, return_history=True)

            def passes(st, args, kwargs, out):
                y, history = out
                st.units += len(history) - 1
                return out if kwargs.get("return_history") else y

            return self._wrap(with_history, layer, key_fn, passes)
        if layer == "verify.check_robustness":
            def instances(st, args, kwargs, out):
                st.units += kwargs.get("trials", args[1] if len(args) > 1 else 0)
                return out

            return self._wrap(fn, layer, key_fn, instances)
        wrapped = self._wrap(fn, layer, key_fn)
        if inspect.isclass(owner) and isinstance(inspect.getattr_static(owner, name), classmethod):
            return staticmethod(wrapped)  # fn is already bound to the class
        return wrapped

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of one round."""
        saved = []
        try:
            for module_name, path, layer, key_fn in TARGETS:
                try:
                    owner = importlib.import_module(module_name)
                    *outer, name = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    original = inspect.getattr_static(owner, name)
                except (ImportError, AttributeError):
                    self.absent.add(f"{module_name}.{path}")
                    continue
                wrapper = self._wrapper_for(owner, name, layer, key_fn)
                setattr(owner, name, wrapper)
                saved.append((owner, name, original))
            yield self
            self.rounds += 1
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    # -- reading figures --------------------------------------------------

    def _sum(self, *keys) -> Stat:
        total = Stat()
        for key in keys:
            st = self.stats.get(key)
            if st is not None:
                total.calls += st.calls
                total.seconds += st.seconds
                total.self_seconds += st.self_seconds
                total.units += st.units
        return total

    def metrics(self, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: counts per traced round, times per call."""
        rounds = max(self.rounds, 1)

        def per_round(st):
            return st.calls / rounds

        def us(st):
            return st.seconds / st.calls * 1e6 if st.calls else 0.0

        def secs(st):
            return st.seconds / st.calls if st.calls else 0.0

        out: dict[str, tuple[float, str]] = {}
        for layer in ("core.RngStream.normal", "objectives.gradient",
                      "objectives.gradient_with_labels", "objectives.value",
                      "attacks.byzantine_update"):
            st = self._sum(layer)
            out[f"{layer}.calls"] = (per_round(st), "count")
            out[f"{layer}.us_per_call"] = (us(st), "us")
        out["attacks.AttackContext.from_honest.us_per_call"] = (
            us(self._sum("attacks.AttackContext.from_honest")), "us")

        for rule in RULE_KEYS:
            st = self._sum(f"engine.aggregate.{rule}", f"verify.aggregate.{rule}")
            out[f"aggregators.aggregate.calls.{rule}"] = (per_round(st), "count")
            out[f"aggregators.aggregate.us_per_call.{rule}"] = (us(st), "us")
        for name in ("nnm_transform", "geometric_median", "krum",
                     "coordinate_median", "trimmed_mean"):
            out[f"aggregators.{name}.us_per_call"] = (us(self._sum(f"aggregators.{name}")), "us")
        gm = self._sum("aggregators.geometric_median")
        out["aggregators.geometric_median.passes_per_call"] = (
            gm.units / gm.calls if gm.calls else 0.0, "count")

        run = self._sum("engine.run")
        out["engine.run.calls"] = (per_round(run), "count")
        engine_side = [k for k in self.stats if k.startswith("engine.aggregate.")]
        out["engine.steps"] = (per_round(self._sum(*engine_side)), "count")
        out["engine.run.self_s"] = (run.self_seconds / run.calls if run.calls else 0.0, "s")

        for name in ("tune_gamma0", "run_sweep", "write_trajectory_csv"):
            out[f"harness.{name}.s"] = (secs(self._sum(f"harness.{name}")), "s")
        for rule in ("gm", "cwmed", "gm_nnm", "cwmed_nnm", "krum", "trimmed_mean", "mean"):
            st = self._sum(f"verify.check_robustness.{rule}")
            out[f"verify.check_robustness.us_per_instance.{rule}"] = (
                st.seconds / st.units * 1e6 if st.units else 0.0, "us")
        for name in ("check_l0l1", "check_gradient", "check_descent"):
            out[f"verify.{name}.s"] = (secs(self._sum(f"verify.{name}")), "s")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out
