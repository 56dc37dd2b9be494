"""Byzantine-robust distributed optimization simulator.

Deterministic simulation of normalized momentum SGD with robust
aggregation under Byzantine attacks, plus a numerical verification suite
for the underlying smoothness and robustness properties.
"""

from .aggregators import AggregatorSpec, aggregate, theoretical_kappa
from .attacks import AttackSpec
from .core import ConfigError, RngStream
from .engine import RunConfig, Schedule, TrajectoryRecord, gamma0_cap, run
from .objectives import ObjectiveSpec, OracleConfig, SmoothnessMeta

__all__ = [
    "AggregatorSpec",
    "AttackSpec",
    "ConfigError",
    "ObjectiveSpec",
    "OracleConfig",
    "RngStream",
    "RunConfig",
    "Schedule",
    "SmoothnessMeta",
    "TrajectoryRecord",
    "aggregate",
    "gamma0_cap",
    "run",
    "theoretical_kappa",
]

__version__ = "0.1.0"
