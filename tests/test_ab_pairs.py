import importlib.util
import math
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
SPEC = importlib.util.spec_from_file_location("ab_pairs", PATH)
ab_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab_pairs)


@pytest.mark.parametrize("parent,change,rel", [
    (2.0, 2.5, 0.25), (2.0, 1.5, -0.25), (3.0, 3.0, 0.0), (0.0, 0.0, 0.0),
    (0.0, 1.0, math.inf), (0.0, -1.0, -math.inf),
])
def test_relative_change_of_the_medians(parent, change, rel):
    assert ab_pairs.relative_change(parent, change) == rel


@pytest.mark.parametrize("rel,better,bound,flagged", [
    (0.26, "lower", 0.25, True),  # a time up by more than its bound
    (0.25, "lower", 0.25, False),  # at the bound is within it
    (-0.9, "lower", 0.25, False),  # faster is never a regression
    (-0.26, "higher", 0.25, True),  # a rate down by more than its bound
    (0.9, "higher", 0.25, False),
    (5.0, "lower", None, False),  # a per-layer metric has no bound
])
def test_past_bound_only_in_the_worse_direction(rel, better, bound, flagged):
    assert ab_pairs.past_bound(rel, better, bound) is flagged
