import importlib
import sys

import numpy as np
import pytest

from factorial2k import AssignmentTable, default_spec


@pytest.fixture
def balanced_2x2():
    """N=8 over 2^2, cells {1,3},{2,4},{5,7},{6,10}: means (2,3,6,8)."""
    levels = np.array(
        [[0, 0], [0, 0], [0, 1], [0, 1], [1, 0], [1, 0], [1, 1], [1, 1]]
    )
    outcome = np.array([1.0, 3.0, 2.0, 4.0, 5.0, 7.0, 6.0, 10.0])
    return AssignmentTable(default_spec(2), levels, outcome)


def make_dataset(K, sizes, outcome_fn, rng=None):
    """Dataset with given per-cell sizes; outcomes from outcome_fn(cell, rng)."""
    spec = default_spec(K)
    sizes = np.asarray(sizes, dtype=np.int64)
    cells = np.repeat(np.arange(spec.Q), sizes)
    if rng is not None:
        cells = rng.permutation(cells)
    levels = ((cells[:, None] >> np.arange(K - 1, -1, -1)) & 1).astype(np.int64)
    outcome = np.array([outcome_fn(c, rng) for c in cells])
    return AssignmentTable(spec, levels, outcome)


def spy_calls(monkeypatch, module, name):
    """Count calls to ``factorial2k.<module>.<name>`` through every bound name.

    Modules import layer functions by name, so every factorial2k module that
    holds the function gets the counting wrapper.
    """
    original = getattr(importlib.import_module(f"factorial2k.{module}"), name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "factorial2k" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, spy)
    return calls
