import importlib
import sys

import numpy as np
import pytest

from factorial2k import AssignmentTable, default_spec, enumerate_subsets


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


def dense_cell_rows(delta):
    """Oracle: every cell column prod_{k in S}(z_k - delta_k), intercept first, then canonically.

    The ``np.kron`` of the per-factor rows ``[[1, -delta_k], [1, 1 - delta_k]]``
    (``0.0 - d``: a zero shift gives +0.0, as z_k - delta_k does), whose
    column with bit K-1-k set holds factor k.
    """
    K = len(delta)
    X = np.ones((1, 1))
    for d in delta:
        X = np.kron(X, np.array([[1.0, 0.0 - d], [1.0, 1.0 - d]]))
    order = [0] + [sum(1 << (K - 1 - k) for k in subset) for subset in enumerate_subsets(K)]
    return X[:, order]


def spy_calls(monkeypatch, module, name):
    """Record the positional arguments of every call to ``factorial2k.<module>.<name>``.

    Modules import layer functions by name, so every factorial2k module that
    holds the function gets the recording wrapper.
    """
    original = getattr(importlib.import_module(f"factorial2k.{module}"), name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "factorial2k" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, spy)
    return calls
