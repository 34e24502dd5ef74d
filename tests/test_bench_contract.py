"""The names the benchmark's traced pass and its checks rely on.

``bench/tracing.py`` rebinds package functions by (module, attribute); a
renamed layer would otherwise drop out of ``bench/run.py --trace 1``
silently.  The module is loaded by path and only read.
"""

import importlib
import types
from pathlib import Path

import pytest

import factorial2k
from factorial2k.contrasts import contrast_matrix
from factorial2k.weighting import equal_scheme

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    # executed from source so that no bytecode cache is written under bench/
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def _resolve(module_name, attr):
    obj = importlib.import_module(f"factorial2k.{module_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize(
    "module_name, attr", [(m, a) for m, a, _ in _load_tracing().TARGETS]
)
def test_trace_target_resolves(module_name, attr):
    assert callable(_resolve(module_name, attr))


def test_contrast_sweep_and_reference_names():
    assert contrast_matrix(equal_scheme(3), 3).matrix.shape == (7, 8)
    assert factorial2k.regression.IDENTITY_RTOL > 0
