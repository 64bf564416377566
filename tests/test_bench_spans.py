"""The benchmark's tracer wraps abcfde names from outside (bench/spans.py).

A rename in the library would break ``bench/run.py --trace 1`` without
any other test failing, so the names it wraps are checked here.
"""

import importlib.util
from pathlib import Path

import pytest

from abcfde.expression import BUILTINS

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve(spans):
    points = [p[:2] for p in spans.SPAN_POINTS] + [p[:2] for p in spans.LEAF_POINTS]
    assert points
    for owner, name in points:
        # the tracer replaces owner.__dict__[name], so it must live there
        assert callable(owner.__dict__.get(name)), f"{owner.__name__}.{name}"


def test_mittag_leffler_builtins_are_arity_fn_pairs(spans):
    for name in spans.ML_BUILTINS:
        arity, fn = BUILTINS[name]
        assert isinstance(arity, int) and callable(fn)
