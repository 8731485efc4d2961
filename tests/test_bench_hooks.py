"""The benchmark under bench/ wraps treefed functions it names by module and
attribute path. A rename or move that breaks one of those hooks would break
only the benchmark, so every hook is resolved here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import treefed.engine
import treefed.tensors

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def traced_hooks():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.PATCHES


@pytest.mark.parametrize("module, path, span", traced_hooks())
def test_traced_hook_resolves_to_callable(module, path, span):
    target = importlib.import_module(module)
    for attr in path.split("."):
        target = getattr(target, attr)
    assert callable(target), f"{module}.{path} (span {span}) is not callable"


def test_tensor_count_and_round_clock_hooks_exist():
    # bench/tracing.py counts Tensor constructions; bench/hostclock.py cuts
    # untraced runs into rounds at evaluate_round
    assert isinstance(treefed.tensors.Tensor, type)
    assert callable(treefed.engine.evaluate_round)
