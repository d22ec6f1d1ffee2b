import importlib
import os

import pytest

MODULES = (
    "nonlocal_bbm",
    "nonlocal_bbm.constants",
    "nonlocal_bbm.fields",
    "nonlocal_bbm.quadrature",
    "nonlocal_bbm.operators",
    "nonlocal_bbm.limits",
)


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def test_benchmark_tracer_entry_points_resolve(monkeypatch):
    # the benchmark's per-layer tracer wraps private entry points by name and
    # parameter; installing it fails on any that was renamed or removed
    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bbmbench")
    monkeypatch.syspath_prepend(bench)
    layers = importlib.import_module("layers")
    tracer = layers.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
