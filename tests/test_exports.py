import importlib

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
