"""Every name a package exports resolves, so no export list keeps a deleted name."""

import importlib

import pytest

PACKAGES = [
    "repro.nn",
    "repro.optim",
    "repro.data",
    "repro.core",
    "repro.runtime",
    "repro.compress",
    "repro.eval",
    "repro.serve",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
