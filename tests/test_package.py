"""The package's lazy export table."""

import importlib

import pytest

import plasmeig


def test_every_export_resolves_through_lazy_getattr():
    # a name left in the table after its definition is deleted would only
    # fail when a user first reaches for it
    for name, module in plasmeig._EXPORTS.items():
        value = plasmeig.__getattr__(name)
        assert value is getattr(importlib.import_module(module, "plasmeig"),
                                name)
        assert name in dir(plasmeig)
    with pytest.raises(AttributeError):
        plasmeig.__getattr__("build_dtn_for_curve")
