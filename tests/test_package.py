import importlib

import pytest

MODULES = (
    "backflow",
    "backflow.cli",
    "backflow.diagnostics",
    "backflow.evolution",
    "backflow.linalg",
    "backflow.measure",
    "backflow.model",
    "backflow.output",
    "backflow.verify",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
