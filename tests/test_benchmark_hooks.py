"""The benchmark's tracer wraps package functions by module and name.

A refactor that renames, moves or privatises one of them would leave its
layer untraced and its metrics at zero without any error, so every name
the tracer hooks must resolve in the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_tables():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {**module.TRACED, **module.COUNTED}


@pytest.mark.parametrize("module_name, path", sorted(_tracer_tables()))
def test_traced_name_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{module_name}.{path}: no attribute {part!r}"
        owner = getattr(owner, part)
    assert callable(owner), f"{module_name}.{path} is not callable"
