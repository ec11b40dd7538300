"""The benchmark's per-layer trace wraps public ncagm functions by name; a
renamed function would silently drop its layer from the trace."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


@pytest.mark.parametrize("span,target", sorted(load_boundaries().items()))
def test_boundary_resolves_to_callable(span, target):
    module_name, attribute = target
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attribute, None)), f"{span}: {module_name}.{attribute}"
