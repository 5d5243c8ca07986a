import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.ENTRY_POINTS


@pytest.mark.parametrize("name, module, attr", _entry_points())
def test_traced_entry_point_resolves(name, module, attr):
    # a renamed or removed entry point stops the traced benchmark run
    assert callable(getattr(importlib.import_module(module), attr)), name
