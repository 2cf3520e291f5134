"""The benchmark's span tracer must still find what it rebinds.

`benchmarks/spans.py` reads `overlap_integrals`' `n_radial` default at
import and wraps each traced function at the module attributes that
call it.  A renamed keyword kills every traced run at import; a moved
function silently reads zero calls.  Both show up here first.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_module_imports(spans):
    assert spans._QUAD_FIRST_RADIAL > 0


def test_every_span_target_is_bound_at_its_sites(spans):
    for name, (original, sites) in spans.SPANS.items():
        for module, attr in sites:
            assert getattr(module, attr, None) is original, (
                f"{name}: {module.__name__}.{attr} no longer refers to it")
