"""The e2e benchmark's traced pass wraps library callables *by name*.

``benchmarks/e2e/trace.py`` lists ``(owner, attribute)`` pairs and patches
them where they are looked up; a rename inside ``src/`` would otherwise
surface only as an ``AttributeError`` in the benchmark's traced round, long
after tier-1 went green.  This suite reads that list (it edits nothing
there) and resolves every entry the way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.format.codecs import available_codecs, get_codec

TRACE_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "trace.py"


def _trace_module():
    spec = importlib.util.spec_from_file_location("e2e_trace_under_test", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACE = _trace_module()


@pytest.mark.parametrize(
    "owner,attr", [(owner, attr) for owner, attr, _metric in TRACE.WRAPS]
)
def test_wrap_target_resolves(owner, attr):
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    if cls:
        target = getattr(target, cls)
    assert callable(getattr(target, attr)), f"{owner}.{attr} is not callable"


@pytest.mark.parametrize("name", available_codecs())
def test_codec_class_has_decode(name):
    """The tracer wraps ``decode`` on the class of the dataset's codec."""
    assert callable(getattr(type(get_codec(name)), "decode"))
