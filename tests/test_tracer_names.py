"""Every function that ``perfbench/tracer.py`` spans or counts still
exists. The tracer reports a deleted function as missing instead of
failing, so without this check a deletion would show up only in the
perfbench smoke run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [entry[:2] for entry in tracer.SPANNED + tracer.COUNTED]


@pytest.mark.parametrize("module, name", traced_names())
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module("coopeig." + module), name, None))
