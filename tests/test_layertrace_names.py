"""The benchmark's per-layer tracer looks coxmap functions up by name.

``coxbench/layertrace.py`` is not part of this suite, so a renamed library
function would only show up when the benchmark runs.  This test imports the
tracer and requires every name it wraps to resolve.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "coxbench" / "layertrace.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    assert layertrace.LAYERS
    for module_name, functions in layertrace.LAYERS.values():
        module = importlib.import_module(module_name)
        for name, _ in functions:
            owner = module
            for part in name.split("."):
                assert hasattr(owner, part), "%s.%s" % (module_name, name)
                owner = getattr(owner, part)
            assert callable(owner), "%s.%s" % (module_name, name)
