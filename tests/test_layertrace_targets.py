"""The benchmark's layer trace must still find every function it wraps.

`perfbench/layertrace.py` names its targets as (module, qualified name)
strings, so renaming or deleting one of them would otherwise surface
only when the benchmark runs.  This check resolves every name the way
`Tracer.install` does, without running a workload.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    layertrace = _load_layertrace()
    missing = []
    for module_name, qualname in layertrace.TARGETS:
        owner = importlib.import_module(f"erdosavoid.{module_name}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{module_name}.{qualname}")
    assert not missing, missing

