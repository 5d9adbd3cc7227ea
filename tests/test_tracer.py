"""The benchmark's tracer patches fracteig functions by name.

`perfbench/tracer.py` wraps every name in its TRACED table at run time, so a
renamed or deleted function would break only traced benchmark runs.  This
check loads the tracer by path and resolves each name without running it.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for modname, names in tracer.TRACED.items():
        module = importlib.import_module(modname)
        for qualname in names:
            owner = module
            for part in qualname.split("."):
                assert hasattr(owner, part), f"{modname}.{qualname}"
                owner = getattr(owner, part)
            assert callable(owner), f"{modname}.{qualname}"
