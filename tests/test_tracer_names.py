"""The benchmark tracer (perfbench/tracer.py) reads library names.

It wraps every function in its TRACED list and reads the library's
caches after each run, so a change that deletes one of them fails here
instead of in every benchmark run.  The tracer module is only loaded;
Tracer.install() is not called, because it rebinds library globals.
"""

import importlib
import pathlib
import types

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    """The tracer module, executed from its source (no bytecode is
    written next to it)."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_traced_names_resolve():
    tracer = _load_tracer()
    for mod, attr, _truth in tracer.TRACED:
        obj = importlib.import_module(f"rigidwitt.{mod}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{mod}.{attr}"


def test_cache_state_reads():
    state = _load_tracer().cache_state()
    assert all(isinstance(v, int) and v >= 0 for v in state.values())
