"""Spans around the calls into rigidwitt's public functions.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds every
``rigidwitt.*`` module global that refers to it, so call sites written
as ``from .witt import value_set`` are traced too.  Spans (name, start,
end, parent) are kept in memory in flat arrays and written to an
``.npz`` file by ``Tracer.dump``; ``layer_stats`` reads such files back
and turns them into per-layer calls and self times.  A span's self time
is its duration minus the durations of its direct child spans.

Run as a script, it executes one traced command-line call:

    python3 -X importtime perfbench/tracer.py SPANS_FILE -- ARGS...
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, attribute, how the result reads as true or false)
TRACED = [
    ("witt", "value_set", None),
    ("witt", "represents", bool),
    ("witt", "anisotropic_part", None),
    ("witt", "witt_vector", None),
    ("qform", "is_isometric", bool),
    ("qform", "is_subform", bool),
    ("qform", "complement", None),
    ("sqclass", "find_basis_change", None),
    ("ideals", "extend_scalars_quadratic", None),
    ("ideals", "in_In", bool),
    ("pfnum", "pfister_number", None),
    ("pfnum", "divisible_by_pfister", lambda out: bool(out[0])),
    ("pfnum", "find_GP2_subform", None),
    ("pfnum", "classify14", None),
    ("pfnum", "classify16", None),
    ("pfnum", "PfisterCertificate.verify", bool),
    ("cli", "main", None),
]

NAMES = [f"{mod}.{attr}" for mod, attr, _ in TRACED]


class Tracer:
    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.stack = [-1]
        self.true = [0] * len(TRACED)
        self.refused = [0] * len(TRACED)

    def _wrap(self, nid: int, fn, truth):
        from rigidwitt.errors import DepthCapExceededError

        clock = time.perf_counter
        start, end, name, parent, stack = (
            self.start, self.end, self.name, self.parent, self.stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except DepthCapExceededError:
                self.refused[nid] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if truth is not None and truth(out):
                self.true[nid] += 1
            return out

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever rigidwitt refers to it."""
        import rigidwitt.cli  # noqa: F401  (loads every module)

        modules = [m for key, m in list(sys.modules.items())
                   if key == "rigidwitt" or key.startswith("rigidwitt.")]
        for nid, (mod, attr, truth) in enumerate(TRACED):
            owner = sys.modules[f"rigidwitt.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(nid, getattr(cls, meth), truth))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(nid, fn, truth)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)

    def dump(self, path: str, extra: dict) -> None:
        """Write the spans and counters out."""
        import numpy as np  # not before rigidwitt: its import is measured

        np.savez(path,
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 true=np.array(self.true), refused=np.array(self.refused),
                 extra=np.array(json.dumps(extra)))


def layer_stats(paths) -> dict:
    """Calls, self time, true and refused counts per traced name, summed
    over the span files, plus each file's ``extra`` record."""
    import numpy as np

    calls = np.zeros(len(TRACED))
    self_s = np.zeros(len(TRACED))
    true = np.zeros(len(TRACED))
    refused = np.zeros(len(TRACED))
    extras = []
    for path in paths:
        with np.load(path) as z:
            name, parent = z["name"], z["parent"]
            dur = z["end"] - z["start"]
            has_parent = parent >= 0
            child = np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=len(dur))
            calls += np.bincount(name, minlength=len(TRACED))
            self_s += np.bincount(name, weights=dur - child,
                                  minlength=len(TRACED))
            true += z["true"]
            refused += z["refused"]
            extras.append(json.loads(str(z["extra"])))
    return {
        "names": NAMES,
        "calls": calls.tolist(),
        "self_s": self_s.tolist(),
        "true": true.tolist(),
        "refused": refused.tolist(),
        "extras": extras,
    }


def cache_state() -> dict:
    """Sizes of the library's process-global caches and log."""
    from rigidwitt import pfnum, witt

    info = witt._an_bits.cache_info()
    return {"an_hits": info.hits, "an_misses": info.misses,
            "an_entries": info.currsize,
            "gen_entries": len(pfnum._GEN_CACHE),
            "result_log": len(pfnum.RESULT_LOG)}


def _traced_cli(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    from rigidwitt import cli

    try:
        code = cli.main(argv)
    finally:
        tracer.dump(spans_path, cache_state())
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: tracer.py SPANS_FILE -- ARGS...")
    sys.exit(_traced_cli(sys.argv[1], sys.argv[3:]))
