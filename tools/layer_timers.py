"""Per-call timers on rigidwitt layers, two trees interleaved op by op.

Run from the root of a checkout, with a second checkout (say, the
parent commit) as the baseline:

    python3 tools/layer_timers.py BASELINE_CHECKOUT --workload gp3-low \\
        --ops 800

Both trees are loaded side by side as in tools/ab_inprocess.py, and
the ops are drawn with the benchmark's seed 1101.  Each layer in
LAYERS, a function that rigidwitt.pfnum calls through its module
globals, is wrapped by a timer there.  Each of ROUNDS rounds clears the
library caches, builds the ops' forms afresh, and runs each op on both
trees, alternating which goes first, so both see the same machine
state.  Only the last round is reported: per layer (a tensor reduction
also by dimension and by whether it factored, a certificate also by the
kind of op that built it, as in _certificate/c14, a generator search by
fold, k and scaling, as in _search_sum/P3/k3 for unscaled P_3 at k = 3
and _search_sum/GP2/k4 for scaled GP_2 at k = 4, the H-index support
test of the two-term split by outcome, as in _may_split/reject, and
the orthogonal decomposition by dimension and outcome, as in
_orthogonal_terms/d16/none for a 16-entry form with no split; a call
the decomposition makes to itself is timed on its own too, inside its
caller's time; a layer a tree lacks is not timed there), the median
per-call time in microseconds on each tree, their ratio, and the calls
per op of that kind on each tree.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time

from ab_inprocess import KINDS, PERFBENCH, ROOT, load, side

LAYERS = ("in_In", "anisotropic_part", "_certificate", "_tensor_reduction",
          "_biquadratic_splitting", "find_GP2_subform", "_search_sum",
          "_may_split", "_orthogonal_terms")
ROUNDS = 3
SEED = 1101


def label(name: str, args: tuple, out, kind: str) -> str:
    if name == "_tensor_reduction":
        return f"{name}/d{len(args[1])}/{'hit' if out else 'miss'}"
    if name == "_certificate":
        return f"{name}/{kind}"
    if name == "_search_sum":
        _field, _bits, n, k, unscaled = args
        return f"{name}/{'P' if unscaled else 'GP'}{n}/k{k}"
    if name == "_may_split":
        return f"{name}/{'pass' if out else 'reject'}"
    if name == "_orthogonal_terms":
        return f"{name}/d{len(args[1])}/{'none' if out is None else 'split'}"
    return name


def wrap(lib, name: str, record: dict, current: list) -> None:
    """Time every call pfnum makes to its global `name`, if the tree
    has it; current[0] is the kind of the op running."""
    fn = getattr(lib.pfnum, name, None)
    if fn is None:
        return
    clock = time.perf_counter

    def timed(*args, **kwargs):
        t0 = clock()
        out = fn(*args, **kwargs)
        elapsed = clock() - t0
        record.setdefault(label(name, args, out, current[0]), []).append(
            elapsed * 1e6)
        return out

    setattr(lib.pfnum, name, timed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("baseline", help="root of the baseline checkout")
    ap.add_argument("--workload", choices=KINDS, default="gp3-low")
    ap.add_argument("--ops", type=int, default=800)
    args = ap.parse_args(argv)

    libs = {"base": load("rw_base", args.baseline),
            "work": load("rw_work", ROOT)}
    sys.path.insert(0, PERFBENCH)
    import oracle
    import worker

    wl = worker.WORKLOADS[args.workload](SEED)
    wl.lib, wl.oracle = libs["work"], oracle
    wl.prepare()
    wl.fill(args.ops)
    records = {name: {} for name in libs}
    current = [""]
    for name, lib in libs.items():
        for layer in LAYERS:
            wrap(lib, layer, records[name], current)
    for r in range(ROUNDS):
        sides = {}
        for name, lib in libs.items():
            records[name].clear()
            lib.witt._an_bits.cache_clear()
            lib.pfnum._GEN_CACHE.clear()
            sides[name] = side(wl, lib, wl.inputs)
        gc.collect()
        for i in range(len(wl.inputs)):
            order = ("base", "work") if (i + r) % 2 else ("work", "base")
            current[0] = wl.inputs[i].kind
            for name in order:
                other, ops = sides[name]
                try:
                    other.call(ops[i])
                except libs[name].errors.DepthCapExceededError:
                    pass

    ops = {}
    for op in wl.inputs:
        ops[op.kind] = ops.get(op.kind, 0) + 1
    print(f"{args.workload}, seed {SEED}: {args.ops} ops ({ops}), last of"
          f" {ROUNDS} rounds; median us per call, calls per op")
    for key in sorted(set(records["base"]) | set(records["work"])):
        base, work = (records[name].get(key, []) for name in libs)
        med = [statistics.median(xs) if xs else 0.0 for xs in (base, work)]
        ratio = f"{med[1] / med[0]:.3f}" if med[0] and med[1] else "-"
        per = ops.get(key.rsplit("/", 1)[-1], len(wl.inputs))
        print(f"  {key:32} base {med[0]:8.2f} | work {med[1]:8.2f}"
              f" | ratio {ratio} | calls per op {len(base) / per:.2f}"
              f" / {len(work) / per:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
