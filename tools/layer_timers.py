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
also by dimension and by whether it factored), the median per-call
time in microseconds on each tree and their ratio.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time

from ab_inprocess import KINDS, PERFBENCH, ROOT, load, side

LAYERS = ("in_In", "anisotropic_part", "_certificate", "_tensor_reduction")
ROUNDS = 3
SEED = 1101


def label(name: str, args: tuple, out) -> str:
    if name == "_tensor_reduction":
        return f"{name}/d{len(args[1])}/{'hit' if out else 'miss'}"
    return name


def wrap(lib, name: str, record: dict) -> None:
    """Time every call pfnum makes to its global `name`."""
    fn = getattr(lib.pfnum, name)
    clock = time.perf_counter

    def timed(*args, **kwargs):
        t0 = clock()
        out = fn(*args, **kwargs)
        elapsed = clock() - t0
        record.setdefault(label(name, args, out), []).append(elapsed * 1e6)
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
    for name, lib in libs.items():
        for layer in LAYERS:
            wrap(lib, layer, records[name])
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
            for name in order:
                other, ops = sides[name]
                try:
                    other.call(ops[i])
                except libs[name].errors.DepthCapExceededError:
                    pass

    print(f"{args.workload}, seed {SEED}: {args.ops} ops, last of"
          f" {ROUNDS} rounds; median us per call")
    for key in sorted(records["work"]):
        base = statistics.median(records["base"].get(key, [0.0]))
        work = statistics.median(records["work"][key])
        ratio = f"{work / base:.3f}" if base else "-"
        print(f"  {key:32} base {base:8.2f} | work {work:8.2f}"
              f" | ratio {ratio} ({len(records['work'][key])} calls)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
