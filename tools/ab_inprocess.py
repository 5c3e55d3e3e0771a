"""Interleaved in-process timing of two rigidwitt trees on benchmark ops.

Run from the root of a checkout, with a second checkout (say, the
parent commit) as the baseline:

    python3 tools/ab_inprocess.py BASELINE_CHECKOUT --workload dim16 \\
        --seed 1101 --batches 20 --ops 120

BASELINE_CHECKOUT/src/rigidwitt is loaded as the package ``rw_base`` and
./src/rigidwitt as ``rw_work``, side by side in one interpreter.  One
seeded op stream is drawn with the workload classes of
perfbench/worker.py (imported, not changed), and each batch of --ops
fresh ops is split by key (below): each key's ops run as a sub-batch of
their own on both trees, the order alternating from batch to batch, so
the other kinds of op in a batch do not move a key's times.  Each tree
keeps its own caches, and no op repeats, so a cache helps only within a
batch, as in a benchmark run.  The answers of the
first batch are checked on both trees by the benchmark's oracle, and
its times are left out.

Ops are keyed by kind and dimension (``pn/8``, ``pn/12``, ``c16``: the
dimension is left out where the kind names it), ``dim16`` ops also by
the GP_3 they were drawn with (``c16/k2``, ``c16/k3``), and
``search-small`` ops by base, fold and scaling (``pn/R/P3/16`` is
unscaled P_3 over R, ``pn/F3/GP2/10`` scaled GP_2 over F3), so a change
can show which dimension, field and op shape it moved.  Per key, and for all
ops together, it prints the median, quartiles, p90 and count of the
per-op times of each tree over all timed batches (a key with one timed
op: its one time), the ratio work / base of the medians, and the share
of batches whose median (and p90) each tree won.  The
last line is the same as one JSON object.  A process-level benchmark run on a shared
machine spreads more than these per-op times; this tool does not
replace it.
"""

from __future__ import annotations

import argparse
import copy
import gc
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time

ROOT = os.getcwd()
PERFBENCH = os.path.join(ROOT, "perfbench")
# workloads that run in this process (cli-oneshot spawns one per op)
KINDS = ("gp3-low", "dim16", "search-small")


def load(name: str, checkout: str):
    """rigidwitt from checkout/src, imported as the package `name`."""
    pkg = os.path.join(os.path.abspath(checkout), "src", "rigidwitt")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"),
        submodule_search_locations=[pkg])
    lib = importlib.util.module_from_spec(spec)
    sys.modules[name] = lib
    spec.loader.exec_module(lib)
    for sub in ("errors", "pfnum", "qform", "sqclass"):
        importlib.import_module(f"{name}.{sub}")
    return lib


def side(wl, lib, ops):
    """A copy of the workload that calls lib, and the ops with forms
    built from lib's own classes."""
    other = copy.copy(wl)
    other.lib = lib
    sq = lib.sqclass
    out = []
    for op in ops:
        op = copy.copy(op)
        if op.bits is not None:
            desc = sq.FieldDesc(sq.Base[op.field.desc.base.name],
                                op.field.desc.nvars)
            op.form = lib.qform.DiagonalForm(
                desc, tuple(sq.SquareClass(desc, b) for b in op.bits))
        out.append(op)
    return other, out


def run_batch(wl, ops, check: bool) -> list[float]:
    """The op times in ms; with check, every answer goes through the
    oracle first (untimed)."""
    times = []
    clock = time.perf_counter
    gc.collect()
    for op in ops:
        t0 = clock()
        answer = wl.call(op)
        t1 = clock()
        if check:
            wl.check(op, answer)
        times.append((t1 - t0) * 1e3)
    return times


def key(op) -> str:
    """The op's kind and dimension, as in pn/12 (c14 names its own),
    then the GP_3 a dim16 op was drawn with, as in c16/k3; a
    search-small op, whose arg is (base, nvars, n, unscaled), by base,
    fold and scaling before its dimension, as in pn/R/P3/16."""
    dim = str(len(op.bits))
    if isinstance(op.arg, tuple):
        base, _nvars, n, unscaled = op.arg
        return f"{op.kind}/{base}/{'P' if unscaled else 'GP'}{n}/{dim}"
    out = op.kind if dim in op.kind else f"{op.kind}/{dim}"
    return f"{out}/k{op.arg}" if isinstance(op.arg, int) else out


def p90(xs: list[float]) -> float:
    """The 90th percentile; the time itself when there is only one."""
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def stats(row: dict) -> str:
    """One tree's times of a key: median [q1, q3], p90 and the count, or
    the one time of a key with one timed op."""
    if "q1" not in row:
        return f"{row['median']:.3f} (1 op)"
    return (f"{row['median']:.3f} [{row['q1']:.3f}, {row['q3']:.3f}]"
            f" p90 {row['p90']:.3f} ({row['count']} ops)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("baseline", help="root of the baseline checkout")
    ap.add_argument("--workload", choices=KINDS, default="dim16")
    ap.add_argument("--seed", type=int, default=1101)
    ap.add_argument("--batches", type=int, default=20)
    ap.add_argument("--ops", type=int, default=120, help="ops per batch")
    args = ap.parse_args(argv)

    base, work = load("rw_base", args.baseline), load("rw_work", ROOT)
    sys.path.insert(0, PERFBENCH)
    import oracle
    import worker

    wl = worker.WORKLOADS[args.workload](args.seed)
    wl.lib, wl.oracle = work, oracle
    wl.prepare()
    wl.fill(args.ops * (args.batches + 1))
    sides = {"base": base, "work": work}
    per = {name: {} for name in sides}
    wins = {"median": {}, "p90": {}}
    for b in range(args.batches + 1):
        batch = wl.inputs[b * args.ops:(b + 1) * args.ops]
        order = ("base", "work") if b % 2 else ("work", "base")
        groups: dict[str, list] = {}
        for op in batch:
            groups.setdefault(key(op), []).append(op)
        got = {name: {"all": []} for name in order}
        for kind, ops in groups.items():
            for name in order:
                xs = run_batch(*side(wl, sides[name], ops), check=not b)
                got[name][kind] = xs
                got[name]["all"] += xs
        if not b:
            continue
        for name in sides:
            for kind, xs in got[name].items():
                per[name].setdefault(kind, []).extend(xs)
        for kind in got["work"]:
            for stat, fn in (("median", statistics.median), ("p90", p90)):
                won = fn(got["work"][kind]) < fn(got["base"][kind])
                wins[stat].setdefault(kind, []).append(won)

    report = {}
    print(f"{args.workload}, seed {args.seed}: {args.batches} timed batches"
          f" of {args.ops} ops; per-op ms, median [q1, q3]")
    width = max(map(len, per["work"]))
    for kind in sorted(per["work"]):
        row = {}
        for name in sides:
            xs = per[name][kind]
            row[name] = {"count": len(xs), "median": statistics.median(xs)}
            if len(xs) > 1:  # one timed op has no quartiles
                row[name]["q1"], _, row[name]["q3"] = quartiles(xs)
                row[name]["p90"] = p90(xs)
        row["ratio"] = row["work"]["median"] / row["base"]["median"]
        row["work_won"] = {stat: sum(w[kind]) / len(w[kind])
                           for stat, w in wins.items()}
        report[kind] = row
        print(f"  {kind:{width}} base {stats(row['base'])} | work"
              f" {stats(row['work'])} | ratio {row['ratio']:.3f}; work won"
              f" {row['work_won']['median']:.0%} of batch medians,"
              f" {row['work_won']['p90']:.0%} of batch p90s")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
