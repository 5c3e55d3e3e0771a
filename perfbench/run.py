"""The rigidwitt benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gp3-low --seed 1 --seconds 25 --trace 0

Each measurement runs in a fresh interpreter (perfbench/worker.py) that
imports rigidwitt from ./src.  A single client drives the library in a
closed loop, one op at a time; every answer is checked by the
benchmark's own oracle and the first ops of a run are compared with
the digest recorded for the seed in perfbench/digests.json.

--trace 0   end-to-end metrics of one timed run, plus the median set-up
            time of SETUP_RUNS fresh processes;
--trace 1   per-layer metrics: the digest prefix run once untraced and
            once traced, in two fresh processes;
--profile N the cProfile top N functions of the digest prefix;
--record    run the digest prefix and store its digest for the seed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
check passed, 1 when one failed (the JSON line then says correct is
false), and 2 when the checkout holds no rigidwitt sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("gp3-low", "dim16", "search-small", "cli-oneshot")
SETUP_RUNS = 3

# traced name -> the metrics reported for it
LAYERS = {
    "witt.value_set": ("calls", "self_s"),
    "witt.represents": ("calls", "self_s"),
    "witt.anisotropic_part": ("calls", "self_s"),
    "witt.witt_vector": ("calls", "self_s"),
    "qform.is_isometric": ("calls", "self_s", "true_ratio"),
    "qform.is_subform": ("calls", "self_s", "true_ratio"),
    "qform.complement": ("calls", "self_s"),
    "sqclass.find_basis_change": ("calls", "self_s"),
    "ideals.extend_scalars_quadratic": ("calls", "self_s"),
    "ideals.in_In": ("calls", "self_s"),
    "pfnum.pfister_number": ("calls", "self_s", "refused"),
    "pfnum.divisible_by_pfister": ("calls", "self_s", "true_ratio"),
    "pfnum.find_GP2_subform": ("calls", "self_s"),
    "pfnum.classify14": ("self_s",),
    "pfnum.classify16": ("self_s",),
    "pfnum.PfisterCertificate.verify": ("calls", "self_s"),
    "cli.main": ("self_s",),
}
UNITS = {"calls": "count", "self_s": "s", "true_ratio": "1",
         "refused": "count", "entries": "count", "hit_ratio": "1",
         "import_s": "s", "numpy_import_s": "s", "overhead_ratio": "1"}


def spawn(workload: str, seed: int, mode: str, seconds) -> dict:
    """Run one worker process to its end and return its result."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed % (2 ** 32)))
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, WORKER, workload, str(seed), mode, str(seconds),
         repr(started)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode:
        sys.exit(f"worker {workload}/{mode} exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1])


def compare_digest(workload: str, seed: int, res: dict) -> list[str]:
    """Problems with the prefix's answers against the recorded ones.

    A recorded refusal may turn into an answer (it has passed the
    oracle's checks); an op answered at recording must be answered now,
    with the same invariant answers.
    """
    with open(DIGESTS) as fh:
        recorded = json.load(fh).get(workload, {}).get(str(seed))
    if recorded is None:
        print(f"digest: none recorded for seed {seed}; "
              "oracle checks only", file=sys.stderr)
        return []
    newly_refused = sorted(set(res["refused"]) - set(recorded["refused"]))
    if newly_refused:
        return [f"ops {newly_refused} refused, answered when recorded"]
    if digest(res, recorded["refused"]) != recorded["digest"]:
        return [f"answers differ from the digest recorded for seed {seed}"]
    return []


def digest(res: dict, skip=()) -> str:
    """Hash of the prefix's invariant answers, leaving out ops in skip."""
    items = [item for item in res["items"] if item[0] not in skip]
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args) -> dict:
    res = spawn(args.workload, args.seed, "run", args.seconds)
    setups = [res["setup_s"]] + [
        spawn(args.workload, args.seed, "setup", 0)["setup_s"]
        for _ in range(SETUP_RUNS - 1)]
    lat_ms = [x * 1000 for x in res["latencies"]]
    p90 = percentile(lat_ms, 90)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_per_s": (res["passed"] / res["wall_s"], "ops/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "answered_ratio": (res["passed"] / res["attempted"], "1"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    print(f"latency samples: {len(lat_ms)}, beyond p90: "
          f"{sum(x > p90 for x in lat_ms)}; refused: {res['refused_total']}; "
          f"raised: {res['raised']}; set-up runs: "
          + ", ".join(f"{s:.3f}" for s in setups))
    print("library state at the end: " + ", ".join(
        f"{k} {v}" for k, v in res["state"].items()))
    return res, metrics


def per_layer(args) -> dict:
    sys.path.insert(0, HERE)
    from tracer import layer_stats

    ref = spawn(args.workload, args.seed, "prefix", 0)
    res = spawn(args.workload, args.seed, "trace", 0)
    stats = layer_stats(res["spans"])
    metrics = {}
    for name, kinds in LAYERS.items():
        i = stats["names"].index(name)
        calls = stats["calls"][i]
        values = {"calls": calls, "self_s": stats["self_s"][i],
                  "refused": stats["refused"][i],
                  "true_ratio": stats["true"][i] / calls if calls else 0.0}
        for kind in kinds:
            metrics[f"{name}.{kind}"] = values[kind]
    states = [e for e in stats["extras"] if e["an_hits"] + e["an_misses"]] \
        or stats["extras"]
    hits = sum(e["an_hits"] for e in states)
    lookups = hits + sum(e["an_misses"] for e in states)
    metrics["witt.an_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["witt.an_cache.entries"] = sum(e["an_entries"] for e in states)
    metrics["pfnum.gen_cache.entries"] = sum(e["gen_entries"] for e in states)
    imports = res.get("import_s") or []
    metrics["cli.import_s"] = statistics.median(
        [t["rigidwitt"] for t in imports]) if imports else 0.0
    metrics["cli.numpy_import_s"] = statistics.median(
        [t["numpy"] for t in imports]) if imports else 0.0
    metrics["trace.overhead_ratio"] = res["wall_s"] / ref["wall_s"] - 1
    for path in res["spans"]:
        os.remove(path)
    problems = check_pair(ref, res)
    unit = {name: UNITS[name.rsplit(".", 1)[1]] for name in metrics}
    return res, ref, problems, {k: (v, unit[k]) for k, v in metrics.items()}


def check_pair(ref: dict, res: dict) -> list[str]:
    if digest(ref) != digest(res) or ref["refused"] != res["refused"]:
        return ["traced and untraced runs gave different answers"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, metavar="N")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "rigidwitt", "__init__.py")):
        print("no rigidwitt sources under ./src; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    if args.profile is not None:
        res = spawn(args.workload, args.seed, "profile", args.profile)
        return 0 if not res["failures"] else 1
    if args.record:
        res = spawn(args.workload, args.seed, "prefix", 0)
        if res["failures"]:
            print("\n".join(res["failures"]), file=sys.stderr)
            return 1
        with open(DIGESTS) as fh:
            table = json.load(fh)
        table.setdefault(args.workload, {})[str(args.seed)] = {
            "digest": digest(res), "refused": res["refused"]}
        with open(DIGESTS, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    if args.trace:
        res, ref, problems, metrics = per_layer(args)
        runs = [ref, res]
    else:
        res, metrics = end_to_end(args)
        problems, runs = [], [res]
    for run in runs:
        problems += run["failures"] + compare_digest(args.workload,
                                                     args.seed, run)
    for line in problems[:20]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["raised"] for r in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
