"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import worker  # noqa: E402
from oracle import CheckFailed  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_minimal_run(workload):
    out = result(bench("--workload", workload, "--seed", "0",
                       "--seconds", "1", "--trace", "0"))
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_reports_every_layer():
    out = result(bench("--workload", "search-small", "--seed", "0",
                       "--trace", "1"))
    assert out["correct"] is True
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == wanted
    assert out["metrics"]["pfnum.pfister_number.calls"]["value"] \
        == worker.SearchSmall.prefix
    assert out["metrics"]["pfnum.PfisterCertificate.verify.calls"]["value"] \
        > 0


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "gp3-low", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert set(WORKLOADS) == set(worker.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


# --- corrupted answers are caught -------------------------------------------

@pytest.fixture(scope="module")
def gp3():
    wl = worker.Gp3Low(0)
    wl.setup()
    return wl


def corrupt_cert(cert, **changes):
    from dataclasses import replace

    return replace(cert, **changes)


def test_correct_answer_passes(gp3):
    op = gp3.inputs[1]
    gp3.check(op, gp3.call(op))


def test_k_off_by_one_is_caught(gp3):
    op = gp3.inputs[1]
    k, cert = gp3.call(op)
    with pytest.raises(CheckFailed):
        gp3.check(op, (k + 1, cert))


def test_dropped_certificate_term_is_caught(gp3):
    op = gp3.inputs[1]
    k, cert = gp3.call(op)
    short = corrupt_cert(cert, terms=cert.terms[:-1])
    with pytest.raises(CheckFailed):
        gp3.check(op, (k, short))
    with pytest.raises(CheckFailed):
        gp3.check(op, (k - 1, short))


def test_wrong_term_is_caught(gp3):
    op = gp3.inputs[2]
    k, cert = gp3.call(op)
    first = cert.terms[0]
    moved = corrupt_cert(first, scalar=-first.scalar)
    with pytest.raises(CheckFailed):
        gp3.check(op, (k, corrupt_cert(cert, terms=(moved,) + cert.terms[1:])))


def test_wrong_splitting_pair_is_caught():
    wl = worker.Dim16(0)
    wl.setup()
    op = next(o for o in wl.inputs if o.kind == "c16" and o.arg == 2)
    rep = wl.call(op)
    wl.check(op, rep)
    a, b = rep["splitting_pair"]
    field = a.field
    for c in field.classes():
        if not oracle.hyperbolic_over(wl.f, op.bits, (a.bits, c.bits)):
            break
    with pytest.raises(CheckFailed):
        wl.check(op, dict(rep, splitting_pair=(a, c)))


def test_wrong_cli_output_is_caught():
    wl = worker.CliOneshot(0)
    wl.setup()
    op = wl.inputs[1]  # pfister-number --json
    out = json.loads(wl.call(op))
    wl.check(op, json.dumps(out))
    out["value"] += 1
    with pytest.raises(CheckFailed):
        wl.check(op, json.dumps(out))


def test_digest_comparison(tmp_path, monkeypatch):
    import run

    res = {"items": [[0, [2, [1, 2]]], [2, [3, [4]]]], "refused": [1]}
    path = tmp_path / "digests.json"
    path.write_text(json.dumps({"w": {"5": {
        "digest": run.digest(res), "refused": [1]}}}))
    monkeypatch.setattr(run, "DIGESTS", str(path))
    assert run.compare_digest("w", 5, res) == []
    # a recorded refusal that is answered now is accepted
    answered = {"items": res["items"] + [[1, [2, []]]], "refused": []}
    assert run.compare_digest("w", 5, answered) == []
    # an op answered at recording and refused now is not
    assert run.compare_digest("w", 5, {"items": res["items"][:1],
                                       "refused": [1, 2]})
    # nor is a different k
    changed = {"items": [[0, [3, [1, 2]]], [2, [3, [4]]]], "refused": [1]}
    assert run.compare_digest("w", 5, changed)
    assert run.compare_digest("w", 6, changed) == []  # no record


# --- the oracle agrees with the library where both apply --------------------

@pytest.mark.parametrize("base,nvars,n,unscaled", [
    ("F3", 2, 2, False), ("F3", 3, 2, True), ("R", 2, 2, False),
    ("C", 3, 3, False), ("SQUARE_MINUS_ONE", 2, 2, True)])
def test_generators_match_the_library(base, nvars, n, unscaled):
    from rigidwitt.pfnum import enumerate_GPn_classes
    from rigidwitt.sqclass import Base, FieldDesc

    desc = FieldDesc(Base[base], nvars)
    gens = oracle.Generators(oracle.Field(desc), n, unscaled)
    assert len(gens.rows) == len(enumerate_GPn_classes(desc, n, unscaled))


def test_sampler_reaches_every_class():
    import random
    from rigidwitt.sqclass import Base, FieldDesc

    for base in ("C", "SQUARE_MINUS_ONE", "F3"):
        f = oracle.Field(FieldDesc(Base[base], 3))
        rng = random.Random(0)
        assert {f.draw(rng) for _ in range(2000)} == set(f.classes)


def test_pfister_form_is_hyperbolic_over_its_slot():
    from rigidwitt.sqclass import Base, FieldDesc

    f = oracle.Field(FieldDesc(Base.F3, 3))
    form = f.pfister_bits([0b0010, 0b1001])
    assert not oracle.hyperbolic_over(f, form, ())
    assert oracle.hyperbolic_over(f, form, (0b0010,))
    assert oracle.hyperbolic_over(f, form, (0b1001,))
    assert not oracle.hyperbolic_over(f, form, (0b0100,))
