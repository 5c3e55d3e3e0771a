"""CLI plumbing: subcommands, exit codes, output formats."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import rigidwitt
from rigidwitt.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pfister_number_command(capsys):
    code, out, _ = run(capsys, "pfister-number", "--field", "F3[t1,t2]",
                       "--form", "<1,t1,t2,t1*t2>", "--n", "2")
    assert code == 0
    assert "GP_2 = 1" in out
    assert "<<" in out  # certificate term printed


def test_pfister_number_json_schema(capsys):
    code, out, _ = run(capsys, "pfister-number", "--field", "F3[t1,t2]",
                       "--form", "<<t1,t2>>", "--n", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["value"] == 1
    assert payload["certificate"]["fold"] == 2


def test_analyze_hyperbolic(capsys):
    code, out, _ = run(capsys, "analyze", "--field", "R[]",
                       "--form", "<1,-1>")
    assert code == 0
    assert "witt index: 1" in out
    assert "anisotropic part: <>" in out


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "--field", "F3[t1]",
                       "--form", "<1,t1>", "--json")
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["dim"] == 2
    assert payload["witt_index"] == 0


def test_bounds_csv(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "3", "--dmax", "16")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "d,bound"
    assert rows[-1] == "16,3"


@pytest.mark.parametrize("argv", [("--n", "4", "--dmax", "-2"),
                                  ("--n", "1", "--dmax", "8")],
                         ids=["dmax", "n"])
def test_bounds_rejects_bad_arguments(capsys, argv):
    # a negative --dmax is a usage error, as a negative --dims is for
    # tabulate, not an empty table
    code, out, err = run(capsys, "bounds", *argv)
    assert code == 1
    assert err.startswith("usage error:") and not out


def test_tabulate_csv(capsys):
    code, out, _ = run(capsys, "tabulate", "--field", "F3[t1,t2]",
                       "--n", "2", "--dims", "4", "--samples", "5",
                       "--seed", "1")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "dim,samples,max_gp"
    assert rows[1] == "4,5,1"


@pytest.mark.parametrize("bad", [("--dims=-2", "--samples", "1"),
                                 ("--dims", "4,x", "--samples", "1"),
                                 ("--dims", "4", "--samples", "-3"),
                                 ("--dims", "4", "--samples", "0")])
def test_tabulate_rejects_bad_counts(capsys, bad):
    code, out, err = run(capsys, "tabulate", "--field", "F3[t1]",
                         "--n", "2", *bad)
    assert code == 1
    assert err.startswith("usage error:") and not out


def test_decompose_command(capsys):
    code, out, _ = run(capsys, "decompose", "--field", "F3[t1,t2]",
                       "--form", "<1,t1,t2,t1*t2>", "--at", "t1")
    assert code == 0
    assert "t: t1" in out
    assert "tau: <1,t2>" in out


def test_classify_command(capsys):
    import random

    from rigidwitt.pfnum import random_In_form
    from rigidwitt.qform import format_form
    from rigidwitt.sqclass import Base, FieldDesc

    phi = random_In_form(FieldDesc(Base.F3, 5), 3, 14, random.Random(8))
    code, out, _ = run(capsys, "classify", "--field", "F3[t1,t2,t3,t4,t5]",
                       "--form", format_form(phi), "--dim", "14")
    assert code == 0
    assert "GP_3 = 2" in out


def test_exit_code_usage(capsys):
    code, _, err = run(capsys, "bogus-subcommand")
    assert code == 1


def test_exit_code_parse(capsys):
    code, _, err = run(capsys, "analyze", "--field", "F3[t1]",
                       "--form", "<t9>")
    assert code == 2
    assert "parse error" in err


def test_exit_code_precondition(capsys):
    code, _, err = run(capsys, "pfister-number", "--field", "F3[t1]",
                       "--form", "<1,t1>", "--n", "2")
    assert code == 3


def test_exit_code_depth_cap(capsys):
    code, _, err = run(capsys, "pfister-number", "--field", "F3[t1,t2,t3,t4]",
                       "--form", "<1,t1,t2,t3,t4,-t1*t2*t3*t4>", "--n", "2",
                       "--depth-cap", "1")
    assert code == 4
    assert "depth cap exceeded: the Pfister number exceeds depth_cap = 1" \
        in err


def test_negative_depth_cap_is_a_usage_error(capsys):
    for form in ("<1,t1,t2,t1*t2>", "<>"):
        code, out, err = run(capsys, "pfister-number", "--field", "F3[t1,t2]",
                             "--form", form, "--n", "2", "--depth-cap", "-1")
        assert code == 1
        assert err.startswith("usage error:") and not out


# Two GP_4 forms of dimension 30 over R[t1..t5], where the 4-fold
# generators are over the search budget (random_In_form draws with
# random.Random(4) and random.Random(0)).  The linkage rule decides
# k = 2 on its own: the first is two terms; the second is not, so it is
# refused at k = 3.
_GP4_TWO = (
    "<t2,t2,t2,t2,t2,t2*t3,t2*t3,t2*t3,t1*t2*t3,t4,t4,t4,t4,t1*t2*t4,"
    "t3*t4,t3*t4,t3*t4,t3*t4,t2*t3*t4,t2*t5,t1*t2*t3*t5,t1*t2*t4*t5,"
    "t2*t3*t4*t5,-t1*t2,-t2*t4,-t1*t2*t3*t4,-t1*t2*t5,-t2*t3*t5,-t2*t4*t5,"
    "-t1*t2*t3*t4*t5>")
_GP4_MORE = (
    "<t2,t3,t2*t3,t1*t4,t1*t2*t3*t4,t1*t2*t3*t4,t1*t2*t3*t4,t5,t2*t5,"
    "t1*t2*t5,t1*t2*t5,t3*t5,t1*t4*t5,t1*t2*t4*t5,t1*t3*t4*t5,-1,-t1*t2,"
    "-t1*t2,-t2*t4,-t2*t4,-t1*t2*t4,-t1*t3*t4,-t1*t5,-t1*t5,-t2*t3*t5,"
    "-t1*t2*t3*t5,-t1*t2*t3*t5,-t3*t4*t5,-t3*t4*t5,-t1*t2*t3*t4*t5>")


def test_pfister_number_gp4_below_32(capsys):
    field = "R[t1,t2,t3,t4,t5]"
    code, out, _ = run(capsys, "pfister-number", "--field", field,
                       "--form", _GP4_TWO, "--n", "4", "--json")
    assert code == 0 and json.loads(out)["value"] == 2
    code, _, err = run(capsys, "pfister-number", "--field", field,
                       "--form", _GP4_MORE, "--n", "4", "--json")
    assert code == 4 and "whether 3 terms suffice" in err


@pytest.mark.parametrize("argv", [
    ("bounds", "--n", "5", "--dmax", "64"),
    ("pfister-number", "--field", "R[t1,t2,t3,t4,t5]", "--form", _GP4_TWO,
     "--n", "4", "--json"),
], ids=["bounds", "pfister-number"])
def test_cold_start_skips_fractions(argv):
    # a cold process computes the n >= 4 bound in integers: fractions
    # is never imported
    src = pathlib.Path(rigidwitt.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "rigidwitt", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    imported = {line.rsplit("|", 1)[1].strip()
                for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert "rigidwitt.pfnum" in imported
    assert "fractions" not in imported


# A three-term GP_3 form of dimension 20 over F3[t1..t6], where the 3-fold
# Pfister classes are over the build budget (random_In_form draw with
# random.Random(20)).  The extension rule answers k = 3 with no
# generator set.
_GP3_D20_T6 = (
    "<t2*t3,t1*t2*t3,t2*t4,t2*t4,t2*t5,t2*t3*t5,t1*t2*t3*t5,t1*t2*t3*t4*t5,"
    "t1*t2*t3*t6,t2*t4*t6,t2*t3*t4*t6,t1*t2*t5*t6,-t2,-t4,-t1*t2*t4*t5,"
    "-t3*t4*t5,-t4*t6,-t2*t5*t6,-t2*t3*t5*t6,-t3*t4*t5*t6>")


def test_pfister_number_gp3_above_the_generator_budget(capsys):
    code, out, _ = run(capsys, "pfister-number", "--field",
                       "F3[t1,t2,t3,t4,t5,t6]", "--form", _GP3_D20_T6,
                       "--n", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 3 and len(payload["certificate"]["terms"]) == 3


def test_verify_suites(capsys):
    code, out, _ = run(capsys, "verify", "roundtrip", "--seed", "3")
    assert code == 0
    assert "roundtrip: ok" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 1


def test_verify_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "identities", "--seed", "5",
                         "--json")
    code2, out2, _ = run(capsys, "verify", "identities", "--seed", "5",
                         "--json")
    assert (code1, out1) == (code2, out2)


def test_classify16_json_payload(capsys, raw_field):
    # the splitting pair and the certificate are checked in the conftest
    # group ring, which shares no code with the library's routes
    import random

    from rigidwitt.pfnum import random_In_form
    from rigidwitt.qform import format_form
    from rigidwitt.sqclass import Base, FieldDesc, parse_square_class

    field = FieldDesc(Base.F3, 5)
    raw = raw_field(field)
    rng = random.Random(16)
    for _ in range(3):
        phi = random_In_form(field, 3, 16, rng)
        bits = [e.bits for e in phi.entries]
        code, out, _ = run(capsys, "classify", "--field", str(field),
                           "--form", format_form(phi), "--dim", "16",
                           "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1 and payload["dim"] == 16
        assert payload["gp3"] <= 3 and len(payload["gp2_decomposition"]) == 4

        def cls(text):
            return parse_square_class(text, field).bits

        a, b = map(cls, payload["splitting_pair"])
        assert raw.hyperbolic_over(bits, (a, b))
        terms = payload["certificate"]["terms"]
        assert len(terms) == payload["gp3"]
        total = raw.vector([])
        for term in terms:
            total = raw.add(total, raw.vector(raw.pfister_bits(
                cls(term["scalar"]), [cls(s) for s in term["slots"]])))
        assert total == raw.vector(bits)


@pytest.mark.parametrize("suite", ["oracles", "all"])
def test_verify_oracles_and_all(capsys, suite):
    code, out, _ = run(capsys, "verify", suite, "--seed", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    names = ["identities", "oracles", "roundtrip"] if suite == "all" \
        else ["oracles"]
    assert sorted(payload["suites"]) == names


@pytest.mark.parametrize("n", [2, 4, 5, 6])
def test_bounds_rows(capsys, n, poly_bound):
    from rigidwitt.pfnum import two_pfister_bound

    code, out, _ = run(capsys, "bounds", "--n", str(n), "--dmax", "24")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "d,bound"
    for d in range(0, 25, 2):
        bound = two_pfister_bound(d) if n == 2 else poly_bound(n, d)
        assert rows[1 + d // 2] == f"{d},{bound}"
