"""CLI plumbing: subcommands, exit codes, output formats."""

import json

import pytest

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
