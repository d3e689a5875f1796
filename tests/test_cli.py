import json
import os

import pytest

from omegalogic.cli import main


ASSETS = os.path.join(os.path.dirname(__file__), "..", "assets")


def A(*parts):
    return os.path.join(ASSETS, *parts)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_prop_admissible_happy_path(capsys):
    code, out, _ = run(capsys, "prop-admissible", "--atoms", "p",
                       "--depth", "1", "--rules", "&I,&E1,&E2")
    assert code == 0
    assert "admissible valuations:" in out


def test_prop_admissible_machine_mirror(capsys):
    code, out, _ = run(capsys, "--machine", "prop-admissible", "--atoms", "p",
                       "--depth", "1", "--rules", "&I,&E1,&E2")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "prop-admissible"
    assert doc["bounds"] == {"proof_depth": 6}
    assert doc["universe_size"] == 12
    assert doc["admissible_count"] >= 1


def test_prop_table(capsys):
    code, out, _ = run(capsys, "--machine", "prop-table", "--connective", "&",
                       "--atoms", "p,q", "--depth", "1",
                       "--rules", "&I,&E1,&E2")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"]["T,T"] == "forced-true"
    assert doc["rows"]["T,F"] == "forced-false"


def test_refute(capsys):
    code, out, _ = run(capsys, "refute", "--structure",
                       A("omega-succ.struct"), "--theory", A("q.thy"),
                       "--fresh", "d")
    assert code == 0
    assert "negE: _|_" in out
    assert "check_derivation: valid" in out


def test_check_proof(capsys):
    code, out, _ = run(capsys, "check-proof",
                       A("omega-succ-refutation.prf"),
                       "--vocab", A("nat-ext.voc"),
                       "--rules", "I_OMEGA,I_FORALL_E,eqI,negE",
                       "--assume-family", "tau")
    assert code == 0
    assert "valid" in out


def test_applicability_pure_equality(capsys):
    code, out, _ = run(capsys, "--machine", "applicability",
                       "--vocab", A("pure-equality.voc"),
                       "--schema", "I_OMEGA")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 0
    assert "no constants" in doc["blockers"]


def test_applicability_named_constants(capsys):
    code, out, _ = run(capsys, "--machine", "applicability",
                       "--vocab", A("named-constants.voc"))
    assert code == 0
    assert json.loads(out)["count"] >= 1


def test_type(capsys):
    code, out, _ = run(capsys, "type", "--structure", A("chain3.struct"),
                       "--tuple", "b", "--rank", "1")
    assert code == 0
    assert "exists x1:S. (x1 < v0)" in out


def test_atomic_exit_codes(capsys):
    code, out, _ = run(capsys, "atomic", "--structure",
                       A("omega-succ.struct"), "--rank", "1")
    assert code == 0
    assert "atomic-at-rank" in out
    code, out, _ = run(capsys, "atomic", "--structure",
                       A("integers.struct"), "--rank", "1")
    assert code == 1


def test_ef(capsys):
    code, out, _ = run(capsys, "ef", A("chain3.struct"), A("chain4.struct"),
                       "--rounds", "3")
    assert code == 1
    assert "distinguished" in out
    code, out, _ = run(capsys, "ef", A("chain3.struct"), A("chain3.struct"),
                       "--rounds", "3")
    assert code == 0


def test_scott(capsys):
    code, out, _ = run(capsys, "scott", A("chain3.struct"))
    assert code == 0
    assert out.startswith("exists x0:S.")


def test_generative(capsys):
    code, out, _ = run(capsys, "generative", A("rationals.struct"),
                       "--witness", A("q-shift.map"), "--bound", "14")
    assert code == 0
    assert "generative" in out
    code, out, _ = run(capsys, "generative", A("omega-succ.struct"))
    assert code == 0
    assert "non-generative" in out


def test_morley_code_golden(capsys, tmp_path):
    out_file = tmp_path / "z.thy"
    code, out, _ = run(capsys, "morley-code", A("morley", "z-order.chg"),
                       "-o", str(out_file))
    assert code == 0
    with open(A("morley", "z-order.thy")) as fh:
        golden = fh.read()
    assert out_file.read_text() == golden


def test_verify_omega(capsys):
    code, out, _ = run(capsys, "verify-omega", A("morley", "toy.thy"),
                       A("morley", "toy-good.struct"))
    assert code == 0
    assert "pass" in out
    code, out, _ = run(capsys, "verify-omega", A("morley", "toy.thy"),
                       A("morley", "toy-bad.struct"))
    assert code == 1
    assert "uncoded tuple (z)" in out


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_missing_file(capsys):
    code, _, err = run(capsys, "scott", A("no-such.struct"))
    assert code == 2
    assert "cannot read" in err


def test_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.chg"
    bad.write_text("flagrantly wrong\n")
    assert run(capsys, "morley-code", str(bad))[0] == 2


def test_malformed_structure_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.struct"
    over = os.path.abspath(A("chain.voc"))
    bad.write_text(f"structure bad over {over}\ndomain S a b\n")
    code, _, err = run(capsys, "scott", str(bad))
    assert code == 2
    assert err.startswith("omega: malformed structure line") and \
        "(line 2, col 1)" in err
