import json
import os
import subprocess
import sys

import pytest

import omegalogic
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


def test_prop_table_large_universe_exits_cleanly(capsys):
    # 1,179 sentences: more variables than Python's default recursion limit
    code, out, _ = run(capsys, "prop-table", "--connective", "~",
                       "--atoms", "p,q", "--depth", "2", "--rules", "vI1")
    assert code == 0
    assert out.splitlines()[1:] == ["  row (T): unforced",
                                    "  row (F): unforced"]


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


def test_check_proof_rejects_a_bad_rewrite(capsys, tmp_path):
    # eqE at 0 = 0 cannot turn 0 = 0 into 0 = S(0)
    prf = tmp_path / "bad-eqe.prf"
    prf.write_text("eqE[0, 0]: (0 = S(0))\n  eqI[0]: (0 = 0)\n"
                   "  eqI[0]: (0 = 0)\n")
    code, out, _ = run(capsys, "check-proof", str(prf),
                       "--vocab", A("nat.voc"))
    assert code == 1
    assert out.startswith(f"proof {prf}: invalid")


def test_check_proof_keeps_the_eigenconstant_out_of_the_axioms(
        capsys, tmp_path):
    # forallI may not generalize the 0 of the axiom F(0)
    (tmp_path / "f.voc").write_text("sort N\nconst 0 : N\nrel F : N\n")
    (tmp_path / "f.thy").write_text("axiom F(0)\n")
    prf = tmp_path / "gen.prf"
    prf.write_text("forallI[0]: forall x:N. F(x)\n  axiom: F(0)\n")
    code, out, _ = run(capsys, "check-proof", str(prf),
                       "--vocab", str(tmp_path / "f.voc"),
                       "--theory", str(tmp_path / "f.thy"))
    assert code == 1
    assert out == (f"proof {prf}: invalid\n"
                   "  reason: eigenconstant 0 occurs in the axiom F(0)\n")


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


def test_malformed_witness_map_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.map"
    bad.write_text("# shift\npiece\nmisses D_1\n")
    code, _, err = run(capsys, "generative", A("integers.struct"),
                       "--witness", str(bad))
    assert code == 2
    assert err.startswith("omega: a piece reads") and "(line 2, col 1)" in err


def test_malformed_theory_axiom_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.thy"
    bad.write_text("theory q\n# successor\naxiom forall x:N. S(x) != \n")
    code, out, err = run(capsys, "refute", "--structure",
                         A("omega-succ.struct"), "--theory", str(bad),
                         "--fresh", "d")
    assert (code, out) == (2, "")
    assert err == "omega: unexpected end of input (line 3, col 26)\n"


@pytest.mark.parametrize("step,message", [
    ("  eqI[d]: (d = ", "unexpected end of input (line 2, col 15)"),
    ("  eqI[d, zz]: (d = d)",
     "unknown symbol or unbound variable 'zz' (line 2, col 10)"),
    ("  I_OMEGA: family=tau forall x:N. (x != )",
     "unknown symbol or unbound variable ')' (line 2, col 41)"),
    ("  family /\\{ (x != d) : x in tau tag=t",
     "malformed schema node (line 2, col 10)"),
])
def test_malformed_proof_step_exits_2(capsys, tmp_path, step, message):
    bad = tmp_path / "bad.prf"
    bad.write_text(f"negE: _|_\n{step}\n")
    code, out, err = run(capsys, "check-proof", str(bad),
                         "--vocab", A("nat-ext.voc"))
    assert (code, out) == (2, "")
    assert err == f"omega: {message}\n"


# the command lines of the README, --machine added or not
README_COMMANDS = [
    ["prop-admissible", "--atoms", "p", "--depth", "1",
     "--rules", "&I,&E1,&E2"],
    ["prop-table", "--connective", "|", "--atoms", "p,q",
     "--rules", "vI1,vI2,vE"],
    ["refute", "--structure", A("omega-succ.struct"), "--theory", A("q.thy"),
     "--fresh", "d"],
    ["check-proof", A("omega-succ-refutation.prf"), "--vocab",
     A("nat-ext.voc"), "--rules", "I_OMEGA,I_FORALL_E,eqI,negE",
     "--assume-family", "tau"],
    ["applicability", "--vocab", A("dense-order.voc"), "--schema", "I_OMEGA"],
    ["type", "--structure", A("chain3.struct"), "--tuple", "b", "--rank", "1"],
    ["atomic", "--structure", A("omega-succ.struct"), "--rank", "1"],
    ["ef", A("chain3.struct"), A("chain4.struct"), "--rounds", "3"],
    ["scott", A("chain3.struct")],
    ["generative", A("rationals.struct"), "--witness", A("q-shift.map")],
    ["morley-code", A("morley", "z-order.chg")],
    ["verify-omega", A("morley", "toy.thy"), A("morley", "toy-good.struct")],
]

# runs the commands given as JSON after allocating and partly freeing
# `argv[1]` throwaway objects of assorted sizes, which moves the addresses,
# and so the identity hashes, of every node built afterwards
_RUN_COMMANDS = """
import contextlib, io, json, sys
junk = [(object(), [None] * (i % 9), {i: i}) for i in range(int(sys.argv[1]))]
del junk[::2]
from omegalogic.cli import main
out = []
for argv in json.loads(sys.argv[2]):
    for machine in ([], ["--machine"]):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = main(machine + argv)
        out.append([code, text.getvalue()])
print(json.dumps(out))
"""


def test_readme_commands_do_not_depend_on_allocation_order():
    src = os.path.dirname(os.path.dirname(omegalogic.__file__))
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
    outputs = [subprocess.run(
        [sys.executable, "-c", _RUN_COMMANDS, str(n),
         json.dumps(README_COMMANDS)],
        env=env, capture_output=True, text=True, check=True).stdout
        for n in (0, 4000)]
    assert outputs[0] == outputs[1]
    # every command ran: only ef, which tells the chains apart, exits 1
    assert [code for code, _ in json.loads(outputs[0])] == [0] * 14 + \
        [1] * 2 + [0] * 8
