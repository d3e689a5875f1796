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


def golden(name):
    with open(A("golden", name), newline="") as fh:
        return fh.read()


def check_golden(capsys, monkeypatch, name, machine, argv, exit_code):
    """`argv`, run from the repository root with `--machine` or not, prints
    the golden file `name` (`.json` or `.txt`), nothing on standard error,
    and exits with `exit_code`."""
    monkeypatch.chdir(os.path.join(ASSETS, ".."))
    code, out, err = run(capsys, *["--machine"] * machine, *argv)
    assert (out, err) == (golden(f"{name}.{'json' if machine else 'txt'}"),
                          "")
    assert code == exit_code


def test_prop_admissible_happy_path(capsys):
    code, out, _ = run(capsys, "prop-admissible", "--atoms", "p",
                       "--depth", "1", "--rules", "&I,&E1,&E2")
    assert code == 0
    assert "admissible valuations: 256 (proof depth 6)" in out.splitlines()
    assert out == golden("prop-admissible.txt")


def test_prop_admissible_machine_mirror(capsys):
    code, out, _ = run(capsys, "--machine", "prop-admissible", "--atoms", "p",
                       "--depth", "1", "--rules", "&I,&E1,&E2")
    assert code == 0
    assert out == golden("prop-admissible.json")
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


def test_type_of_a_pair_on_a_finite_structure(capsys):
    code, out, _ = run(capsys, "type", "--structure", A("chain3.struct"),
                       "--tuple", "a, c", "--rank", "0")
    assert code == 0
    assert "rank-0 type of (a, c) in chain3:" in out
    assert "(v0 < v1)" in out and "~(v1 < v0)" in out


def test_type_of_members_with_two_indices(capsys):
    """The tuple is split at top-level commas only, so `D[1,2]` is one
    rationals member."""
    code, out, err = run(capsys, "type", "--structure",
                         A("rationals.struct"), "--tuple", "D[1,2]",
                         "--rank", "0")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "rank-0 type of (D[1,2]) in rationals: 1 formulas", "  ~(v0 < v0)"]
    code, out, _ = run(capsys, "--machine", "type", "--structure",
                       A("rationals.struct"), "--tuple", "D[1,2],D[1,3]",
                       "--rank", "0")
    assert code == 0
    assert "(v1 < v0)" in json.loads(out)["formulas"]


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


# `omega ef` output written by the tree before the signatures read facts
# through index readers; 4-vs-3 at 3 rounds repeats conjuncts (ROADMAP 15)
EF_GOLDEN = [("chain3", "chain4", 1), ("chain3", "chain4", 3),
             ("chain3", "chain4", 4), ("chain4", "chain3", 3)]


@pytest.mark.parametrize("a,b,rounds", EF_GOLDEN)
@pytest.mark.parametrize("machine", [False, True])
def test_ef_golden(capsys, a, b, rounds, machine):
    argv = ["--machine"] * machine + ["ef", A(f"{a}.struct"),
                                      A(f"{b}.struct"), "--rounds",
                                      str(rounds)]
    code, out, err = run(capsys, *argv)
    name = f"ef-{a}-{b}-r{rounds}.{'json' if machine else 'txt'}"
    assert (out, err) == (golden(name), "")
    assert code == (rounds > 2)


# the presentation-side README commands, run from the repository root as
# the README writes them, since the text names the files given; written by
# the tree before presentation atoms called their deciders directly
PRESENTATION_GOLDEN = {
    "refute-omega-succ": ["refute", "--structure", "assets/omega-succ.struct",
                          "--theory", "assets/q.thy", "--fresh", "d"],
    "check-proof-omega-succ": [
        "check-proof", "assets/omega-succ-refutation.prf", "--vocab",
        "assets/nat-ext.voc", "--rules", "I_OMEGA,I_FORALL_E,eqI,negE",
        "--assume-family", "tau"],
    "generative-rationals": ["generative", "assets/rationals.struct",
                             "--witness", "assets/q-shift.map"],
    "applicability-dense-order": ["applicability", "--vocab",
                                  "assets/dense-order.voc", "--schema",
                                  "I_OMEGA"],
    "atomic-omega-succ-r1": ["atomic", "--structure",
                             "assets/omega-succ.struct", "--rank", "1"],
}


@pytest.mark.parametrize("name", sorted(PRESENTATION_GOLDEN))
@pytest.mark.parametrize("machine", [False, True])
def test_presentation_golden(capsys, monkeypatch, name, machine):
    check_golden(capsys, monkeypatch, name, machine, PRESENTATION_GOLDEN[name],
                 0)


# the finite-side README commands, run from the repository root; written by
# the tree before rule instances kept compiled plans and `is_atomic` kept
# one truth table per call
FINITE_GOLDEN = {
    "type-chain3-b-r1": (["type", "--structure", "assets/chain3.struct",
                          "--tuple", "b", "--rank", "1"], 0),
    "scott-chain3": (["scott", "assets/chain3.struct"], 0),
    "verify-omega-toy-good": (["verify-omega", "assets/morley/toy.thy",
                               "assets/morley/toy-good.struct"], 0),
    "atomic-chain3-r1": (["atomic", "--structure", "assets/chain3.struct",
                          "--rank", "1"], 1),
    "atomic-chain3-r2": (["atomic", "--structure", "assets/chain3.struct",
                          "--rank", "2"], 1),
    "atomic-chain2-r1": (["atomic", "--structure", "assets/chain2.struct",
                          "--rank", "1"], 0),
}


@pytest.mark.parametrize("name", sorted(FINITE_GOLDEN))
@pytest.mark.parametrize("machine", [False, True])
def test_finite_golden(capsys, monkeypatch, name, machine):
    check_golden(capsys, monkeypatch, name, machine, *FINITE_GOLDEN[name])


# the last README commands to be pinned, run from the repository root,
# morley-code to standard output as README_COMMANDS runs it; written by
# the tree before Scott checks counted
PROP_MORLEY_GOLDEN = {
    "prop-table-or": ["prop-table", "--connective", "|", "--atoms", "p,q",
                      "--rules", "vI1,vI2,vE"],
    "morley-code-z-order": ["morley-code", "assets/morley/z-order.chg"],
}


@pytest.mark.parametrize("name", sorted(PROP_MORLEY_GOLDEN))
@pytest.mark.parametrize("machine", [False, True])
def test_prop_table_and_morley_code_golden(capsys, monkeypatch, name,
                                           machine):
    check_golden(capsys, monkeypatch, name, machine, PROP_MORLEY_GOLDEN[name],
                 0)


def test_ef_over_different_vocabularies_exits_2(capsys, tmp_path):
    paths = []
    for name, decl, rel in (("a", "rel R : S S", "rel R = { (x y) }"),
                            ("b", "rel P : S", "rel P = { (x) }")):
        (tmp_path / f"{name}.voc").write_text(f"sort S\n{decl}\n")
        path = tmp_path / f"{name}.struct"
        path.write_text(f"structure {name} over {name}.voc\n"
                        f"domain S {{ x y }}\n{rel}\n")
        paths.append(str(path))
    code, out, err = run(capsys, "ef", *paths)
    assert (code, out) == (2, "")
    assert err == (f"omega: {paths[0]} and {paths[1]} are over different "
                   "vocabularies\n")


@pytest.mark.parametrize("argv", [
    ["ef", A("chain3.struct"), A("chain4.struct"), "--rounds", "-1"],
    ["type", "--structure", A("chain3.struct"), "--tuple", "b",
     "--rank", "-1"],
    ["atomic", "--structure", A("omega-succ.struct"), "--rank", "-2"],
    ["ef", A("chain3.struct"), A("chain4.struct"), "--rounds", "three"],
])
def test_negative_bounds_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    flag, value = argv[-2:]
    assert f"argument {flag}: expected an integer >= 0, not '{value}'" in err


def test_scott(capsys):
    code, out, _ = run(capsys, "scott", A("chain3.struct"))
    assert code == 0
    assert out.startswith("exists x0:S.")


def test_scott_nests_past_the_recursion_limit(capsys, tmp_path):
    # 1,200 elements, three in each of 400 sorts: 1,200 nested `exists`
    sorts = [f"S{i}" for i in range(400)]
    (tmp_path / "many.voc").write_text("".join(f"sort {s}\n" for s in sorts))
    f = tmp_path / "many.struct"
    f.write_text("structure many over many.voc\n" + "".join(
        f"domain {s} {{ a{s} b{s} c{s} }}\n" for s in sorts))
    code, out, err = run(capsys, "scott", str(f))
    assert (code, err) == (0, "")
    assert out.startswith("exists x0:S0. exists x1:S0. exists x2:S0. "
                          "exists x3:S1. ")
    assert out.count("exists") == 1200
    assert out.endswith(
        "forall z:S399. (((z = x1197) | (z = x1198)) | (z = x1199)))\n")


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


@pytest.mark.parametrize("command,name,text,message", [
    ("verify-omega", "bad.thy",
     "sort N\nrel N : N\nfamily c : N = { c_1_0 }\naxiom forall x0:N. N(x0\n",
     "unexpected end of input (line 4, col 24)"),
    ("morley-code", "bad.chg",
     "base-vocab {\n  sort Z\n}\naxiom forall x:Z. x = \n",
     "unexpected end of input (line 4, col 22)"),
    ("morley-code", "bad.chg",
     "base-vocab {\n  sort Z\n}\n  type n=1 i=0 : v0 = zz  # v0 is 0\n",
     "unknown symbol or unbound variable 'zz' (line 4, col 23)"),
    ("morley-code", "bad.chg",
     "note x\nbase-vocab {\n  sort Z\n  rel < : Z Z\n  rel P Z\n}\n",
     "expected ':' (line 5, col 1)"),
    ("verify-omega", "bad.thy",
     "# Morley coding of x\nsort N\nsort V\nrel N : N\nfun f : V\n",
     "malformed declaration line: 'fun f : V' (line 5, col 1)"),
    ("verify-omega", "bad.thy",
     "sort N\nrel N : N\nfamily c : N = { c_1_0 }\nschema G_OMEGA c\n",
     "malformed schema line: 'schema G_OMEGA c' (line 4, col 1)"),
    ("morley-code", "bad.chg",
     "base-vocab {\n  sort Z\n}\ntype n=1 i=0 : v0 = v0\n"
     "type n=1 i=2 : ~(v0 = v0)\n",
     "type n=1: index i=2 out of order (expected 1) (line 5, col 1)"),
    ("morley-code", "bad.chg", "note x\naxiom forall x:Z. x = x\n",
     "axiom before base-vocab (line 2, col 1)"),
    ("morley-code", "bad.chg", "note x\nbase-vocab {\n  sort Z\n",
     "base-vocab block is not closed (line 2, col 1)"),
], ids=["theory-axiom", "bundle-axiom", "bundle-type", "bundle-base-vocab",
        "theory-declaration", "theory-schema", "bundle-type-order",
        "bundle-axiom-first", "bundle-unclosed-base-vocab"])
def test_malformed_morley_file_exits_2(capsys, tmp_path, command, name, text,
                                       message):
    bad = tmp_path / name
    bad.write_text(text)
    code, out, err = run(capsys, command, str(bad),
                         *([A("morley", "toy-good.struct")]
                           if command == "verify-omega" else []))
    assert (code, out) == (2, "")
    assert err == f"omega: {message}\n"


@pytest.mark.parametrize("step,message", [
    ("  eqI[d]: (d = ", "unexpected end of input (line 2, col 15)"),
    ("  eqI[d, zz]: (d = d)",
     "unknown symbol or unbound variable 'zz' (line 2, col 10)"),
    ("  I_OMEGA: family=tau forall x:N. (x != )",
     "unknown symbol or unbound variable ')' (line 2, col 41)"),
    ("  family /\\{ (x != d) : x in tau tag=t",
     "malformed schema node (line 2, col 10)"),
    ("    eqI[d]: (d = d)", "bad derivation nesting (line 2, col 1)"),
    ("eqI[d]: (d = d)", "multiple roots in derivation file (line 2, col 1)"),
])
def test_malformed_proof_step_exits_2(capsys, tmp_path, step, message):
    bad = tmp_path / "bad.prf"
    bad.write_text(f"negE: _|_\n{step}\n")
    code, out, err = run(capsys, "check-proof", str(bad),
                         "--vocab", A("nat-ext.voc"))
    assert (code, out) == (2, "")
    assert err == f"omega: {message}\n"


@pytest.mark.parametrize("table,message", [
    ("const 0 = a\n", "missing function table for 'S'"),
    ("fun S = { a->a }\n", "missing constant assignment for '0'"),
    ("const 0 = a\nfun S = { }\n",
     "function table for 'S' not total at ('a',)"),
], ids=["function-table", "constant", "partial-table"])
def test_finite_structure_missing_a_table_exits_2(capsys, tmp_path, table,
                                                  message):
    (tmp_path / "nat.voc").write_text("sort N\nconst 0 : N\nfun S : N -> N\n")
    bad = tmp_path / "f.struct"
    bad.write_text("# one element\n\nstructure f over nat.voc\n"
                   "domain N { a }\n" + table)
    code, out, err = run(capsys, "scott", str(bad))
    assert (code, out) == (2, "")
    assert err == f"omega: {message} (line 3, col 1)\n"


def test_error_in_the_over_vocabulary_names_that_file(capsys, tmp_path):
    (tmp_path / "bad.voc").write_text("sort N\nrel P : N\nrel P N\n")
    f1 = tmp_path / "f1.struct"
    f1.write_text("structure f over bad.voc\n")
    code, out, err = run(capsys, "scott", str(f1))
    assert (code, out) == (2, "")
    assert err == "omega: expected ':' (bad.voc line 3, col 1)\n"


def test_missing_theory_file_exits_2(capsys, tmp_path):
    missing = str(tmp_path / "nope.thy")
    code, out, err = run(capsys, "verify-omega", missing,
                         A("morley", "toy-good.struct"))
    assert (code, out) == (2, "")
    assert err == f"omega: cannot read {missing}: No such file or directory\n"


def test_ef_sentence_does_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(omegalogic.__file__))
    outputs = [subprocess.run(
        [sys.executable, "-c", "from omegalogic.cli import main; main()",
         "ef", A("chain3.struct"), A("chain4.struct"), "--rounds", "3"],
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
        capture_output=True, text=True, check=True).stdout
        for seed in ("1", "2")]
    assert "separating sentence: exists" in outputs[0]
    assert outputs[0] == outputs[1]


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
