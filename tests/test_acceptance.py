"""Acceptance gate: the twelve desk-scale criteria.

Each test prints exactly one PASS/FAIL line (visible with -s or in captured
output) and asserts the criterion, including its time bound where one is
stated.
"""

import itertools
import os
import random
import sys
import time

from omegalogic import propositional as prop
from omegalogic import omega_rules as omr
from omegalogic import morley
from omegalogic.structures import (
    FiniteStructure, all_finite_structures, eval_sentence, is_isomorphic,
    load_structure, parse_structure,
)
from omegalogic.syntax import (
    And, Atom, Const, Forall, Var, parse_vocabulary,
)
from omegalogic.types_atomicity import (
    ef_signature, generativity, parse_witness_map, scott_sentence_finite,
)
from omegalogic.cli import _parse_axioms


ASSETS = os.path.join(os.path.dirname(__file__), "..", "assets")


def A(*parts):
    return os.path.join(ASSETS, *parts)


# one line per criterion, echoed by the conftest terminal-summary hook
ACCEPTANCE_LINES = []


def report(number, ok, label, started, bound=None):
    elapsed = time.monotonic() - started
    line = (f"criterion {number:2d} {'PASS' if ok else 'FAIL'}  {label} "
            f"[{elapsed:.2f}s]")
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.stderr)
    assert ok, line
    if bound is not None:
        assert elapsed < bound, f"criterion {number} exceeded {bound}s bound"


def test_criterion_01_conjunction_categoricity():
    t0 = time.monotonic()
    u = prop.sentence_universe(("p", "q"), 1)
    clauses = prop.admissibility_clauses(("&I", "&E1", "&E2"), u, 6)
    n = len(u)
    idx = {f: i + 1 for f, i in u.index.items()}
    ok = True
    for f in u.sentences:
        if not isinstance(f, And):
            continue
        for row in itertools.product((True, False), repeat=2):
            want = row[0] and row[1]
            assume = [idx[f.left] if row[0] else -idx[f.left],
                      idx[f.right] if row[1] else -idx[f.right],
                      -idx[f] if want else idx[f]]
            if f.left is f.right and row[0] != row[1]:
                continue  # contradictory row for a & a
            if prop.satisfiable(clauses, n, assume):
                ok = False
    report(1, ok, "conjunction rules force the full & truth table", t0,
           bound=5.0)


def test_criterion_02_disjunction_row4_gap():
    t0 = time.monotonic()
    u = prop.sentence_universe(("p", "q"), 1)
    rules = ("vI1", "vI2", "vE")
    table = prop.determined_truth_table("|", rules, u, depth=6)
    gap = (table[(False, False)] == "unforced"
           and table[(True, True)] == "forced-true"
           and table[(True, False)] == "forced-true"
           and table[(False, True)] == "forced-true")
    taut_ok = prop.is_admissible(prop.v_tautology, rules, u)
    report(2, gap and taut_ok,
           "disjunction rules leave row 4 open; v-taut admissible", t0,
           bound=10.0)


def test_criterion_03_negation_gap():
    t0 = time.monotonic()
    u = prop.sentence_universe(("p",), 1)
    rules = ("negI", "negE", "DN")
    ok = (prop.is_admissible(prop.v_top, rules, u)
          and prop.is_admissible(prop.v_tautology, rules, u))
    report(3, ok, "v-top and v-taut admissible under ~I/~E/DN", t0)


def test_criterion_04_restored_categoricity():
    t0 = time.monotonic()
    u = prop.sentence_universe(("p", "q"), 1)
    vals = prop.admissible_valuations(prop.RULE_CATALOGUE, u,
                                      derivability_depth=6)
    got = {tuple(v[s] for s in u.sentences) for v in vals}
    want = {tuple(v[s] for s in u.sentences)
            for v in prop.classical_valuations(u)}
    report(4, got == want,
           "with Refutation and vE_MC the admissible set is exactly "
           "classical", t0, bound=30.0)


def test_criterion_05_i_omega_quantifier_categoricity():
    t0 = time.monotonic()
    voc = parse_vocabulary(
        "sort S\nrel P : S\nconst a : S\nconst b : S\nconst c : S")
    x = Var("x", "S")
    body = Atom("P", (x,))
    consts = [Const(n, "S") for n in ("a", "b", "c")]
    omega = omr.instantiate_schema(voc, "I_OMEGA", body, x, family="tau")
    elims = [omr.instantiate_schema(voc, "I_FORALL_E", body, x, params=(t,),
                                    family="tau") for t in consts]
    ok = True
    for size in (1, 2, 3):
        for s in all_finite_structures(voc, size):
            sound = (omr.check_instance_sound(s, omega).status == "sound"
                     and all(omr.check_instance_sound(s, e).status == "sound"
                             for e in elims))
            named = all(
                eval_sentence(s, Atom("P", (t,))).value == "true"
                for t in consts)
            forall = eval_sentence(s, Forall(x, body)).value == "true"
            # soundness of the omega-rules holds exactly when forall-truth
            # coincides with "all named instances true"
            if sound != (forall == named):
                ok = False
    report(5, ok, "I-omega soundness forces forall = all named instances "
           "on structures of size <= 3", t0)


def test_criterion_06_q_omega_refutation():
    t0 = time.monotonic()
    s = load_structure(A("omega-succ.struct"))
    with open(A("q.thy")) as fh:
        q_axioms = _parse_axioms(fh.read(), s.vocab)
    ok = True
    for theory in ([], q_axioms):
        root = omr.refute_extension(s, "d")
        voc = omr.refutation_vocabulary(s, "d")
        res = omr.check_derivation(root, theory, omr.REFUTATION_RULES, voc,
                                   assumed_families=("tau",))
        concls = {omr.print_derivation(c).splitlines()[0]
                  for c in root.children}
        ok = ok and res.valid and root.conclusion.__class__.__name__ == \
            "Absurd" and any("(d != d)" in c for c in concls) and \
            any("(d = d)" in c for c in concls)
    report(6, ok, "refute_extension derives absurdity from d != d and "
           "d = d, and it checks", t0, bound=1.0)


def test_criterion_07_powerlessness():
    t0 = time.monotonic()
    pure = parse_vocabulary(open(A("pure-equality.voc")).read())
    dense = parse_vocabulary(open(A("dense-order.voc")).read())
    named = parse_vocabulary(open(A("named-constants.voc")).read())
    r1 = omr.applicability_report([], pure, "I_OMEGA")
    r2 = omr.applicability_report([], dense, "I_OMEGA")
    r3 = omr.applicability_report([], named, "I_OMEGA")
    ok = (r1["count"] == 0 and "no constants" in r1["blockers"]
          and r2["count"] == 0 and "no constants" in r2["blockers"]
          and r3["count"] >= 1)
    report(7, ok, "omega-rule powerless without constants, usable with a "
           "named family", t0)


def test_criterion_08_morley_golden():
    t0 = time.monotonic()
    t = morley.morley_code(morley.load_bundle(A("morley", "z-order.chg")))
    with open(A("morley", "z-order.thy"), "rb") as fh:
        golden = fh.read()
    report(8, t.text.encode() == golden,
           "morley_code reproduces the checked-in theory byte-exactly", t0)


def test_criterion_09_g_omega_violation_witness():
    t0 = time.monotonic()
    t = morley.load_theory(A("morley", "toy.thy"))
    good = parse_structure(open(A("morley", "toy-good.struct")).read(),
                           vocab=t.vocab)
    bad = parse_structure(open(A("morley", "toy-bad.struct")).read(),
                          vocab=t.vocab)
    vg = morley.verify_omega_model(t, good)
    vb = morley.verify_omega_model(t, bad)
    trace = "\n".join(vb.trace)
    ok = (vg.status == "pass" and vb.status == "violation"
          and "uncoded tuple" in trace and "G_OMEGA concludes" in trace
          and "totality" in trace)
    report(9, ok, "verify_omega_model rejects the uncoded-tuple candidate "
           "with a trace and accepts the atomic one", t0)


def _canonical_digraphs(n):
    """Representatives of all n-element one-binary-relation structures."""
    pairs = list(itertools.product(range(n), repeat=2))
    pos = {p: i for i, p in enumerate(pairs)}
    perm_maps = []
    for perm in itertools.permutations(range(n)):
        perm_maps.append([pos[(perm[i], perm[j])] for (i, j) in pairs])
    reps = set()
    for mask in range(1 << len(pairs)):
        canon = min(
            sum(1 << pm[k] for k in range(len(pairs)) if mask >> k & 1)
            for pm in perm_maps)
        reps.add(canon)
    return sorted(reps), pairs


def _digraph_structure(vocab, n, mask, pairs, tag=""):
    dom = [f"e{i}{tag}" for i in range(n)]
    rel = {(dom[i], dom[j]) for k, (i, j) in enumerate(pairs)
           if mask >> k & 1}
    return FiniteStructure(vocab, {"S": dom}, {"R": rel},
                           name=f"digraph{n}-{mask}{tag}")


def test_criterion_10_ef_iso_coincidence():
    t0 = time.monotonic()
    vocab = parse_vocabulary("sort S\nrel R : S S")
    sigs = []
    structs = []
    for n in (1, 2, 3, 4):
        reps, pairs = _canonical_digraphs(n)
        for mask in reps:
            s = _digraph_structure(vocab, n, mask, pairs)
            structs.append(s)
            sigs.append(ef_signature(s, 4))
    # distinct representatives are pairwise non-isomorphic by construction;
    # EF at 4 rounds must distinguish each such pair
    ok = len(set(sigs)) == len(sigs)
    # and must declare isomorphic (relabeled) copies equivalent
    rng = random.Random(20240824)
    for s in rng.sample(structs, 60):
        n = len(s.domains["S"])
        perm = list(range(n))
        rng.shuffle(perm)
        dom = [f"f{i}" for i in range(n)]
        rel = {(dom[perm[int(a[1])]], dom[perm[int(b[1])]])
               for (a, b) in s.relations["R"]}
        copy = FiniteStructure(vocab, {"S": dom}, {"R": rel})
        ok = ok and ef_signature(copy, 4) == ef_signature(s, 4)
        ok = ok and is_isomorphic(s, copy)
    # spot-check the oracle agreement on random representative pairs
    for _ in range(50):
        a, b = rng.sample(structs, 2)
        ok = ok and ((ef_signature(a, 4) == ef_signature(b, 4))
                     == is_isomorphic(a, b))
    report(10, ok, "EF at 4 rounds coincides with isomorphism on all "
           "one-relation structures of size <= 4", t0, bound=120.0)


def test_criterion_11_scott_correctness():
    t0 = time.monotonic()
    vocab = parse_vocabulary("sort S\nrel P : S")
    targets = [t for size in (1, 2, 3, 4, 5)
               for t in all_finite_structures(vocab, size)]
    ok = True
    for size in (1, 2, 3, 4):
        for s in all_finite_structures(vocab, size):
            f = scott_sentence_finite(s)
            for t in targets:
                holds = eval_sentence(t, f).value == "true"
                if holds != is_isomorphic(s, t):
                    ok = False
    report(11, ok, "Scott sentences pin the isomorphism class among "
           "structures of size <= 5", t0)


def test_criterion_12_generativity_verdicts():
    t0 = time.monotonic()
    omega = load_structure(A("omega-succ.struct"))
    rats = load_structure(A("rationals.struct"))
    ints = load_structure(A("integers.struct"))
    qmap = parse_witness_map(open(A("q-shift.map")).read(), rats.vocab)
    zmap = parse_witness_map(open(A("z-double.map")).read(), ints.vocab)
    finite_vocab = parse_vocabulary("sort S\nrel R : S S")
    ok = (generativity(omega).verdict == "non-generative"
          and generativity(rats, bound=14, witness=qmap).verdict
          == "generative"
          and generativity(ints, bound=14, witness=zmap).verdict
          == "generative")
    for s in itertools.islice(all_finite_structures(finite_vocab, 2), 8):
        ok = ok and generativity(s).verdict == "non-generative"
    ok = ok and generativity(load_structure(A("chain3.struct"))).verdict \
        == "non-generative"
    report(12, ok, "generativity: omega-succ non-generative, Q-shift and "
           "Z-doubling witnesses verified, finite non-generative", t0)
