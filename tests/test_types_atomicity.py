import itertools
import os

import pytest

from omegalogic.syntax import (
    Const, Eq, Not, Var, parse_formula, parse_vocabulary, print_formula,
)
from omegalogic.structures import (
    EvalError, FiniteStructure, all_finite_structures, eval_sentence,
    is_isomorphic, load_structure, parse_structure,
)
from omegalogic.types_atomicity import (
    GenerativityVerdict, TypeDescriptor, complete_type, ef_equivalent,
    ef_signature, generativity, is_atomic, is_principal, parse_witness_map,
    scott_sentence_finite, verify_witness,
)


ORD = parse_vocabulary("sort S\nrel < : S S")


def chain(n):
    dom = [chr(ord("a") + i) for i in range(n)]
    lt = {(dom[i], dom[j]) for i in range(n) for j in range(n) if i < j}
    return FiniteStructure(ORD, {"S": dom}, {"<": lt}, name=f"{n}-chain")


def rationals():
    voc = parse_vocabulary("sort Q\nrel < : Q Q\nfamily D : Q countable scheme rationals")
    return parse_structure(
        "structure rationals\ngenerated by D\nrel-decide < by rational-lt", voc)


def integers():
    voc = parse_vocabulary(
        "sort Z\nrel < : Z Z\nconst 0 : Z\n"
        "family D : Z countable scheme integers")
    return parse_structure(
        "structure integers\ngenerated by D\n"
        "rewrite 0 -> D_0\nrel-decide < by integer-lt", voc)


def test_complete_type_middle_of_chain():
    s = chain(3)
    td = complete_type(s, ("b",), rank=1)
    printed = {print_formula(f) for f in td.formulas}
    assert "exists x1:S. (x1 < v0)" in printed
    assert "exists x1:S. (v0 < x1)" in printed
    assert "forall x1:S. (x1 < v0)" not in printed


def test_complete_type_sign_split():
    s = integers()
    voc = s.vocab
    pos = complete_type(s, (voc.lookup_member("D_5"),), rank=0)
    neg = complete_type(s, (voc.lookup_member("D_-3"),), rank=0)
    p_pos = {print_formula(f) for f in pos.formulas}
    p_neg = {print_formula(f) for f in neg.formulas}
    assert "(0 < v0)" in p_pos and "(v0 < 0)" in p_neg
    assert "(0 < v0)" not in p_neg and "(v0 < 0)" not in p_pos


def test_complete_type_empty_tuple_is_theory():
    s = chain(2)
    td = complete_type(s, (), rank=1)
    assert td.arity == 0
    printed = {print_formula(f) for f in td.formulas}
    assert "exists x1:S. ~(x1 < x1)" in printed


def test_complete_type_rejects_foreign_element():
    with pytest.raises(EvalError):
        complete_type(chain(2), ("z",), rank=0)


def named_set(k, extra=0):
    voc = parse_vocabulary("sort S")
    dom = [f"a{i}" for i in range(k)] + [f"b{i}" for i in range(extra)]
    return FiniteStructure(voc, {"S": dom}, name=f"set{k}+{extra}")


def test_principal_type_named_point():
    # p1 = {v = a3} + {v != ai}: the equality generates the rest
    probe = named_set(5)
    voc = probe.vocab
    v0 = Var("v0", "S")
    formulas = [Eq(v0, Const("a3", "S"))] + [
        Not(Eq(v0, Const(f"a{i}", "S"))) for i in range(5) if i != 3]
    td = TypeDescriptor(1, 0, tuple(formulas))
    out = is_principal(td, [probe])
    assert out.classification == "principal"
    assert print_formula(out.generator) == "(v0 = a3)"


def test_nonprincipal_inequality_type():
    # p2 = {v != ai}: every candidate generator is separated on a truncation
    probe = named_set(4, extra=1)
    v0 = Var("v0", "S")
    formulas = [Not(Eq(v0, Const(f"a{i}", "S"))) for i in range(4)]
    td = TypeDescriptor(1, 0, tuple(formulas))
    out = is_principal(td, [probe])
    assert out.classification == "nonprincipal"
    assert len(out.evidence) == len(formulas)


def test_is_principal_requires_probes():
    td = TypeDescriptor(1, 0, ())
    with pytest.raises(ValueError):
        is_principal(td, [])


def test_all_named_finite_structure_atomic():
    voc = parse_vocabulary("sort S\nconst a : S\nconst b : S")
    s = FiniteStructure(voc, {"S": ["x", "y"]},
                        constants={"a": "x", "b": "y"})
    assert is_atomic(s, rank=0)


def test_omega_succ_atomic_via_constant_terms():
    voc = parse_vocabulary("sort N\nconst 0 : N\nfun S : N -> N")
    s = parse_structure("structure omega\ngenerated by tau", voc)
    verdict = is_atomic(s, rank=1)
    assert verdict.status == "atomic-at-rank"
    assert verdict.reason == "constant-term-generators"


def test_family_generated_presentation_undecided():
    verdict = is_atomic(integers(), rank=1)
    assert verdict.status == "undecided"


# ---------------------------------------------------------------------------
# EF


def test_ef_identical_structures():
    a, b = chain(3), chain(3)
    assert ef_equivalent(a, b, 3) == ("equivalent", None)


def test_ef_chains_distinguished():
    verdict, f = ef_equivalent(chain(3), chain(4), 3)
    assert verdict == "distinguished"
    a, b = chain(3), chain(4)
    assert eval_sentence(a, f).value == "true"
    assert eval_sentence(b, f).value == "false"


def test_ef_pure_sets_counting():
    verdict, f = ef_equivalent(named_set(2), named_set(3), 3)
    assert verdict == "distinguished"
    assert eval_sentence(named_set(2), f).value == "true"
    assert eval_sentence(named_set(3), f).value == "false"


def test_ef_pure_sets_low_rounds_equivalent():
    # one round cannot count past one element
    assert ef_equivalent(named_set(2), named_set(3), 1)[0] == "equivalent"


def test_ef_signature_iso_invariant():
    a = chain(3)
    dom = ["z", "y", "x"]
    lt = {("z", "y"), ("z", "x"), ("y", "x")}
    b = FiniteStructure(ORD, {"S": dom}, {"<": lt})
    assert ef_signature(a, 4) == ef_signature(b, 4)
    assert is_isomorphic(a, b)


def test_ef_agrees_with_iso_small():
    voc = parse_vocabulary("sort S\nrel R : S S")
    structs = list(all_finite_structures(voc, 2))
    for a, b in itertools.combinations(structs, 2):
        agree = (ef_equivalent(a, b, 4, want_formula=False)[0]
                 == "equivalent") == is_isomorphic(a, b)
        assert agree


# ---------------------------------------------------------------------------
# Scott sentences


def test_scott_two_element_set():
    s = named_set(2)
    f = scott_sentence_finite(s)
    txt = print_formula(f)
    assert txt.startswith("exists x0:S. exists x1:S.")
    assert "forall z:S." in txt
    assert eval_sentence(s, f).value == "true"
    assert eval_sentence(named_set(3), f).value == "false"
    assert eval_sentence(named_set(1), f).value == "false"


def test_scott_two_chain_rejected_by_three_chain():
    f = scott_sentence_finite(chain(2))
    assert eval_sentence(chain(2), f).value == "true"
    assert eval_sentence(chain(3), f).value == "false"


def test_scott_cycle_structure():
    voc = parse_vocabulary("sort S\nfun S : S -> S")
    three = FiniteStructure(voc, {"S": ["a", "b", "c"]},
                            functions={"S": {"a": "b", "b": "c", "c": "a"}})
    four = FiniteStructure(voc, {"S": ["a", "b", "c", "d"]},
                           functions={"S": {"a": "b", "b": "c",
                                            "c": "d", "d": "a"}})
    f = scott_sentence_finite(three)
    assert eval_sentence(three, f).value == "true"
    assert eval_sentence(four, f).value == "false"


def test_scott_exact_on_isomorphism_class():
    voc = parse_vocabulary("sort S\nrel P : S")
    for s in all_finite_structures(voc, 2):
        f = scott_sentence_finite(s)
        for t in all_finite_structures(voc, 2):
            assert (eval_sentence(t, f).value == "true") == is_isomorphic(s, t)
        for t in all_finite_structures(voc, 3):
            assert eval_sentence(t, f).value == "false"


# ---------------------------------------------------------------------------
# Generativity


Q_WITNESS = """
piece x < D_0_1 : x -> x
piece ~(x < D_0_1) : x -> affine(1, 1)
misses D_1_2
"""

Z_WITNESS = """
piece x = x : x -> affine(2, 0)
misses D_1
"""


def test_finite_non_generative():
    v = generativity(chain(3))
    assert v.verdict == "non-generative"
    assert v.reason == "finite-cardinality"


def test_omega_succ_non_generative():
    voc = parse_vocabulary("sort N\nconst 0 : N\nfun S : N -> N")
    s = parse_structure("structure omega\ngenerated by tau", voc)
    v = generativity(s)
    assert v.verdict == "non-generative"
    assert v.reason == "term-generated-all-named"


def test_rationals_shift_witness():
    s = rationals()
    w = parse_witness_map(Q_WITNESS, s.vocab)
    v = generativity(s, bound=14, witness=w)
    assert v.verdict == "generative", v.reason


def test_integers_doubling_witness():
    s = integers()
    w = parse_witness_map(Z_WITNESS, s.vocab)
    v = generativity(s, bound=14, witness=w)
    assert v.verdict == "generative", v.reason


def test_bad_witness_rejected():
    # identity map misses nothing: the certificate is in the image
    s = integers()
    w = parse_witness_map("piece x = x : x -> x\nmisses D_1", s.vocab)
    ok, why = verify_witness(s, w, bound=14)
    assert not ok
    assert "certificate" in why


def test_no_witness_unknown():
    v = generativity(rationals())
    assert v.verdict == "unknown"


def test_verdict_dichotomy():
    # no input carries both a non-generative reason and a generative witness
    for v in (generativity(chain(2)),
              generativity(rationals(),
                           witness=parse_witness_map(Q_WITNESS,
                                                     rationals().vocab),
                           bound=14)):
        if v.verdict == "non-generative":
            assert v.witness is None
        if v.verdict == "generative":
            assert v.reason is None


def _integers_asset():
    return load_structure(os.path.join(os.path.dirname(__file__), "..",
                                       "assets", "integers.struct"))


def test_witness_breaking_the_order_is_named():
    s = _integers_asset()
    w = parse_witness_map("piece x = x : x -> affine(-1, 0)\nmisses D_1",
                          s.vocab)
    assert verify_witness(s, w, bound=14) == (
        False, "witness map breaks < at (D_0, D_1)")


def test_witness_moving_a_constant_is_named():
    s = _integers_asset()
    w = parse_witness_map("piece x = x : x -> affine(1, 1)\nmisses D_0",
                          s.vocab)
    assert verify_witness(s, w, bound=14) == (
        False, "witness map moves the constant 0")
