import pytest
from hypothesis import given, strategies as st

from omegalogic.syntax import (
    And, App, Atom, Const, ConstantFamily, Eq, Exists, FamilyMember, Forall,
    Not, Or, SchemaConj, SyntaxError_, Var, free_variables,
    is_sentence, parse_formula, parse_term, parse_vocabulary, print_formula,
    print_vocabulary, quantifier_rank, substitute,
)


NAT = parse_vocabulary("""
sort N
const 0 : N
fun S : N -> N
rel P : N
family D : N countable
""")

ARITH = parse_vocabulary("""
sort N
rel < : N N
fun + : N N -> N
fun * : N N -> N
const 0 : N
fun S : N -> N
""")


def test_minimal_vocabulary():
    v = parse_vocabulary("sort N\nconst 0 : N\nfun S : N -> N")
    assert len(v.sorts) == 1
    assert len(v.symbols) == 2


def test_arithmetic_vocabulary():
    assert {d.name for d in ARITH.relations()} == {"<"}
    assert {d.name for d in ARITH.functions()} == {"+", "*", "S"}
    assert {d.name for d in ARITH.constants()} == {"0"}


def test_duplicate_symbol_error():
    with pytest.raises(SyntaxError_):
        parse_vocabulary("sort N\nconst 0 : N\nconst 0 : N")


def test_unknown_sort_error():
    with pytest.raises(SyntaxError_):
        parse_vocabulary("sort N\nconst 0 : M")


def test_vocabulary_print_roundtrip():
    text = print_vocabulary(NAT)
    again = parse_vocabulary(text)
    assert print_vocabulary(again) == text


def test_parse_universal_sentence():
    f = parse_formula("forall x:N. ~(S(x)=0)", NAT, require_sentence=True)
    assert isinstance(f, Forall)
    assert quantifier_rank(f) == 1


def test_parse_schema_conjunction():
    voc = NAT.expand(ConstantFamily("ConstN", "N", members=None))
    voc2 = voc.expand(ConstantFamily("E", "N", members=("d",)))
    f = parse_formula("/\\{ x != d : x in ConstN }", voc2)
    assert isinstance(f, SchemaConj)
    assert f.family == "ConstN"
    assert f.hole.name == "x"
    assert is_sentence(f)


def test_unbound_variable_rejected_for_sentence():
    with pytest.raises(SyntaxError_):
        parse_formula("forall x:N. P(y)", NAT, require_sentence=True)


def test_implication_is_sugar():
    f = parse_formula("P(0) -> P(S(0))", NAT)
    assert isinstance(f, Or)
    assert isinstance(f.left, Not)


def test_infix_relation_and_neq():
    f = parse_formula("0 < S(0)", ARITH)
    assert isinstance(f, Atom) and f.rel == "<"
    g = parse_formula("0 != S(0)", ARITH)
    assert isinstance(g, Not) and isinstance(g.body, Eq)


def test_family_member_terms():
    t = parse_term("D_3", NAT)
    assert t == FamilyMember("D", (3,), "N")
    t2 = parse_term("D[-2]", NAT)
    assert t2 == FamilyMember("D", (-2,), "N")


def test_expand_vocabulary_clash():
    with pytest.raises(SyntaxError_):
        NAT.expand(ConstantFamily("S", "N"))


def test_expand_vocabulary_monotone():
    f = parse_formula("forall x:N. ~(S(x)=0)", NAT)
    bigger = NAT.expand(ConstantFamily("E", "N"))
    assert parse_formula(print_formula(f), bigger) == f


def test_substitute_examples():
    voc = NAT.expand(ConstantFamily("C", "N"))
    body = parse_formula("x != D_0", NAT, bound=[("x", "N")])
    out = substitute(body, "x", FamilyMember("C", (3,), "N"))
    assert out == Not(Eq(FamilyMember("C", (3,), "N"), FamilyMember("D", (0,), "N")))


def test_substitute_bound_untouched():
    f = parse_formula("forall x:N. P(x)", NAT)
    assert substitute(f, "x", Const("0", "N")) == f


def test_substitute_two_occurrences():
    f = parse_formula("P(x) & P(S(x))", NAT, bound=[("x", "N")])
    out = substitute(f, "x", Const("0", "N"))
    assert out == parse_formula("P(0) & P(S(0))", NAT)


def test_substitute_identity_when_not_free():
    f = parse_formula("P(0)", NAT)
    assert substitute(f, "x", Const("0", "N")) == f


def test_substitute_rejects_open_term():
    f = parse_formula("P(x)", NAT, bound=[("x", "N")])
    with pytest.raises(ValueError):
        substitute(f, "x", Var("y", "N"))


def test_quantifier_rank():
    assert quantifier_rank(parse_formula("P(0)", NAT)) == 0
    assert quantifier_rank(parse_formula("forall x:N. exists y:N. x < y", ARITH)) == 2
    voc = NAT.expand(ConstantFamily("C", "N"))
    sc = parse_formula("/\\{ S(c) != c : c in C }", voc)
    assert quantifier_rank(sc) == 0


def test_free_variables():
    f = parse_formula("x < y", ARITH, bound=[("x", "N"), ("y", "N")])
    assert free_variables(f) == {"x", "y"}
    g = parse_formula("forall x:N. x < y", ARITH, bound=[("y", "N")])
    assert free_variables(g) == {"y"}


def test_schema_hole_is_binderlike():
    voc = NAT.expand(ConstantFamily("C", "N"))
    f = parse_formula("/\\{ P(c) : c in C }", voc)
    assert free_variables(f) == frozenset()


def test_bot_parses():
    f = parse_formula("P(0) -> _|_", NAT)
    assert print_formula(f) == "(~P(0) | _|_)"


# --- property tests --------------------------------------------------------

_names = st.sampled_from(["x", "y", "z"])


def _terms(depth):
    base = st.one_of(
        st.just(Const("0", "N")),
        st.builds(lambda i: FamilyMember("D", (i,), "N"),
                  st.integers(min_value=0, max_value=9)),
    )
    return st.recursive(
        base, lambda sub: st.builds(lambda t: App("S", (t,), "N"), sub),
        max_leaves=depth)


def _formulas(max_depth=6):
    atoms = st.one_of(
        st.builds(lambda t: Atom("P", (t,)), _terms(3)),
        st.builds(Eq, _terms(3), _terms(3)),
        st.just(Atom("P", (Const("0", "N"),))),
    )

    def extend(sub):
        return st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
        )

    return st.recursive(atoms, extend, max_leaves=max_depth)


@given(_formulas())
def test_print_parse_roundtrip(f):
    assert parse_formula(print_formula(f), NAT) == f


@given(_formulas())
def test_rank_preserved_by_substitution(f):
    assert quantifier_rank(substitute(f, "x", Const("0", "N"))) == quantifier_rank(f)


@given(_formulas())
def test_sentences_have_no_free_variables(f):
    # these generated formulas are ground
    assert is_sentence(f)
