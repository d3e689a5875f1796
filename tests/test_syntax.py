import dataclasses
import gc
import random
import time
import weakref

import pytest
from hypothesis import given, strategies as st

from omegalogic.cli import main

from omegalogic.syntax import (
    Absurd, And, App, Atom, BOT, Const, ConstantFamily, Eq, Exists,
    FamilyMember, Forall, Not, Or, SchemaConj, SchemaDisj, SyntaxError_, Var,
    free_variables,
    is_sentence, parse_formula, parse_term, parse_vocabulary, print_formula,
    print_term, print_vocabulary, quantifier_rank, substitute,
)

from reference_print import reference_print


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


def test_sort_may_be_declared_below_its_first_use():
    vocab = parse_vocabulary("rel P : M\nsort M\n")
    assert vocab.symbols["P"].arg_sorts == ("M",)


@pytest.mark.parametrize("text,line,message", [
    ("sort N\nconst 0 : N\nrel P : M\n", 3, "unknown sort 'M' in 'P'"),
    ("sort N\nconst 0 : N\nrel P : N\nconst 0 : N\n", 4,
     "duplicate symbol '0'"),
    ("sort N\nfamily a : N countable\nconst a : N\n", 2,
     "family name 'a' clashes with existing symbol"),
    ("sort N\nconst a : N\n\nfamily F : N = { b a }\n", 4,
     "family member 'a' clashes with symbol"),
    ("sort N\nfamily D : N countable scheme frob\n", 2,
     "unknown enumeration scheme 'frob'"),
    ("sort N\nfamily D : N countable junk here\n", 2,
     "expected 'countable [scheme <name>]'"),
], ids=["unknown-sort", "duplicate-symbol", "family-name-clash",
        "family-member-clash", "unknown-scheme", "junk-after-countable"])
def test_vocabulary_errors_name_their_line(text, line, message, tmp_path,
                                           capsys):
    with pytest.raises(SyntaxError_) as info:
        parse_vocabulary(text)
    assert (info.value.line, info.value.message) == (line, message)
    bad = tmp_path / "bad.voc"
    bad.write_text(text)
    assert main(["applicability", "--vocab", str(bad)]) == 2
    assert capsys.readouterr().err == \
        f"omega: {message} (line {line}, col 1)\n"


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


# --- interning ---------------------------------------------------------------

_X = Var("x", "N")
_ZERO = Const("0", "N")
_PX = Atom("P", (_X,))
NODES = [(Var, ("x", "N")), (Const, ("0", "N")),
         (FamilyMember, ("D", (1,), "N")), (App, ("S", (_ZERO,), "N")),
         (Atom, ("P", (_ZERO,))), (Eq, (_ZERO, _X)), (Absurd, ()),
         (Not, (_PX,)), (And, (_PX, BOT)), (Or, (_PX, BOT)),
         (Forall, (_X, _PX)), (Exists, (_X, _PX)),
         (SchemaConj, (_X, _PX, "D")), (SchemaDisj, (_X, _PX, "D"))]


@pytest.mark.parametrize("cls,parts", NODES, ids=lambda v: getattr(
    v, "__name__", ""))
def test_equal_fields_give_one_node(cls, parts):
    node = cls(*parts)
    names = [f.name for f in dataclasses.fields(cls)]
    assert cls(*parts) is node
    assert cls(**dict(zip(names, parts))) is node
    assert dataclasses.replace(node) is node
    assert type(node)(*(getattr(node, n) for n in names)) is node
    assert node == cls(*parts) and hash(node) == hash(cls(*parts))
    for name in names + ["x", "_summary"]:  # a field, or any other name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, name)


def test_defaulted_fields_are_filled_in():
    assert Var("x") is Var("x", None) is Var(name="x")
    assert Atom("Q") is Atom("Q", ()) is Atom(rel="Q")
    assert Absurd() is BOT
    assert dataclasses.replace(Var("x", "N"), sort=None) is Var("x")
    assert Var("x") is not Var("x", "N")


def _table_sizes():
    return sum(len(cls._table) for cls, _ in NODES)


def test_unreferenced_nodes_leave_the_table():
    t = App("S", (FamilyMember("D", (7,), "N"),), "N")
    key = (t.func, t.args, t.sort)
    gone = weakref.ref(t)
    assert App._table[key]() is t
    del t
    gc.collect()
    assert gone() is None and key not in App._table
    # rounds that build and drop formulas leave the tables as they found them
    sizes = []
    for _ in range(3):
        fs = [parse_formula(f"forall x:N. (P(S(x)) | x != D_{i})", NAT)
              for i in range(200)]
        assert len(set(fs)) == 200
        del fs
        gc.collect()
        sizes.append(_table_sizes())
    assert sizes[0] == sizes[1] == sizes[2]


def test_deep_formulas_need_no_recursion():
    def chain():
        f = Atom("P", (_X,))
        for i in range(10_000):
            f = Not(f) if i % 2 else Exists(_X, f) if i % 4 else And(f, _PX)
        return f

    f, g = chain(), chain()
    assert f is g and f == g and len({f, g}) == 1 and f in {g}
    assert free_variables(f) == frozenset()
    assert free_variables(And(_PX, f)) == {"x"}
    assert quantifier_rank(f) == quantifier_rank(Not(f)) == 2_500


def _chain(kind, depth):
    """A chain `depth` connectives deep over the atoms a0, a1, ...: nested
    negations, or a right-deep & or | chain."""
    f = Atom(f"a{depth}")
    for i in reversed(range(depth)):
        f = Not(f) if kind is Not else kind(Atom(f"a{i}"), f)
    return f


@pytest.mark.parametrize("kind,sign", [(Not, None), (And, " & "),
                                       (Or, " | ")])
def test_deep_chains_print(kind, sign):
    depth = 10_000
    if kind is Not:
        want = "~" * depth + f"a{depth}"
    else:
        want = "".join(f"(a{i}{sign}" for i in range(depth)) + \
            f"a{depth}" + ")" * depth
    assert print_formula(_chain(kind, depth)) == want


def _timed_print(printer, node):
    start = time.perf_counter()
    text = printer(node)
    assert time.perf_counter() - start < 1.0
    return text


def test_deep_terms_and_binders_print():
    """A deep numeral, deep quantifier nests and deep nests of a quantifier
    over a conjunction print at once, at depths past any recursion limit."""
    t = Const("0", "N")
    for _ in range(5000):
        t = App("S", (t,), "N")
    assert _timed_print(print_term, t) == "S(" * 5000 + "0" + ")" * 5000
    f = _PX
    for _ in range(10_000):
        f = Forall(_X, f)
    assert _timed_print(print_formula, f) == "forall x:N. " * 10_000 + "P(x)"
    for depth in (500, 10_000):
        f = _PX
        for _ in range(depth):
            f = Exists(_X, And(f, _PX))
        assert _timed_print(print_formula, f) == (
            "exists x:N. (" * depth + "P(x)" + " & P(x))" * depth)


def test_printing_by_loop_gives_the_recursive_text():
    """Mixed formulas 120 connectives deep over leaves of every kind, under
    ~ too, print as the recursive reference printer prints them."""
    c = Const("0", "N")
    d = FamilyMember("D", (2, -1), "N")
    leaves = [Atom("p"), Absurd(), Eq(c, c), Not(Eq(c, c)), _PX,
              Forall(_X, _PX), Exists(_X, Not(_PX)), Atom("<", (c, _X)),
              Atom("R", (App("S", (d,), "N"), FamilyMember("D", (3,), "N"))),
              SchemaConj(_X, _PX, "D"), SchemaDisj(_X, Not(_PX), "D")]
    rng = random.Random(8)

    def formula(depth):
        if depth == 0:
            return rng.choice(leaves)
        kind = rng.choice((Not, Not, And, Or))
        if kind is Not:
            return Not(formula(depth - 1))
        if rng.random() < 0.5:
            return kind(formula(depth - 1), rng.choice(leaves))
        return kind(rng.choice(leaves), formula(depth - 1))

    for _ in range(100):
        f = formula(120)
        assert print_formula(f) == reference_print(f)


def test_printers_reject_the_other_kind():
    with pytest.raises(TypeError, match="not a term"):
        print_term(_PX)
    with pytest.raises(TypeError, match="not a formula"):
        print_formula(_X)


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
