import pytest

from omegalogic.syntax import (
    App, Atom, Const, ConstantFamily, Eq, Not, SyntaxError_, parse_formula,
    parse_vocabulary,
)
from omegalogic.structures import (
    EvalError, FiniteStructure, Valuation, all_finite_structures, embed_search,
    eval_sentence, is_isomorphic, parse_structure, permissible,
    valuation_of_structure,
)
from omegalogic.types_atomicity import scott_sentence_finite


ORD = parse_vocabulary("sort S\nrel < : S S\nfamily Names : S = { a b c }")
NAT = parse_vocabulary("sort N\nconst 0 : N\nfun S : N -> N\nrel P : N")


def chain(n, vocab=ORD):
    dom = "abcde"[:n]
    rel = {(dom[i], dom[j]) for i in range(n) for j in range(n) if i < j}
    return FiniteStructure(vocab, {"S": dom}, {"<": rel})


OMEGA_SUCC_TEXT = """
structure omega
generated by tau
"""


def omega_succ():
    voc = parse_vocabulary("sort N\nconst 0 : N\nfun S : N -> N")
    return parse_structure(OMEGA_SUCC_TEXT, voc)


def test_finite_eval_exists():
    s = FiniteStructure(NAT, {"N": ("e0", "e1")},
                        {"P": {("e0",)}}, {"S": {"e0": "e0", "e1": "e1"}},
                        {"0": "e0"})
    r = eval_sentence(s, parse_formula("exists x:N. P(x)", NAT))
    assert r.value == "true"
    r2 = eval_sentence(s, parse_formula("forall x:N. P(x)", NAT))
    assert r2.value == "false"


def test_term_generated_unknown():
    s = omega_succ()
    f = parse_formula("exists x:N. S(x) = 0", s.vocab)
    assert eval_sentence(s, f, fuel=10).value == "unknown"


def test_term_generated_decides_with_witness():
    s = omega_succ()
    f = parse_formula("exists x:N. S(x) = S(S(0))", s.vocab)
    assert eval_sentence(s, f, fuel=5).value == "true"


def test_fuel_zero_with_quantifier_errors():
    s = omega_succ()
    with pytest.raises(EvalError):
        eval_sentence(s, parse_formula("forall x:N. x = x", s.vocab), fuel=0)


def test_fuel_monotonicity():
    s = omega_succ()
    f = parse_formula("exists x:N. x = S(S(S(0)))", s.vocab)
    decided_at = None
    for fuel in range(1, 12):
        v = eval_sentence(s, f, fuel).value
        if decided_at is None and v != "unknown":
            decided_at = v
        elif decided_at is not None:
            assert v == decided_at


def test_ground_term_enumeration_shortlex():
    s = omega_succ()
    elems = s.enumerate_elements(4)
    assert [str(e) for e in elems] == [
        str(x) for x in [
            Const("0", "N"),
        ]] + [str(e) for e in elems[1:]]
    # first four distinct elements: 0, S(0), S(S(0)), S(S(S(0)))
    from omegalogic.syntax import print_term
    assert [print_term(e) for e in elems] == ["0", "S(0)", "S(S(0))", "S(S(S(0)))"]


def test_rewrite_collapse_terminates():
    voc = parse_vocabulary("sort N\nconst 0 : N\nfun S : N -> N")
    s = parse_structure("structure z\ngenerated by tau\nrewrite S(x) -> x", voc)
    elems = s.enumerate_elements(10)
    assert len(elems) == 1  # everything collapses to 0


def test_diagram_valuation_linear_order():
    s = chain(3)
    v = valuation_of_structure(s, "Names")
    a, b, c = Const("a", "S"), Const("b", "S"), Const("c", "S")
    lt = lambda x, y: parse_formula(f"{x} < {y}", ORD)
    assert v.value(lt("a", "b")) is True
    assert v.value(lt("a", "c")) is True
    assert v.value(lt("b", "c")) is True
    assert v.value(lt("b", "a")) is False


def test_diagram_agrees_with_eval():
    s = chain(3)
    v = valuation_of_structure(s, "Names")
    for x in "abc":
        for y in "abc":
            f = parse_formula(f"{x} < {y}", ORD)
            ev = eval_sentence(s, f)
            assert v.value(f) is (ev.value == "true")


def test_naming_family_too_small():
    voc = parse_vocabulary("sort S\nrel < : S S\nfamily Two : S = { a b }")
    s = FiniteStructure(voc, {"S": ("x", "y", "z")}, {"<": set()})
    with pytest.raises(EvalError):
        valuation_of_structure(s, "Two")


def test_diagram_is_permissible():
    for n in (1, 2, 3):
        v = valuation_of_structure(chain(n), "Names")
        assert permissible(v)


def test_inconsistent_function_assignment_rejected():
    # f(a)=b, f(a)=c, b != c all true
    voc = parse_vocabulary(
        "sort S\nfun f : S -> S\nconst a : S\nconst b : S\nconst c : S")
    from omegalogic.syntax import App
    a, b, c = Const("a", "S"), Const("b", "S"), Const("c", "S")
    fa = App("f", (a,), "S")
    assignment = {}
    terms = [a, b, c, fa, App("f", (b,), "S"), App("f", (c,), "S")]
    for t1 in terms:
        for t2 in terms:
            assignment[Eq(t1, t2)] = t1 == t2
    assignment[Eq(fa, b)] = True
    assignment[Eq(fa, c)] = True
    assignment[Eq(b, c)] = False
    assignment[Eq(c, b)] = False
    v = Valuation(voc, assignment=assignment)
    verdict = permissible(v)
    assert not verdict
    assert "inconsistent" in verdict.reason


def test_self_identity_false_rejected():
    voc = parse_vocabulary("sort S\nconst a : S")
    a = Const("a", "S")
    v = Valuation(voc, assignment={Eq(a, a): False})
    verdict = permissible(v)
    assert not verdict
    assert "=I" in verdict.reason


def test_embed_chain_into_longer():
    m = embed_search(chain(2), chain(3))
    assert m is not None
    assert len(set(m.values())) == 2


def test_no_embedding_by_cardinality():
    assert embed_search(chain(3), chain(2)) is None


def test_embedding_composition():
    m1 = embed_search(chain(2), chain(3))
    m2 = embed_search(chain(3), chain(4))
    comp = {k: m2[v] for k, v in m1.items()}
    s2, s4 = chain(2), chain(4)
    for x in comp:
        for y in comp:
            assert ((x, y) in s2.relations["<"]) == (
                (comp[x], comp[y]) in s4.relations["<"])


def test_structure_file_finite():
    text = """
structure c3
domain S { a b c }
rel < = { (a,b) (a,c) (b,c) }
"""
    s = parse_structure(text, ORD)
    assert s.name == "c3"
    assert s.relations["<"] == {("a", "b"), ("a", "c"), ("b", "c")}


def test_structure_file_fun_const():
    text = """
structure succ3
domain N { a b c }
fun S = { a->b b->c c->c }
const 0 = a
"""
    s = parse_structure(text, NAT)
    assert s.apply_fun("S", ["a"]) == "b"
    assert s.constants["0"] == "a"


def test_all_finite_structures_count():
    voc = parse_vocabulary("sort S\nrel P : S")
    assert len(list(all_finite_structures(voc, 2))) == 4  # subsets of 2 elems


def test_is_isomorphic_chains():
    assert is_isomorphic(chain(3), chain(3))
    assert not is_isomorphic(chain(3), chain(2))
    # reversed 3-chain is isomorphic to the 3-chain as abstract orders
    rev = FiniteStructure(ORD, {"S": "abc"},
                          {"<": {("c", "b"), ("c", "a"), ("b", "a")}})
    assert is_isomorphic(chain(3), rev)


def test_integer_lt_decider():
    voc = parse_vocabulary(
        "sort Z\nrel < : Z Z\nconst 0 : Z\nfamily I : Z countable scheme integers")
    s = parse_structure(
        "structure ints\ngenerated by I\nrel-decide < by integer-lt", voc)
    f = parse_formula("I[-2] < I[5]", voc)
    assert eval_sentence(s, f, fuel=1).value == "true"
    g = parse_formula("I[3] < I[3]", voc)
    assert eval_sentence(s, g, fuel=1).value == "false"


def test_rational_lt_decider():
    voc = parse_vocabulary(
        "sort Q\nrel < : Q Q\nfamily R : Q countable scheme rationals")
    s = parse_structure(
        "structure rats\ngenerated by R\nrel-decide < by rational-lt", voc)
    # 1/2 < 2/3
    f = parse_formula("R[1,2] < R[2,3]", voc)
    assert eval_sentence(s, f, fuel=1).value == "true"
    # density probe: between any two there is a third (bounded check stays unknown
    # rather than false)
    g = parse_formula("exists x:Q. (R[0,1] < x) & (x < R[1,1])", voc)
    assert eval_sentence(s, g, fuel=20).value == "true"


def test_embed_presentation_into_itself_is_identity():
    s = omega_succ()
    m = embed_search(s, s, bound=6)
    assert m is not None and len(m) == 6
    assert all(k == v for k, v in m.items())


def test_embed_presentation_into_finite_cycle_fails():
    cycle = parse_structure("""
structure cycle3
domain N { a b c }
fun S = { a->b b->c c->a }
const 0 = a
""", omega_succ().vocab)
    assert embed_search(omega_succ(), cycle, bound=6) is None


DIFF_VOCAB = parse_vocabulary(
    "sort S\nrel P : S\nfun f : S -> S\nconst c : S")


def _embeds_by_eval(a, b, m):
    """`m` is an injective map preserving P, f and c both ways, judged by
    evaluating ground atoms over the diagram names in each structure."""
    def name(e):
        return Const(e, "S")

    def same(fa, fb):
        return eval_sentence(a, fa).value == eval_sentence(b, fb).value

    c = Const("c", "S")
    if len(set(m.values())) != len(m):
        return False
    for x in m:
        if not same(Atom("P", (name(x),)), Atom("P", (name(m[x]),))) or \
                not same(Eq(c, name(x)), Eq(c, name(m[x]))):
            return False
        for y in m:
            if not same(Eq(App("f", (name(x),), "S"), name(y)),
                        Eq(App("f", (name(m[x]),), "S"), name(m[y]))):
                return False
    return True


def test_map_checks_agree_with_evaluation():
    structures = [s for n in (1, 2)
                  for s in all_finite_structures(DIFF_VOCAB, n)]
    for s in structures:
        scott = scott_sentence_finite(s)
        for t in structures:
            iso = eval_sentence(t, scott).value == "true"
            assert is_isomorphic(s, t) == iso
            m = embed_search(s, t)
            if m is not None:
                assert _embeds_by_eval(s, t, m)
            if s.size() == t.size():
                assert (m is not None) == iso


@pytest.mark.parametrize("line", [
    "domain S a b",             # no braces
    "fun S = { a }",            # entry without an arrow
    "const 0",                  # no value
    "rel < = { (a zz) }",       # tuple outside the domain
    "fun S = { a->zz }",        # image outside the domain
    "fun S = { zz->a }",        # argument outside the domain
    "const 0 = qq",             # constant outside the domain
])
def test_structure_file_errors_name_the_line(line):
    voc = parse_vocabulary("sort S\nrel < : S S\nfun S : S -> S\nconst 0 : S")
    text = f"\nstructure bad\ndomain S {{ a b }}\n{line}\n"
    with pytest.raises(SyntaxError_) as err:
        parse_structure(text, voc)
    assert err.value.line == 4
