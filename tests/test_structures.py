import itertools
import os
import random
from collections import Counter

import pytest

from omegalogic.syntax import (
    Absurd, And, App, Atom, Const, Eq, FamilyMember, Not, Or,
    SyntaxError_, parse_formula, parse_vocabulary,
)
from omegalogic.structures import (
    BUILTIN_DECIDERS, EvalError, FiniteStructure, Valuation, _indices,
    all_finite_structures, embed_search, eval_sentence, is_isomorphic,
    load_structure, map_defect, parse_structure, permissible,
    valuation_of_structure,
)
from omegalogic.types_atomicity import scott_sentence_finite
from omegalogic.cli import main


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


def test_propositionally_inconsistent_assignment_rejected():
    """Atoms valued consistently, but a conjunction called true whose
    conjunct is false."""
    voc = parse_vocabulary("sort S\nrel P : S\nrel Q : S\nconst a : S")
    pa, qa = Atom("P", (Const("a", "S"),)), Atom("Q", (Const("a", "S"),))
    both = And(pa, qa)
    v = Valuation(voc, assignment={pa: False, qa: True, both: True})
    verdict = permissible(v)
    assert not verdict
    assert verdict.reason == "propositionally inconsistent true-set"
    assert verdict.witnesses == (both,)
    assert permissible(Valuation(voc, assignment={pa: False, qa: True,
                                                  both: False}))


P_A = Atom("P", (Const("a", "S"),))
Q_A = Atom("Q", (Const("a", "S"),))
PQ_VOCAB = parse_vocabulary("sort S\nrel P : S\nrel Q : S\nconst a : S")


@pytest.mark.parametrize("assignment,witness", [
    ({P_A: False, And(P_A, Q_A): True}, And(P_A, Q_A)),
    ({Not(P_A): True, Not(Not(P_A)): True}, Not(Not(P_A))),
    ({P_A: False, Or(P_A, Q_A): True, Not(Or(P_A, Q_A)): True},
     Not(Or(P_A, Q_A))),
], ids=["false-conjunct", "double-negation", "negated-disjunction"])
def test_compound_contradicting_its_parts_rejected(assignment, witness):
    """Each compound is checked against its parts as v reads them: a part v
    assigns counts as assigned, and one false conjunct settles `&` though
    the other conjunct is unassigned."""
    verdict = permissible(Valuation(PQ_VOCAB, assignment=assignment))
    assert not verdict
    assert verdict.reason == "propositionally inconsistent true-set"
    assert verdict.witnesses == (witness,)


def test_assignment_no_atom_values_satisfy_rejected():
    """The contradiction runs through P(a), which v leaves unassigned, so
    no compound contradicts its parts as v reads them."""
    assignment = {And(P_A, Q_A): True, Not(P_A): True}
    verdict = permissible(Valuation(PQ_VOCAB, assignment=assignment))
    assert not verdict
    assert verdict.reason == "propositionally inconsistent true-set"
    assert verdict.witnesses == (And(P_A, Q_A), Not(P_A))
    assert permissible(Valuation(PQ_VOCAB, assignment={
        And(P_A, Q_A): True, Not(Q_A): False}))


def _strict_value(f, v):
    """The strict three-valued walker `permissible` once used: one unknown
    part makes the whole unknown, and assigned compounds are recomputed."""
    if isinstance(f, (Atom, Eq)):
        return v.value(f)
    if isinstance(f, Absurd):
        return False
    if isinstance(f, Not):
        b = _strict_value(f.body, v)
        return None if b is None else not b
    if isinstance(f, (And, Or)):
        a, b = _strict_value(f.left, v), _strict_value(f.right, v)
        if a is None or b is None:
            return None
        return (a and b) if isinstance(f, And) else (a or b)
    return None


def _classical(f, row):
    if isinstance(f, Atom):
        return row[f]
    if isinstance(f, Not):
        return not _classical(f.body, row)
    if isinstance(f, And):
        return _classical(f.left, row) and _classical(f.right, row)
    if isinstance(f, Or):
        return _classical(f.left, row) or _classical(f.right, row)
    return False  # ⋏


def test_permissibility_against_brute_force_and_the_strict_walker():
    """Random explicit assignments over P(a), Q(a) and ⋏ with compounds up
    to depth 2: an assignment is rejected exactly when no atom values
    satisfy it, so every one the strict walker rejects is rejected."""
    leaves = [P_A, Q_A, Absurd()]
    depth1 = leaves + [Not(f) for f in leaves] + [
        c(f, g) for c in (And, Or) for f in leaves for g in leaves]
    pool = depth1 + [Not(f) for f in depth1] + [
        c(f, g) for c in (And, Or) for f in depth1 for g in depth1]
    rows = [{P_A: p, Q_A: q} for p in (False, True) for q in (False, True)]
    rng = random.Random(16)
    newly_rejected = 0
    for _ in range(3000):
        assignment = {f: rng.random() < 0.5
                      for f in rng.sample(pool, rng.randint(1, 5))}
        v = Valuation(PQ_VOCAB, assignment=assignment)
        verdict = bool(permissible(v))
        satisfiable = any(all(_classical(f, row) == b
                              for f, b in assignment.items()) for row in rows)
        strict_rejects = any(_strict_value(f, v) not in (None, b)
                             for f, b in assignment.items())
        assert verdict == satisfiable, assignment
        assert not (verdict and strict_rejects), assignment
        newly_rejected += not verdict and not strict_rejects
    assert newly_rejected > 0


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


def _raised(fn, args):
    try:
        return fn(args)
    except Exception as e:  # the class and message are what must agree
        return type(e), str(e)


def test_rational_lt_raises_as_the_two_pass_form_did():
    def two_pass(args):  # the earlier form, reading indices twice
        return (_indices(args[0])[0] * _indices(args[1])[1]
                < _indices(args[1])[0] * _indices(args[0])[1])

    members = [FamilyMember("D", idx, "Q")
               for idx in [(), (1,), (-1, 2), (1, 3), (3, 1)]]
    pool = members + [Const("0", "Q")]
    inputs = [()] + [(a,) for a in pool] + [
        (a, b) for a in pool for b in pool]
    for args in inputs:
        assert _raised(BUILTIN_DECIDERS["rational-lt"], args) == \
            _raised(two_pass, args), args


def test_integer_lt_raises_as_the_member_by_member_form_did():
    def by_member(args):  # the earlier form, one member at a time
        return _indices(args[0])[0] < _indices(args[1])[0]

    members = [FamilyMember("D", idx, "Z") for idx in [(), (1,), (-1,),
                                                       (2, 5)]]
    pool = members + [Const("0", "Z"), "D_1"]
    inputs = [(), 7] + [(a,) for a in pool] + [
        (a, b) for a in pool for b in pool] + [(members[1],) * 3]
    for args in inputs:
        assert _raised(BUILTIN_DECIDERS["integer-lt"], args) == \
            _raised(by_member, args), args


def test_ill_fitting_deciders_are_rejected_where_they_are_named():
    # each parsed before, then raised IndexError or, for integer-lt over
    # the rationals, compared numerators only (D[1,3] < D[1,2] was false)
    ints = parse_vocabulary("sort Z\nrel < : Z Z\nrel P : Z\n"
                            "family D : Z countable scheme integers")
    rats = parse_vocabulary("sort Q\nrel < : Q Q\n"
                            "family D : Q countable scheme rationals")
    named = parse_vocabulary("sort Z\nrel < : Z Z\nfamily D : Z = { a b }")
    for text, voc, why in [
            ("rel-decide P by integer-lt", ints, "binary relation on Z"),
            ("rel-decide < by rational-lt", ints, "index arity 2, and D is"),
            ("rel-decide < by integer-lt", rats, "index arity 1, and D is"),
            ("rel-decide < by integer-lt", named, "index arity 1, and D is")]:
        with pytest.raises(SyntaxError_) as e:
            parse_structure(f"structure s\ngenerated by D\n{text}", voc)
        assert e.value.line == 3 and why in e.value.message, text
    s = parse_structure("structure s\ngenerated by D\n"
                        "rel-decide < by rational-lt", rats)
    f = parse_formula("D[1,3] < D[1,2]", rats)
    assert eval_sentence(s, f, fuel=1).value == "true"


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


# -- `map_defect` against the form that asked `holds` of every tuple


def reference_map_defect(a, b, mapping):
    """`map_defect` as it was before the relation test was shared: `holds`
    asked of both sides at every tuple."""
    for c in a.vocab.constant_terms():
        src = a.element_of(c)
        if src in mapping and mapping[src] != b.element_of(c):
            return ("const", c.name)
    pools = {sort: [] for sort in a.vocab.sorts}
    for e in mapping:
        pools[a.sort_of(e)].append(e)
    for d in a.vocab.relations():
        for src in itertools.product(*(pools[sort] for sort in d.arg_sorts)):
            if a.holds(d.name, src) != b.holds(
                    d.name, [mapping[x] for x in src]):
                return ("rel", d.name, src)
    for d in a.vocab.functions():
        for src in itertools.product(*(pools[sort] for sort in d.arg_sorts)):
            fa = a.apply_fun(d.name, src)
            if fa in mapping and mapping[fa] != b.apply_fun(
                    d.name, [mapping[x] for x in src]):
                return ("fun", d.name, src)
    return None


# the integers with a unary P, decided by a callable or by nothing
P_INTEGERS = parse_vocabulary("sort Z\nrel < : Z Z\nrel P : Z\nconst 0 : Z\n"
                              "family D : Z countable scheme integers")


def _p_integers(decided):
    s = parse_structure("structure z\ngenerated by D\nrewrite 0 -> D_0\n"
                        "rel-decide < by integer-lt", P_INTEGERS)
    if decided:
        s.rel_deciders["P"] = lambda args: args[0].indices[0] % 2 == 0
    return s


def _random_partial_map(rng, a_elems, b_elems):
    """A map from some of `a_elems` to `b_elems`, often not injective."""
    chosen = rng.sample(a_elems, rng.randint(0, len(a_elems)))
    return {e: rng.choice(b_elems) for e in chosen}


def test_map_defect_matches_holds_reference():
    rng = random.Random(2202)
    assets = os.path.join(os.path.dirname(__file__), "..", "assets")
    pres = [load_structure(os.path.join(assets, f"{name}.struct"))
            for name in ("omega-succ", "integers", "rationals")]
    pairs = [(p, p) for p in pres] + [
        (_p_integers(x), _p_integers(y)) for x in (True, False)
        for y in (True, False)]
    finite = [s for n in (1, 2) for s in all_finite_structures(DIFF_VOCAB, n)]
    seen = set()
    for _ in range(400):
        if rng.random() < 0.5:
            a, b = rng.choice(pairs)
            a_elems = a.enumerate_elements(rng.randint(1, 8))
            b_elems = b.enumerate_elements(rng.randint(1, 8))
        else:
            a, b = rng.choice(finite), rng.choice(finite)
            a_elems, b_elems = list(a.domains["S"]), list(b.domains["S"])
        m = _random_partial_map(rng, a_elems, b_elems)
        want = _raised(lambda m: reference_map_defect(a, b, m), m)
        assert _raised(lambda m: map_defect(a, b, m), m) == want, (
            a.name, b.name, m)
        seen.add(want and want[0])
    # every outcome came up: none, each kind of defect, a missing decider
    assert seen == {None, "const", "rel", "fun", EvalError}, seen


# -- the embedding search as it was: recursive, each step checked whole


def reference_embedding(a, b):
    """The first embedding of `a` into `b`, each element in turn mapped to
    the first unused candidate for which the whole partial map passes
    `map_defect`, recursing once per element."""
    elems = [e for s in a.vocab.sorts for e in a.domains[s]]

    def extend(i, mapping, used):
        if i == len(elems):
            return dict(mapping)
        e = elems[i]
        for cand in b.domains[a.sort_of(e)]:
            if cand in used:
                continue
            mapping[e] = cand
            if map_defect(a, b, mapping) is None:
                res = extend(i + 1, mapping, used | {cand})
                if res is not None:
                    return res
            del mapping[e]
        return None

    return extend(0, {}, set())


# two sorts, a relation that takes A twice, a 0-ary relation and a
# function across the sorts
CROSS_VOCAB = parse_vocabulary(
    "sort A\nsort B\nrel T : A B A\nrel Z :\nfun g : A -> B\nconst k : B")


def _cross(rng, n_a, n_b):
    dom = {"A": [f"a{i}" for i in range(n_a)],
           "B": [f"b{i}" for i in range(n_b)]}
    return FiniteStructure(
        CROSS_VOCAB, dom,
        {"T": {t for t in itertools.product(dom["A"], dom["B"], dom["A"])
               if rng.random() < 0.3},
         "Z": {()} if rng.random() < 0.8 else set()},
        {"g": {x: rng.choice(dom["B"]) for x in dom["A"]}},
        {"k": rng.choice(dom["B"])})


def _relabelled(rng, s):
    """`s` with each sort's elements permuted."""
    m = {}
    for sort, es in s.domains.items():
        m.update(zip(es, rng.sample(es, len(es))))
    return FiniteStructure(
        s.vocab, s.domains,
        {r: {tuple(map(m.get, t)) for t in ext}
         for r, ext in s.relations.items()},
        {f: {tuple(map(m.get, k)): m[v] for k, v in table.items()}
         for f, table in s.functions.items()},
        {c: m[e] for c, e in s.constants.items()})


def test_searches_match_the_whole_map_reference():
    """`embed_search` returns the map of the reference search, entry for
    entry in the same order, and `is_isomorphic` answers as it does, on
    every structure of size <= 3 over P, f and c against a relabelled copy
    and three drawn structures, and on two-sorted ones.  Sources with
    f(e_i) = e_j for i < j put a function value at older elements on the
    element mapped next."""
    rng = random.Random(2027)
    small = [s for n in (1, 2, 3) for s in all_finite_structures(DIFF_VOCAB, n)]
    pairs = [(s, t) for s in small
             for t in [_relabelled(rng, s)] + rng.sample(small, 3)]
    cross = [_cross(rng, rng.randint(1, 3), rng.randint(1, 2))
             for _ in range(150)]
    pairs += [(s, t) for s in cross
              for t in (_relabelled(rng, s), rng.choice(cross))]
    forward = found = 0
    for a, b in pairs:
        want = reference_embedding(a, b)
        got = embed_search(a, b)
        assert (got and list(got.items())) == (want and list(want.items())), (
            a.relations, a.functions, b.relations, b.functions)
        same_size = all(len(a.domains[x]) == len(b.domains[x])
                        for x in a.vocab.sorts)
        assert is_isomorphic(a, b) == (same_size and want is not None)
        found += want is not None
        forward += any(int(v[1]) > int(k[0][1])
                       for k, v in a.functions.get("f", {}).items())
    assert found > 800 and forward > 1000, (found, forward)


def test_new_element_check_matches_the_whole_map():
    """On random partial maps that break nothing before their last entry,
    `map_defect` with that entry as `new` finds a defect exactly when the
    whole-map check does; the one through a function value at an older
    element is among them."""
    rng = random.Random(64)
    small = [s for n in (1, 2, 3) for s in all_finite_structures(DIFF_VOCAB, n)]
    draws = (lambda: rng.choice(small),
             lambda: _cross(rng, rng.randint(1, 3), 2))
    kinds = Counter()
    for _ in range(3000):
        draw = rng.choice(draws)
        a, b, m = draw(), draw(), {}
        if map_defect(a, b, m) is not None:  # a 0-ary relation
            kinds["empty"] += 1
            continue
        for e in rng.sample([e for x in a.vocab.sorts for e in a.domains[x]],
                            k=a.size()):
            m[e] = rng.choice(b.domains[a.sort_of(e)])
            whole = map_defect(a, b, m)
            assert (map_defect(a, b, m, e) is None) == (whole is None), (
                a.relations, a.functions, m)
            if whole is not None:
                kinds[whole[0]] += 1
                break
    assert min(kinds.values()) > 50, kinds
    assert set(kinds) == {"empty", "const", "rel", "fun"}
    # f(e0) = e1, mapped in that order: only the value at e0 is broken
    a = FiniteStructure(DIFF_VOCAB, {"S": ["e0", "e1"]}, {"P": set()},
                        {"f": {"e0": "e1", "e1": "e1"}}, {"c": "e0"})
    b = FiniteStructure(DIFF_VOCAB, {"S": ["x0", "x1"]}, {"P": set()},
                        {"f": {"x0": "x0", "x1": "x1"}}, {"c": "x0"})
    assert map_defect(a, b, {"e0": "x0"}) is None
    assert map_defect(a, b, {"e0": "x0", "e1": "x1"}, "e1") == (
        "fun", "f", ("e0",))


def test_searches_check_0_ary_relations():
    """A step checked by its new element asks no 0-ary relation, so the
    search checks its first step, or an empty source, with the whole map:
    two structures that differ only there, with one element each or none,
    have no embedding either way."""
    voc = parse_vocabulary("sort S\nrel Z :")
    for n in (1, 0):
        a = FiniteStructure(voc, {"S": [f"x{i}" for i in range(n)]},
                            {"Z": {()}})
        b = FiniteStructure(voc, {"S": [f"y{i}" for i in range(n)]},
                            {"Z": set()})
        assert embed_search(a, b) is None and embed_search(b, a) is None
        assert not is_isomorphic(a, b) and not is_isomorphic(b, a)
        assert is_isomorphic(a, a) and embed_search(b, b) == {
            f"y{i}": f"y{i}" for i in range(n)}


def test_large_pure_sets_need_no_recursion():
    """The search keeps its place on an explicit stack, so a 2,000-element
    pure set is searched without running out of recursion."""
    voc = parse_vocabulary("sort S")
    a = FiniteStructure(voc, {"S": [f"x{i}" for i in range(2000)]})
    b = FiniteStructure(voc, {"S": [f"y{i}" for i in range(2000)]})
    assert is_isomorphic(a, b)
    assert embed_search(a, b) == {f"x{i}": f"y{i}" for i in range(2000)}


# -- the isomorphism search `is_isomorphic` replaced, as its oracle


def _image(s, m):
    """The constants, relations and function graphs of `s`, carried along
    the map `m`."""
    return (tuple(m[s.constants[d.name]] for d in s.vocab.constants()),
            tuple(frozenset(tuple(map(m.get, t)) for t in s.relations[d.name])
                  for d in s.vocab.relations()),
            tuple(frozenset((tuple(map(m.get, k)), m[v])
                            for k, v in s.functions[d.name].items())
                  for d in s.vocab.functions()))


def _relabellings(s):
    """The images of `s` under every sort-respecting permutation of its
    domains."""
    sorts = s.vocab.sorts
    out = set()
    for perms in itertools.product(*(itertools.permutations(s.domains[x])
                                     for x in sorts)):
        out.add(_image(s, {e: y for x, p in zip(sorts, perms)
                           for e, y in zip(s.domains[x], p)}))
    return out


def _assert_iso_matches_permutations(structures):
    """`is_isomorphic` on every pair, against brute force: two structures
    on the same domains are isomorphic iff one is a relabelling of the
    other, and structures on different domains are not (the structures
    given share their element names sort by sort)."""
    found = {}
    images = [_image(t, {e: e for es in t.domains.values() for e in es})
              for t in structures]
    for i, s in enumerate(structures):
        perms = _relabellings(s)
        for t, image in zip(structures[i:], images[i:]):
            want = s.domains == t.domains and image in perms
            assert is_isomorphic(s, t) == want, (s.domains, t.domains)
            found[want] = found.get(want, 0) + 1
    return found


def test_is_isomorphic_matches_permutations():
    structures = [s for n in (1, 2, 3)
                  for s in all_finite_structures(DIFF_VOCAB, n)]
    assert _assert_iso_matches_permutations(structures)[True] > len(
        structures)


def test_two_sorted_is_isomorphic_matches_permutations():
    voc = parse_vocabulary("sort A\nsort B\nrel P : A\nrel R : A B")
    structures = []
    for n_a, n_b in itertools.product(range(3), repeat=2):
        dom = {"A": [f"a{i}" for i in range(n_a)],
               "B": [f"b{i}" for i in range(n_b)]}
        ps = [(x,) for x in dom["A"]]
        rs = list(itertools.product(dom["A"], dom["B"]))
        for p in itertools.product((0, 1), repeat=len(ps)):
            for r in itertools.product((0, 1), repeat=len(rs)):
                structures.append(FiniteStructure(voc, dom, {
                    "P": {t for t, on in zip(ps, p) if on},
                    "R": {t for t, on in zip(rs, r) if on}}))
    found = _assert_iso_matches_permutations(structures)
    assert found[True] > len(structures)


def test_is_isomorphic_rejects_other_vocabularies_and_presentations():
    """Other symbols, or a symbol of the same name declared otherwise, make
    another vocabulary, and a presentation is not finite: each raises."""
    for other in ("sort S\nrel R : S S", "sort S\nrel < : S"):
        s = FiniteStructure(parse_vocabulary(other), {"S": "ab"})
        for search in (is_isomorphic, embed_search):
            with pytest.raises(EvalError, match="common vocabulary"):
                search(chain(2), s)
    nat = omega_succ()
    with pytest.raises(EvalError, match="finite structures"):
        is_isomorphic(nat, nat)
    finite = FiniteStructure(nat.vocab, {"N": ["a"]}, functions={
        "S": {"a": "a"}}, constants={"0": "a"})
    with pytest.raises(EvalError, match="finite structures"):
        is_isomorphic(finite, nat)


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


def test_unknown_generating_family_names_its_line(tmp_path, capsys):
    (tmp_path / "nat.voc").write_text("sort N\nconst 0 : N\n")
    text = "structure s over nat.voc\ngenerated by E\n"
    with pytest.raises(SyntaxError_) as info:
        parse_structure(text, base_dir=str(tmp_path))
    assert (info.value.line, info.value.message) == (
        2, "unknown constant family 'E'")
    bad = tmp_path / "bad.struct"
    bad.write_text(text)
    assert main(["scott", str(bad)]) == 2
    assert capsys.readouterr().err == \
        "omega: unknown constant family 'E' (line 2, col 1)\n"
