"""The ground-term stream of term-generated presentations, pinned against
the two enumerators it replaced: the layer-by-layer tau enumerator and the
family branch that read `2 * limit` members.  The same `tau` stream on
finite structures (the closure of the constants) and on valuations (the
first `fuel` closed terms and every constant), pinned on the paper's
omega-rule.  Also the
normalizer, pinned against the rewrite loop it replaced, and the sorts of
rewrite pattern variables."""

import itertools
import os
import random

import pytest

from omegalogic.cli import main
from omegalogic.syntax import (
    App, Atom, Const, ConstantFamily, SchemaConj, SyntaxError_, Term, Var,
    Vocabulary, _feeding_sorts, applications, parse_formula, parse_term,
    parse_vocabulary, print_term,
)
from omegalogic.structures import (
    FiniteStructure, TermGeneratedStructure, Valuation, _instantiate, _match,
    eval_sentence, parse_structure,
)
from omegalogic.omega_rules import (
    _target_eval, check_instance_sound, instantiate_schema,
)


ASSETS = os.path.join(os.path.dirname(__file__), "..", "assets")


def _voc(name):
    with open(os.path.join(ASSETS, name)) as fh:
        return parse_vocabulary(fh.read())


# -- the reference enumerators


def _shortlex(t):
    p = print_term(t)
    return len(p), p


def reference_tau(s, limit, sort=None):
    """Constants first, then every function applied to every tuple of the
    elements seen so far, one layer at a time, each layer in shortlex
    order; stops at the `limit`-th element of `sort`."""
    if limit <= 0:
        return []
    seen, seen_set, out = [], set(), []
    frontier = sorted((Const(d.name, d.result_sort)
                       for d in s.vocab.constants()), key=_shortlex)
    while frontier:
        grew = False
        for t in frontier:
            n = s.normalize(t)
            if n in seen_set:
                continue
            seen_set.add(n)
            seen.append(n)
            grew = True
            if sort is None or n.sort == sort:
                out.append(n)
                if len(out) >= limit:
                    return out
        if not grew:
            break
        frontier = []
        for d in s.vocab.functions():
            pools = [[t for t in seen if t.sort == so] for so in d.arg_sorts]
            for args in itertools.product(*pools):
                frontier.append(App(d.name, tuple(args), d.result_sort))
        frontier.sort(key=_shortlex)
    return out


def reference_family(s, limit, sort=None):
    """The first `2 * limit` members, normalised and deduplicated."""
    out, seen = [], set()
    for t in s.vocab.family(s.generated_by).enumerate_terms(limit * 2):
        if sort is not None and t.sort != sort:
            continue
        n = s.normalize(t)
        if n not in seen:
            seen.add(n)
            out.append(n)
        if len(out) >= limit:
            break
    return out


def reference(s, limit, sort=None):
    if s.generated_by == "tau":
        return reference_tau(s, limit, sort)
    return reference_family(s, limit, sort)


# -- the presentations


TWO_SORTED = parse_vocabulary(
    "sort A\nsort B\nconst a : A\nconst b : B\n"
    "fun p : A B -> A\nfun q : B B -> B\nfun r : A -> B")
TWO_CHAINS = parse_vocabulary("sort N\nsort B\nconst 0 : N\nconst b : B\n"
                              "fun S : N -> N\nfun T : B -> B")
MERGING = parse_vocabulary("sort N\nconst 0 : N\nconst 1 : N\n"
                           "fun p : N N -> N")


def presentations():
    nat = _voc("nat.voc")
    return {
        "omega-succ": parse_structure("structure s\ngenerated by tau", nat),
        "integers": parse_structure(
            "structure z\ngenerated by D\nrewrite 0 -> D_0\n"
            "rel-decide < by integer-lt", _voc("integers.voc")),
        "rationals": parse_structure(
            "structure q\ngenerated by D\nrel-decide < by rational-lt",
            _voc("rationals.voc")),
        "two-sorted": parse_structure("structure t\ngenerated by tau",
                                      TWO_SORTED),
        "two-chains": parse_structure("structure t\ngenerated by tau",
                                      TWO_CHAINS),
        "merging": parse_structure(
            "structure m\ngenerated by tau\nrewrite p(1, 1) -> 0", MERGING),
        "collapse": parse_structure(
            "structure c\ngenerated by tau\nrewrite S(x) -> x", nat),
        "family-two-sorted": parse_structure(
            "structure f\ngenerated by D", parse_vocabulary(
                "sort A\nsort B\nconst b : B\nfamily D : A countable")),
    }


@pytest.mark.parametrize("name", sorted(presentations()))
def test_stream_matches_reference(name):
    s = presentations()[name]
    for sort in (None,) + s.vocab.sorts:
        for limit in range(1, 41):
            assert s.enumerate_elements(limit, sort) == \
                reference(s, limit, sort), (sort, limit)


@pytest.mark.parametrize("name", sorted(presentations()))
def test_kept_listing_matches_reference(name):
    """One presentation asked for shorter and longer prefixes in turn
    answers each as the reference does, and a caller that changes the list
    it got changes nothing that is kept."""
    s = presentations()[name]
    for sort in (None,) + s.vocab.sorts:
        for limit in (5, 3, 40, 0, 12, 1):
            assert s.enumerate_elements(limit, sort) == \
                reference(s, limit, sort), (sort, limit)
        got = s.enumerate_elements(12, sort)
        got.append(Const("0", "N"))
        got[:3] = []
        assert s.enumerate_elements(12, sort) == reference(s, 12, sort)


def test_a_stream_that_raises_is_not_kept():
    """Naming the first member raises; the next call raises the same
    error, where a kept dead stream would answer with an empty list."""
    fam = ConstantFamily("D", "Z", scheme="bogus")
    s = TermGeneratedStructure(Vocabulary(["Z"], [], [fam]), "D")
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown enumeration scheme"):
            s.enumerate_elements(3)


def test_merged_members_do_not_truncate_the_family():
    voc = _voc("named-constants.voc")
    rewrites = "".join(f"rewrite C_{i} -> C_0\n" for i in range(1, 5))
    s = parse_structure(f"structure c\ngenerated by C\n{rewrites}", voc)
    got = [print_term(t) for t in s.enumerate_elements(3)]
    assert got == ["C_0", "C_5", "C_6"]
    assert len(reference(s, 3)) == 2  # what the `2 * limit` guess gave


def test_sort_without_ground_terms_is_an_empty_range():
    """No ground term has sort B while N is infinite: the stream for B ends
    at once, and a quantifier over B is vacuous."""
    voc = parse_vocabulary("sort N\nsort B\nconst 0 : N\nfun S : N -> N\n"
                           "rel P : B")
    s = parse_structure("structure f\ngenerated by tau", voc)
    assert s.enumerate_elements(4, "B") == []
    f = parse_formula("forall y:B. P(y)", voc)
    assert eval_sentence(s, f, fuel=4).value == "true"
    assert eval_sentence(s, parse_formula("exists y:B. P(y)", voc),
                         fuel=4).value == "false"


def test_finite_sorts_end_their_streams():
    """C has the one ground term h(b), B only b; a function whose argument
    sort E has no ground term adds nothing to B."""
    voc = parse_vocabulary(
        "sort N\nsort B\nsort C\nsort E\nconst 0 : N\nconst b : B\n"
        "fun S : N -> N\nfun h : B -> C\nfun g : N E -> B")
    s = parse_structure("structure f\ngenerated by tau", voc)
    assert [print_term(t) for t in s.enumerate_elements(5, "C")] == ["h(b)"]
    assert [print_term(t) for t in s.enumerate_elements(5, "B")] == ["b"]
    assert s.enumerate_elements(5, "E") == []
    assert len(s.enumerate_elements(5, "N")) == 5
    one = parse_formula("forall y:C. y = h(b)", voc)
    assert eval_sentence(s, one, fuel=3).value == "true"
    # a sort listed whole only at the fuel itself stays undecided
    assert eval_sentence(s, one, fuel=1).value == "unknown"


def test_limit_zero_is_empty():
    s = presentations()["omega-succ"]
    assert s.enumerate_elements(0) == []
    assert presentations()["integers"].enumerate_elements(0) == []


# -- one tau stream: what a `tau` schema ranges over on a finite structure
#    and on a valuation, as on a presentation


NAT_P = parse_vocabulary("sort N\nconst 0 : N\nfun S : N -> N\nrel P : N")
TAU_P = "/\\{ P(x) : x in tau }"


def _s_omega():
    x = Var("x", "N")
    return instantiate_schema(NAT_P, "S_OMEGA", Atom("P", (x,)), x,
                              family="tau")


def test_tau_ranges_over_the_closure_on_a_finite_structure():
    """0 and S(0) name both elements, so the omega-rule is sound here: its
    premise family is false at S(0), though P(0) holds."""
    m = FiniteStructure(NAT_P, {"N": ["a", "b"]}, {"P": {("a",)}},
                        {"S": {"a": "b", "b": "b"}}, {"0": "a"})
    assert m.closed_elements("N") == ("a", "b")
    assert eval_sentence(m, parse_formula(TAU_P, NAT_P)).value == "false"
    verdict = check_instance_sound(m, _s_omega())
    assert verdict.status == "sound"
    assert verdict.witness == "premise false: " + TAU_P


def test_an_unnamed_element_still_refutes_the_omega_rule():
    """c is named by no closed term, so every named instance holds while
    the universal fails: the rule is unsound here."""
    m = FiniteStructure(NAT_P, {"N": ["a", "b", "c"]},
                        {"P": {("a",), ("b",)}},
                        {"S": {"a": "b", "b": "a", "c": "c"}}, {"0": "a"})
    assert m.closed_elements("N") == ("a", "b")
    assert eval_sentence(m, parse_formula(TAU_P, NAT_P)).value == "true"
    assert check_instance_sound(m, _s_omega()).status == "unsound"


def test_a_valuation_spot_checks_closed_terms_beyond_the_constants():
    numerals = [Const("0", "N")]
    for _ in range(3):
        numerals.append(App("S", (numerals[-1],), "N"))
    assert list(itertools.islice(NAT_P.tau_stream("N"), 4)) == numerals
    f = parse_formula(TAU_P, NAT_P)
    facts = {Atom("P", (n,)): True for n in numerals}
    # the first `fuel` closed terms: S(S(S(0))) is beyond fuel 3
    v = Valuation(NAT_P, assignment={**facts,
                                     Atom("P", (numerals[3],)): False})
    assert _target_eval(v, f, 3).value == "true"
    assert _target_eval(v, f, 4).value == "false"
    # P(S(0)) false: the premise family is false, so the rule is sound
    v = Valuation(NAT_P, assignment={**facts,
                                     Atom("P", (numerals[1],)): False})
    assert check_instance_sound(v, _s_omega(), fuel=3).status == "sound"


def test_a_valuation_checks_every_constant_past_the_fuel():
    """Fuel 2 caps the closed terms, never the constants: the false
    instance is at the last constant, of a sort that no function feeds
    and of one that a function feeds."""
    voc = parse_vocabulary("sort N\nsort C\nfun S : N -> N\nrel P : N\n"
                           "rel Q : C\n" + "".join(
                               f"const {c}{i} : {c}\n"
                               for c in "NC" for i in range(4)))
    for sort, rel in (("C", "Q"), ("N", "P")):
        x = Var("x", sort)
        members = [Const(f"{sort}{i}", sort) for i in range(4)]
        f = SchemaConj(x, Atom(rel, (x,)), "tau")
        v = Valuation(voc, assignment={Atom(rel, (c,)): c != members[-1]
                                       for c in members})
        assert _target_eval(v, f, 2).value == "false", sort


def test_tau_on_long_chains():
    """Naming and ordering a closed term take a step on its arguments', so
    the 1,200 numerals of a successor chain, the last 1,199 deep, are
    listed without recursing through them: on a finite structure, on a
    valuation and on a presentation with a rewrite."""
    es = [f"e{i}" for i in range(1200)]
    succ = dict(zip(es, es[1:] + es[-1:]))
    m = FiniteStructure(NAT_P, {"N": es}, {"P": {(e,) for e in es[:-1]}},
                        {"S": succ}, {"0": "e0"})
    assert m.closed_elements("N") == tuple(es)
    assert eval_sentence(m, parse_formula(TAU_P, NAT_P)).value == "false"
    terms = list(itertools.islice(NAT_P.tau_stream("N"), 1200))
    assert [t.args[0] for t in terms[1:]] == terms[:-1]
    voc = parse_vocabulary("sort N\nconst 0 : N\nfun S : N -> N\n"
                           "fun D : N -> N")
    s = parse_structure("structure d\ngenerated by tau\nrewrite D(x) -> x",
                        voc)
    assert s.enumerate_elements(1200) == terms


# -- the semi-naive layers, against the layer built from every value found


def reference_tau_stream(vocab, sort=None, name=None):
    """`Vocabulary.tau_stream` with each layer built by applying every
    function to every value found so far, keeping the applications with an
    argument new in the last layer."""
    sorts = _feeding_sorts(vocab, sort)
    funs = [d for d in vocab.functions() if d.result_sort in sorts]
    layer = sorted((c for c in vocab.constant_terms() if c.sort in sorts),
                   key=lambda c: (len(c.name), c.name))
    named, found = {}, set()
    while layer:
        new = len(named)
        for t in layer:
            v = t if name is None else name(t, named)
            if v not in found:
                found.add(v)
                named[v if isinstance(v, Term) else t] = v
                if sort is None or t.sort == sort:
                    yield v
        if not funs:
            break
        fresh = set(itertools.islice(named, new, None))
        layer = sorted((a for a in applications(funs, list(named))
                        if not fresh.isdisjoint(a.args)), key=_shortlex)


SEMI_NAIVE = {
    "unary": ("sort N\nconst 0 : N\nconst 1 : N\nfun S : N -> N\n",
              "rewrite S(1) -> S(S(0))"),
    "binary": ("sort N\nconst a : N\nconst b : N\nfun f : N N -> N\n",
               "rewrite f(x, x) -> x"),
    "unary-and-binary": ("sort N\nconst 0 : N\nfun S : N -> N\n"
                         "fun p : N N -> N\n", "rewrite p(0, x) -> x"),
    "cross-sort": ("sort A\nsort B\nconst a : A\nconst b : B\n"
                   "fun g : A B -> B\nfun h : B A -> A\n",
                   "rewrite g(x, g(x, y)) -> g(x, y)"),
}


@pytest.mark.parametrize("name", sorted(SEMI_NAIVE))
def test_semi_naive_layers_match_the_full_join(name):
    voc_text, rewrite = SEMI_NAIVE[name]
    voc = parse_vocabulary(voc_text)
    s = parse_structure(f"structure s\ngenerated by tau\n{rewrite}\n", voc)
    for sort in (None,) + voc.sorts:
        for namer in (None, s.element_of):
            got = list(itertools.islice(voc.tau_stream(sort, namer), 300))
            want = list(itertools.islice(
                reference_tau_stream(voc, sort, namer), 300))
            assert got == want, (sort, namer)


# -- the family listing of valuation targets


def test_finite_family_listed_whole_for_valuations():
    names = [f"a{i}" for i in range(1, 10)]
    voc = parse_vocabulary(
        f"sort S\nrel P : S\nfamily F : S = {{ {' '.join(names)} }}")
    x = Var("x", "S")
    inst = instantiate_schema(voc, "I_OMEGA", Atom("P", (x,)), x,
                              family="F")
    facts = {n: n != "a9" for n in names}
    v = Valuation(voc, assignment={
        **{Atom("P", (Const(n, "S"),)): b for n, b in facts.items()},
        inst.conclusions[0]: False})
    m = FiniteStructure(voc, {"S": names},
                        {"P": {(n,) for n, b in facts.items() if b}})
    assert check_instance_sound(v, inst, fuel=8).status == "sound"
    assert check_instance_sound(m, inst, fuel=8).status == "sound"


# -- rewrite lines


def test_rewrite_of_a_member_is_not_a_pattern_variable():
    s = parse_structure("structure z\ngenerated by D\nrewrite D_1 -> D_0",
                        _voc("integers.voc"))
    assert [print_term(t) for t in s.enumerate_elements(3)] == \
        ["D_0", "D[-1]", "D_2"]


@pytest.mark.parametrize("lines,bad_line", [
    (["structure f over nope.voc"], 1),
    (["structure f over nat.voc", "generated by tau",
      "rewrite S(x) -> S("], 3),
    (["structure f over nat.voc", "generated by tau", "rewrite x -> 0"], 3),
    (["structure f over nat.voc", "domain N { a }", "rel Q = { (a) }"], 3),
    (["structure f over nat.voc", "domain N { a }", "fun T = { a->a }"], 3),
    (["structure f over nat.voc", "domain N { a }", "const 1 = a"], 3),
    (["structure f over nat.voc", "generated by tau",
      "rel-decide Q by integer-lt"], 3),
    # a builtin decider must fit its relation and the generating family
    (["structure f over z.voc", "generated by D",
      "rel-decide P by integer-lt"], 3),
    (["structure f over z.voc", "generated by D",
      "rel-decide < by rational-lt"], 3),
    (["structure f over q.voc", "generated by D",
      "rel-decide < by integer-lt"], 3),
    (["structure f over z.voc", "generated by D",
      "rel-decide E by integer-lt"], 3),
    (["structure f over z.voc", "rel-decide < by integer-lt",
      "generated by tau"], 2),
])
def test_cli_structure_file_errors_name_the_line(capsys, tmp_path, lines,
                                                 bad_line):
    (tmp_path / "nat.voc").write_text("sort N\nconst 0 : N\nfun S : N -> N\n")
    (tmp_path / "z.voc").write_text(
        "sort Z\nsort W\nrel < : Z Z\nrel P : Z\nrel E : Z W\nconst 0 : Z\n"
        "family D : Z countable scheme integers\n")
    (tmp_path / "q.voc").write_text(
        "sort Q\nrel < : Q Q\nfamily D : Q countable scheme rationals\n")
    f = tmp_path / "f.struct"
    f.write_text("\n".join(lines) + "\n")
    assert main(["scott", str(f)]) == 2
    err = capsys.readouterr().err
    # an error inside a term names its column, any other column 1
    col = {"rewrite S(x) -> S(": 19}.get(lines[-1], 1)
    assert err.endswith(f"(line {bad_line}, col {col})\n")


def test_rel_decide_names_a_declared_relation():
    with pytest.raises(SyntaxError_) as e:
        parse_structure("structure z\ngenerated by D\n"
                        "rel-decide Q by integer-lt", _voc("integers.voc"))
    assert e.value.line == 3


def test_rewrite_variables_take_the_sort_of_their_position():
    voc = parse_vocabulary("sort N\nsort B\nconst 0 : N\nconst b : B\n"
                           "fun S : N -> N\nfun g : B -> B\n"
                           "fun h : N B -> N")
    s = parse_structure("structure t\ngenerated by tau\nrewrite g(x) -> b\n"
                        "rewrite h(S(y), x) -> y", voc)
    (g_lhs, _), (h_lhs, _) = s.rewrites
    assert g_lhs.args == (Var("x", "B"),)
    assert h_lhs.args == (App("S", (Var("y", "N"),), "N"), Var("x", "B"))
    assert s.normalize(parse_term("h(S(0), g(g(b)))", voc)) == \
        Const("0", "N")
    assert [print_term(t) for t in s.enumerate_elements(5, "B")] == ["b"]


def test_a_bracketed_member_beside_a_rewrite_variable():
    voc = parse_vocabulary("sort Q\nrel < : Q Q\nfun f : Q Q -> Q\n"
                           "family D : Q countable scheme rationals\n")
    s = parse_structure("structure q\ngenerated by D\n"
                        "rewrite f(D[1,2], x) -> x", voc)
    ((lhs, rhs),) = s.rewrites
    assert lhs.args[1] == Var("x", "Q") and rhs == Var("x", "Q")
    assert print_term(s.normalize(parse_term("f(D[1,2], D[3,1])", voc))) \
        == "D_3_1"
    assert print_term(s.normalize(parse_term("f(D[1,3], D[3,1])", voc))) \
        == "f(D_1_3, D_3_1)"


def test_parse_term_types_pattern_variables_by_position():
    voc = parse_vocabulary("sort N\nsort B\nconst 0 : N\nconst b : B\n"
                           "fun h : N B -> N\n")
    patterns = {}
    assert parse_term("h(y, x)", voc, patterns=patterns) == \
        App("h", (Var("y", "N"), Var("x", "B")), "N")
    assert patterns == {"y": "N", "x": "B"}
    with pytest.raises(SyntaxError_) as e:
        parse_term("h(z, z)", voc, patterns={})
    assert "'z'" in e.value.message and e.value.col == 6
    with pytest.raises(SyntaxError_):  # without patterns, still unbound
        parse_term("h(y, x)", voc)


def test_a_rewrite_variable_at_two_sorts_names_the_line(capsys, tmp_path):
    (tmp_path / "two.voc").write_text("sort N\nsort B\nconst 0 : N\n"
                                      "const b : B\nfun f : N B -> N\n")
    f = tmp_path / "f.struct"
    f.write_text("structure f over two.voc\ngenerated by tau\n"
                 "rewrite f(x, x) -> 0\n")
    assert main(["scott", str(f)]) == 2
    assert "(line 3, col 14)" in capsys.readouterr().err
    with pytest.raises(SyntaxError_) as e:
        parse_structure(f.read_text(), base_dir=str(tmp_path))
    assert e.value.line == 3
    assert "'x'" in e.value.message


# -- the normalizer, against the rewrite loop it replaced


def reference_normalize(rewrites, t):
    """One pass rewrites every argument once, and the root only where no
    argument changed (first matching rule in order); passes repeat until
    one changes nothing."""
    def rewrite_once(t):
        if isinstance(t, App):
            new_args, changed = [], False
            for a in t.args:
                na, ch = rewrite_once(a)
                new_args.append(na)
                changed = changed or ch
            if changed:
                return App(t.func, tuple(new_args), t.sort), True
            t = App(t.func, tuple(new_args), t.sort)
        for lhs, rhs in rewrites:
            env = {}
            if _match(lhs, t, env):
                return _instantiate(rhs, env), True
        return t, False

    changed = True
    while changed:
        t, changed = rewrite_once(t)
    return t


NAT = "sort N\nconst 0 : N\nfun S : N -> N\n"
REWRITE_SYSTEMS = {
    "none": (NAT, "generated by tau"),
    "zero-to-member": ("sort Z\nrel < : Z Z\nconst 0 : Z\n"
                       "family D : Z countable scheme integers\n",
                       "generated by D\nrewrite 0 -> D_0"),
    "merged-members": ("sort S\nfamily C : S countable\nfun F : S -> S\n",
                       "generated by C\n" + "".join(
                           f"rewrite C_{i} -> C_0\n" for i in range(1, 5))),
    "merging": ("sort N\nconst 0 : N\nconst 1 : N\nfun p : N N -> N\n",
                "generated by tau\nrewrite p(1, 1) -> 0"),
    "collapse": (NAT, "generated by tau\nrewrite S(x) -> x"),
    "nonlinear": ("sort N\nconst 0 : N\nconst 1 : N\nfun S : N -> N\n"
                  "fun f : N N -> N\n",
                  "generated by tau\nrewrite f(x, x) -> x"),
    "order-sensitive": (NAT + "const a : N\n", "generated by tau\n"
                        "rewrite S(S(x)) -> a\nrewrite S(a) -> 0"),
}


def _system(name):
    voc_text, lines = REWRITE_SYSTEMS[name]
    voc = parse_vocabulary(voc_text)
    return parse_structure(f"structure {name}\n{lines}\n", voc)


def random_ground_term(rng, s, sort, depth):
    voc = s.vocab
    leaves = [Const(d.name, d.result_sort) for d in voc.constants(sort)]
    if s.generated_by != "tau":
        leaves += [t for t in voc.family(s.generated_by).enumerate_terms(6)
                   if t.sort == sort]
    funs = [d for d in voc.functions() if d.result_sort == sort]
    if depth and funs and rng.random() < 0.7:
        d = rng.choice(funs)
        return App(d.name, tuple(random_ground_term(rng, s, a, depth - 1)
                                 for a in d.arg_sorts), sort)
    return rng.choice(leaves)


@pytest.mark.parametrize("name", sorted(REWRITE_SYSTEMS))
def test_normal_forms_match_the_rewrite_loop(name):
    s = _system(name)
    rng = random.Random(f"normalize {name}")
    sort = s.vocab.sorts[0]
    for _ in range(400):
        t = random_ground_term(rng, s, sort, rng.randint(0, 6))
        want = reference_normalize(s.rewrites, t)
        # twice: the second answer is the remembered one
        assert s.normalize(t) == want, print_term(t)
        assert s.normalize(t) == want
        assert s.normalize(want) == want
        # a fresh presentation, whose memory holds nothing yet
        assert _system(name).normalize(t) == want


def test_first_matching_rule_wins():
    s = _system("order-sensitive")
    t = parse_term("S(S(S(0)))", s.vocab)
    assert s.normalize(t) == Const("0", "N")
    assert reference_normalize(s.rewrites, t) == Const("0", "N")


def test_no_rewrites_returns_the_term_itself():
    s = _system("none")
    t = parse_term("S(S(0))", s.vocab)
    assert s.normalize(t) is t
    assert s.apply_fun("S", [t]) == App("S", (t,), "N")


def test_unchanged_arguments_are_not_rebuilt():
    s = _system("merging")
    t = parse_term("p(p(0, 1), 0)", s.vocab)
    assert s.normalize(t) is t
    assert s.normalize(parse_term("p(p(0, 1), 0)", s.vocab)) is t


def test_a_long_root_chain_does_not_recurse():
    voc = parse_vocabulary(NAT + "fun f : N -> N\n")
    s = parse_structure("structure c\ngenerated by tau\n"
                        "rewrite f(S(x)) -> f(x)", voc)
    t = Const("0", "N")
    for _ in range(300):
        t = App("S", (t,), "N")
    want = App("f", (Const("0", "N"),), "N")
    assert s.normalize(App("f", (t,), "N")) == want
    # the inner chain runs while the outer f waits on its argument
    assert s.element_of(App("f", (App("f", (t,), "N"),), "N")) == \
        App("f", (want,), "N")
