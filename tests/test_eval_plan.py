"""The compiled evaluator, pinned against the recursive evaluator it
replaced, which this file keeps as the reference: same value, or the same
exception class, on generated sentences over finite structures (one with an
empty sort, and blocks over a sort they lack) and over the omega-succ,
integers (with a name whose value is not a normal form), rationals and
addition presentations, under both semantics and at fuels 1, 3 and 8, and
over a two-sorted one whose blocks mix a whole range with a cut-off one.
Also: plan reuse and release, the sort of a `tau` schema's hole, large
Scott sentences, the pigeonhole, closure and diagram-count cuts, Scott
sentences against isomorphism on small digraphs, and the iterative walks
in `syntax`."""

import gc
import itertools
import os
import random
import time
import weakref

from hypothesis import HealthCheck, given, settings, strategies as st

from omegalogic import evaluation, structures
from omegalogic.omega_rules import _target_eval
from omegalogic.syntax import (
    Absurd, And, App, Atom, Const, Eq, Exists, FamilyMember, Forall, Not, Or,
    SchemaConj, SchemaDisj, Var, applications, free_variables, parse_formula,
    parse_vocabulary, print_formula, print_term, quantifier_rank,
)
from omegalogic.structures import (
    EvalError, FiniteStructure, TermGeneratedStructure, Valuation,
    eval_sentence, load_structure, parse_structure,
)
from omegalogic.types_atomicity import scott_sentence_finite

from reference_print import reference_print
from test_ground_terms import _shortlex, reference_tau


ASSETS = os.path.join(os.path.dirname(__file__), "..", "assets")


# -- the reference: the recursive evaluator, with one environment copy per
#    quantifier step and the conjunction checked once every variable is bound


def _reference_binding(s, f, fuel, extra):
    if isinstance(f, (Forall, Exists)):
        if s.kind == "finite":
            return f.var.name, s.elements(f.var.sort), True
        values = s.enumerate_elements(fuel, f.var.sort)
        return f.var.name, values, len(values) < fuel
    if f.family != "tau":
        names, exhaustive = _reference_family_terms(s.vocab, f.family, fuel)
    elif s.kind == "finite":
        return f.hole.name, _reference_closure(s, f.hole.sort, extra), True
    else:
        names, exhaustive = reference_tau(s, fuel, f.hole.sort), False
    return f.hole.name, (s.element_of(c, extra) for c in names), exhaustive


def _reference_family_terms(vocab, family, fuel):
    fam = vocab.family(family)
    if fam.countable:
        return fam.enumerate_terms(fuel), False
    return list(fam.terms()), True


def _reference_closure(s, sort, extra):
    """The elements of `sort` that closed terms name in the finite `s`:
    the constants, then every function applied to the first terms found
    for the elements so far, one layer at a time, each layer in shortlex
    order; each element once, in the order found."""
    found = {}  # element -> the first term naming it
    layer = sorted(s.vocab.constant_terms(), key=_shortlex)
    while layer:
        grew = False
        for t in layer:
            e = s.element_of(t, extra)
            if e not in found:
                found[e] = t
                grew = True
        if not grew:
            break
        layer = sorted(applications(s.vocab.functions(), list(
            found.values())), key=_shortlex)
    return [e for e, t in found.items() if t.sort == sort]


def _reference_resolve(s, t, env, extra):
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, App):
        return s.apply_fun(t.func, [_reference_resolve(s, a, env, extra)
                                    for a in t.args])
    return s.element_of(t, extra)


def _reference_element(s, t, env, extra):
    # normalized here, whatever the evaluator assumes of its values
    v = _reference_resolve(s, t, env, extra)
    return v if s.kind == "finite" else s.normalize(v)


def reference_eval(s, f, env, fuel, extra, fragment=False):
    if isinstance(f, Absurd):
        return False
    if isinstance(f, Atom):
        return s.holds(f.rel, [_reference_element(s, a, env, extra)
                               for a in f.args])
    if isinstance(f, Eq):
        return (_reference_element(s, f.left, env, extra)
                == _reference_element(s, f.right, env, extra))
    if isinstance(f, Not):
        v = reference_eval(s, f.body, env, fuel, extra, fragment)
        return None if v is None else (not v)
    if isinstance(f, And):
        a = reference_eval(s, f.left, env, fuel, extra, fragment)
        if a is False:
            return False
        b = reference_eval(s, f.right, env, fuel, extra, fragment)
        if b is False:
            return False
        return True if (a and b) else None
    if isinstance(f, Or):
        a = reference_eval(s, f.left, env, fuel, extra, fragment)
        if a is True:
            return True
        b = reference_eval(s, f.right, env, fuel, extra, fragment)
        if b is True:
            return True
        return False if (a is False and b is False) else None
    if isinstance(f, (Forall, Exists, SchemaConj, SchemaDisj)):
        name, values, exhaustive = _reference_binding(s, f, fuel, extra)
        want = isinstance(f, (Exists, SchemaDisj))
        saw_unknown = False
        for e in values:
            v = reference_eval(s, f.body, {**env, name: e}, fuel, extra,
                               fragment)
            if v is None:
                saw_unknown = True
            elif v == want:
                return want
        if saw_unknown or (not exhaustive and not fragment):
            return None
        return not want
    raise TypeError(f"not a formula: {f!r}")


def _outcome(fn):
    try:
        return fn()
    except Exception as e:  # the class is what must agree
        return type(e)


# -- generated sentences


# S carries every constant, so a `tau` hole (typed at the first sort by
# the parser) has no constant of another sort to differ on; T may be empty.
FINITE = parse_vocabulary("""
sort S
sort T
rel P : S
rel R : S S
rel Q : T
rel E : S T
const c : S
fun f : S -> S
family Names : S = { e0 e1 e5 }
family D : S countable
""")
# diagram names, one of which no structure below has
NAMES = [Const(f"e{i}", "S") for i in range(4)]
D = [FamilyMember("D", (i,), "S") for i in range(3)]


def _finite_structure(rng):
    s_dom = [f"e{i}" for i in range(rng.randint(1, 3))]
    t_dom = [f"t{i}" for i in range(rng.randint(0, 2))]
    rels = {
        "P": {(a,) for a in s_dom if rng.random() < 0.5},
        "R": {(a, b) for a in s_dom for b in s_dom if rng.random() < 0.4},
        "Q": {(a,) for a in t_dom if rng.random() < 0.5},
        "E": {(a, b) for a in s_dom for b in t_dom if rng.random() < 0.4},
    }
    return FiniteStructure(
        FINITE, {"S": s_dom, "T": t_dom}, rels,
        {"f": {(a,): rng.choice(s_dom) for a in s_dom}},
        {"c": rng.choice(s_dom)})


def _presentation(name):
    return load_structure(os.path.join(ASSETS, name))


PRESENTATIONS = {name: _presentation(f"{name}.struct")
                 for name in ("omega-succ", "integers", "rationals")}
# addition on the numerals, which rewrites function applications
PRESENTATIONS["plus"] = parse_structure(
    "structure plus\ngenerated by tau\nrewrite p(x, 0) -> x\n"
    "rewrite p(x, S(y)) -> S(p(x, y))",
    parse_vocabulary("sort N\nconst 0 : N\nfun S : N -> N\n"
                     "fun p : N N -> N"))
# the integers with a relation P that has no decider, so that an atom of
# it raises where `holds` raises
PRESENTATIONS["undecided"] = parse_structure(
    "structure undecided\ngenerated by D\nrewrite 0 -> D_0\n"
    "rel-decide < by integer-lt",
    parse_vocabulary("sort Z\nrel < : Z Z\nrel P : Z\nconst 0 : Z\n"
                     "family D : Z countable scheme integers"))


def _numeral(t):
    """The number that the numeral S(...S(0)...) names."""
    n = 0
    while isinstance(t, App):
        n, t = n + 1, t.args[0]
    return n


# the numerals with relations decided by callables given to the library
PRESENTATIONS["called"] = TermGeneratedStructure(
    parse_vocabulary("sort N\nconst 0 : N\nfun S : N -> N\nrel E : N\n"
                     "rel L : N N"),
    rel_deciders={"E": lambda args: _numeral(args[0]) % 2 == 0,
                  "L": lambda args: _numeral(args[0]) < _numeral(args[1])},
    name="called")
# a name the sentences use that `extra_names` maps to a term that is not
# a normal form (0 rewrites to D_0)
NAMED = {"integers": {Const("c", "Z"): Const("0", "Z")}}


# B has one ground term and N infinitely many, so a block over both mixes
# a whole range with one the fuel cuts off; B comes first, so that the
# whole range is often the outer one
MIXED = TermGeneratedStructure(parse_vocabulary(
    "sort B\nsort N\nconst b : B\nconst 0 : N\nfun S : N -> N"))


class Language:
    """What a generated sentence may use: relations, constants, functions
    and schema families, by sort, and the sorts a block variable after the
    first may take, which may include one the structures lack."""

    def __init__(self, vocab, ground, families, phantom=()):
        self.vocab = vocab
        self.ground = ground  # sort -> ground leaf terms
        self.families = families  # schema families, 'tau' included
        self.sorts = list(vocab.sorts)
        # hypothesis leans to the first of a list's choices
        self.inner_sorts = list(phantom) + self.sorts


LANGUAGES = {
    "finite": Language(FINITE, {"S": [Const("c", "S")] + NAMES + D[:1],
                                "T": []},
                       ["tau", "Names", "D"], phantom=["U"]),
    "omega-succ": Language(PRESENTATIONS["omega-succ"].vocab,
                           {"N": [Const("0", "N")]}, ["tau"]),
    "integers": Language(PRESENTATIONS["integers"].vocab,
                         {"Z": [Const("0", "Z"), Const("c", "Z")] + [
                             FamilyMember("D", (i,), "Z") for i in (0, 1, -1)]},
                         ["tau", "D"]),
    "rationals": Language(PRESENTATIONS["rationals"].vocab,
                          {"Q": [FamilyMember("D", (1, 2), "Q"),
                                 FamilyMember("D", (0, 1), "Q")]},
                          ["tau", "D"]),
    "plus": Language(PRESENTATIONS["plus"].vocab, {"N": [Const("0", "N")]},
                     ["tau"]),
    "undecided": Language(PRESENTATIONS["undecided"].vocab,
                          {"Z": [Const("0", "Z")] + [
                              FamilyMember("D", (i,), "Z") for i in (1, -1)]},
                          ["tau", "D"]),
    "called": Language(PRESENTATIONS["called"].vocab,
                       {"N": [Const("0", "N")]}, ["tau"]),
    # no schemas: the reference's tau stream is not filtered by sort
    "mixed": Language(MIXED.vocab, {"N": [Const("0", "N")],
                                    "B": [Const("b", "B")]}, []),
}


@st.composite
def terms(draw, lang, scope, sort, depth=1):
    choices = [Var(n, s) for n, s in scope if s == sort]
    choices += lang.ground.get(sort, [])
    funs = [d for d in lang.vocab.functions() if d.result_sort == sort]
    if depth and funs and (not choices or draw(st.booleans())):
        d = draw(st.sampled_from(funs))
        return App(d.name, tuple(draw(terms(lang, scope, a, depth - 1))
                                 for a in d.arg_sorts), d.result_sort)
    if not choices:
        return None
    return draw(st.sampled_from(choices))


@st.composite
def atoms(draw, lang, scope):
    for _ in range(4):
        rels = lang.vocab.relations()
        if rels and draw(st.booleans()):
            d = draw(st.sampled_from(rels))
            args = tuple(draw(terms(lang, scope, s)) for s in d.arg_sorts)
            if None not in args:
                return Atom(d.name, args)
        sort = draw(st.sampled_from(lang.sorts))
        a, b = draw(terms(lang, scope, sort)), draw(terms(lang, scope, sort))
        if a is not None and b is not None:
            return Eq(a, b)
    return Absurd()


@st.composite
def literals(draw, lang, scope):
    """An atom, its negation, or `t != t` for a leaf `t`: false on every
    binding, so an early check rejects them all at once."""
    kind = draw(st.sampled_from(["never", "atom", "not"]))
    if kind == "never":
        t = draw(terms(lang, scope, draw(st.sampled_from(lang.sorts)), 0))
        if t is not None:
            return Not(Eq(t, t))
    a = draw(atoms(lang, scope))
    return Not(a) if kind == "not" else a


def _chain(cls, parts):
    out = parts[0]
    for p in parts[1:]:
        out = cls(out, p)
    return out


@st.composite
def diagram_runs(draw, lang, block):
    """The run of a Scott sentence over the variables of `block` of one
    sort: they are pairwise distinct, and relations over that sort hold or
    fail of each tuple of them, which the diagram-count cut reads."""
    sort = draw(st.sampled_from(sorted({s for _, s in block})))
    xs = [Var(n, s) for n, s in block if s == sort]
    run = [Not(Eq(a, b)) for i, a in enumerate(xs) for b in xs[i + 1:]]
    rels = [d for d in lang.vocab.relations() if set(d.arg_sorts) == {sort}]
    for d in draw(st.lists(st.sampled_from(rels), max_size=2)) if rels else ():
        for args in itertools.product(xs, repeat=len(d.arg_sorts)):
            atom = Atom(d.name, args)
            run.append(atom if draw(st.booleans()) else Not(atom))
    return run


@st.composite
def closures(draw, lang, bound):
    """`forall z:S. (z = x1 | ...)` over variables of sort S in `bound`, as
    a Scott sentence closes its diagram, which the closure cut reads."""
    sort = draw(st.sampled_from(sorted({s for _, s in bound})))
    xs = [Var(n, s) for n, s in bound if s == sort]
    z = Var(f"z{len(bound)}", sort)
    picked = draw(st.lists(st.sampled_from(xs), min_size=1,
                           max_size=len(xs) + 1))
    return Forall(z, _chain(Or, [Eq(z, x) if draw(st.booleans())
                                 else Eq(x, z) for x in picked]))


@st.composite
def formulas(draw, lang, scope=(), depth=3, quantifiers=3, quantified=False):
    """Sentences of `lang` with at most `quantifiers` nested binders; with
    `quantified`, a quantifier block or schema."""
    binders = ["block"] * 3 + (["schema"] if lang.families else [])
    kinds = [] if quantified else ["atom", "not", "and", "or"]
    if quantifiers:
        kinds += binders
    kind = draw(st.sampled_from(kinds)) if depth else "atom"
    if kind == "atom":
        return draw(atoms(lang, scope))
    if kind == "not":
        return Not(draw(formulas(lang, scope, depth - 1, quantifiers)))
    if kind in ("and", "or"):
        parts = [draw(formulas(lang, scope, depth - 1, quantifiers))
                 for _ in range(draw(st.integers(2, 4)))]
        return _chain(And if kind == "and" else Or, parts)
    if kind == "block":
        # a run of one quantifier over a conjunction, the shape of a Scott
        # sentence, whose conjuncts may be checked early
        cls = draw(st.sampled_from([Exists, Exists, Forall]))
        # often a Scott sentence's shape, over sorts the structure has: a
        # diagram run first, closures after it or after the literals
        scott = cls is Exists and draw(st.booleans())
        # two binders, the fewest an early check needs, are drawn first
        n = 1 + draw(st.integers(1, quantifiers)) % quantifiers
        bound = list(scope) + [(f"x{len(scope) + i}", draw(st.sampled_from(
            lang.inner_sorts if i and not scott else lang.sorts)))
            for i in range(n)]
        parts = [draw(literals(lang, bound))
                 for _ in range(draw(st.integers(1 - scott, 4)))]
        if scott:
            run = draw(diagram_runs(lang, bound[len(scope):]))
            parts = run + parts
            for _ in range(draw(st.integers(0 if parts else 1, 2))):
                parts.insert(draw(st.sampled_from([len(run), len(parts)])),
                             draw(closures(lang, bound)))
        # often a quantified conjunct, which a range the fuel cuts off
        # leaves unknown
        if quantifiers > n and draw(st.integers(0, 3)):
            parts.insert(draw(st.integers(0, len(parts))), draw(
                formulas(lang, bound, max(depth - 1, 1), quantifiers - n,
                         quantified=True)))
        elif draw(st.booleans()):
            parts.insert(draw(st.integers(0, len(parts))), draw(
                formulas(lang, bound, depth - 1, quantifiers - n)))
        body = _chain(And, parts)
        for name, sort in reversed(bound[len(scope):]):
            body = cls(Var(name, sort), body)
        return body
    family = draw(st.sampled_from(lang.families))
    sort = (lang.sorts[0] if family == "tau"
            else lang.vocab.family(family).sort)
    hole = Var(f"h{len(scope)}", sort)
    body = draw(formulas(lang, list(scope) + [(hole.name, sort)], depth - 1,
                         quantifiers - 1))
    return draw(st.sampled_from([SchemaConj, SchemaDisj]))(hole, body, family)


def _compare(s, f, fuel, fragment, extra):
    want = _outcome(lambda: reference_eval(s, f, {}, fuel, extra, fragment))
    got = _outcome(lambda: structures._eval(s, f, {}, fuel, extra, fragment))
    assert got == want, (print_formula(f), fuel, fragment)
    if not isinstance(want, type):
        value = eval_sentence(s, f, fuel, extra, fragment).value
        assert value == {True: "true", False: "false", None: "unknown"}[want]


SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(seed=st.integers(0, 10 ** 6),
       f=formulas(LANGUAGES["finite"], quantifiers=4),
       fuel=st.sampled_from([1, 3, 8]), fragment=st.booleans(),
       named=st.booleans())
def test_matches_reference_on_finite_structures(seed, f, fuel, fragment,
                                                named):
    s = _finite_structure(random.Random(seed))
    extra = {m: s.domains["S"][0] for m in D[:2]} if named else {}
    _compare(s, f, fuel, fragment, extra)


@SETTINGS
@given(seed=st.integers(0, 10 ** 6),
       f=formulas(LANGUAGES["finite"], quantifiers=4, quantified=True))
def test_matches_reference_on_finite_blocks(seed, f):
    # a block at the top, whose inner variables may take a sort the
    # structure lacks; fuel and semantics do not matter on a finite one
    _compare(_finite_structure(random.Random(seed)), f, 8, False, {})


@SETTINGS
@given(data=st.data(), name=st.sampled_from(sorted(PRESENTATIONS)),
       fuel=st.sampled_from([1, 3, 8]), fragment=st.booleans())
def test_matches_reference_on_presentations(data, name, fuel, fragment):
    f = data.draw(formulas(LANGUAGES[name], depth=2))
    _compare(PRESENTATIONS[name], f, fuel, fragment, NAMED.get(name, {}))


@SETTINGS
@given(data=st.data(), name=st.sampled_from(["undecided", "called"]),
       fuel=st.sampled_from([1, 3, 8]), fragment=st.booleans())
def test_matches_reference_on_undecided_and_called_relations(data, name,
                                                              fuel, fragment):
    # the two presentations whose relations are tested by a missing or a
    # library-given decider, also drawn above among all of them
    f = data.draw(formulas(LANGUAGES[name], depth=2))
    _compare_exactly(PRESENTATIONS[name], f, fuel, fragment, {})


def _exact_outcome(fn):
    try:
        return fn()
    except Exception as e:  # the class and message are what must agree
        return type(e), str(e)


def _compare_exactly(s, f, fuel, fragment, extra):
    want = _exact_outcome(
        lambda: reference_eval(s, f, {}, fuel, extra, fragment))
    got = _exact_outcome(
        lambda: structures._eval(s, f, {}, fuel, extra, fragment))
    assert got == want, (print_formula(f), fuel, fragment)
    return got


def test_an_atom_without_a_decider_raises_where_holds_does():
    z = PRESENTATIONS["undecided"]
    no_rule = (EvalError, "no decision rule for relation 'P'")
    # the elements come as D_0, D_1, D[-1], ...; an earlier disjunct or a
    # false conjunct settles a formula before P is asked.  Each row: text,
    # fuel, value under the bounded and under the fragment semantics
    for text, fuel, bounded, fragment in [
            ("0 = 0 | P(0)", 1, True, True),
            ("P(0) | 0 = 0", 1, no_rule, no_rule),
            ("0 != 0 & P(D_1)", 1, False, False),
            ("exists x:Z. (x = 0 | P(x))", 3, True, True),
            ("exists x:Z. (x = D_1 | P(x))", 3, no_rule, no_rule),
            ("forall x:Z. (x < D_1 | P(x))", 3, no_rule, no_rule),
            ("forall x:Z. (x < D_2 | ~P(x))", 2, None, True),
            ("exists x:Z. (D_1 < x & P(x))", 3, None, False)]:
        f = parse_formula(text, z.vocab)
        assert _compare_exactly(z, f, fuel, False, {}) == bounded, text
        assert _compare_exactly(z, f, fuel, True, {}) == fragment, text


def test_library_deciders_receive_normal_form_tuples():
    s = PRESENTATIONS["called"]
    for text, fuel, bounded, fragment in [
            ("forall x:N. (E(x) | E(S(x)))", 6, None, True),
            ("exists x:N. L(S(S(0)), x)", 4, True, True),
            ("exists x:N. L(x, 0)", 4, None, False),
            ("forall x:N. ~L(x, x)", 5, None, True),
            ("E(S(S(0))) & ~E(S(0)) & L(0, S(0))", 1, True, True)]:
        f = parse_formula(text, s.vocab)
        assert _compare_exactly(s, f, fuel, False, {}) is bounded, text
        assert _compare_exactly(s, f, fuel, True, {}) is fragment, text


def test_atoms_with_ground_arguments_match_reference():
    # 0 rewrites to D_0 and the name c is given the term 0, so each ground
    # argument is normalized where it enters; it is resolved once a call
    z = PRESENTATIONS["integers"]
    extra = NAMED["integers"]
    x, y, c = Var("x", "Z"), Var("y", "Z"), Const("c", "Z")
    d1 = FamilyMember("D", (1,), "Z")
    named = [  # c is no constant of the vocabulary, so these are built
        Exists(x, Exists(y, And(And(Atom("<", (x, c)), Atom("<", (c, y))),
                                Atom("<", (x, y))))),
        And(And(Atom("<", (c, d1)), Not(Atom("<", (d1, c)))),
            Eq(Const("0", "Z"), c))]
    for f in [parse_formula(text, z.vocab) for text in [
            "forall x:Z. (x < 0 | ~(x < 0))", "exists x:Z. x < 0",
            "exists x:Z. (D[-1] < x & x < 0)",
            "forall x:Z. (0 < x | x < D_1)"]] + named:
        for fuel in (1, 3, 8):
            for fragment in (False, True):
                _compare_exactly(z, f, fuel, fragment, extra)
    assert eval_sentence(z, parse_formula("exists x:Z. x < 0", z.vocab),
                         3).value == "true"


def test_a_ground_term_that_raises_raises_at_every_use():
    # g is no function of the vocabulary, so resolving g(0) raises; a
    # resolution that fails is not kept, and one never reached never raises
    nat = PRESENTATIONS["omega-succ"]
    x, zero = Var("x", "N"), Const("0", "N")
    one, bad = App("S", (zero,), "N"), App("g", (zero,), "N")
    for f, want in [(Exists(x, Or(Eq(x, zero), Eq(x, bad))), True),
                    (Exists(x, Or(Eq(x, one), Eq(x, bad))), KeyError),
                    (Forall(x, And(Not(Eq(x, one)), Eq(bad, bad))),
                     KeyError),
                    (Exists(x, And(Eq(x, one), Eq(bad, x))), KeyError)]:
        got = _compare_exactly(nat, f, 4, True, {})
        assert got == want or got[0] is want, print_formula(f)
    # an atom's arguments are resolved before its test is fetched, so a
    # bad argument raises before a missing decider does
    z = PRESENTATIONS["undecided"]
    zero = Const("0", "Z")
    bad = App("g", (zero,), "Z")
    for f, want in [(Atom("P", (bad,)), KeyError),
                    (Or(Atom("P", (zero,)), Eq(bad, bad)), EvalError)]:
        assert _compare_exactly(z, f, 1, False, {})[0] is want


@SETTINGS
@given(f=formulas(LANGUAGES["mixed"], depth=2, quantified=True),
       fuel=st.sampled_from([2, 3, 8]))
def test_matches_reference_on_mixed_ranges(f, fuel):
    # B is whole only at a fuel above its one element, and only the
    # bounded semantics tells a whole range from a cut-off one
    _compare(MIXED, f, fuel, False, {})


def test_an_unknown_part_leaves_a_block_unknown():
    nat = PRESENTATIONS["omega-succ"]
    for text in ("exists x:N. forall y:N. y = y",
                 "exists x:N. (x = x & forall y:N. y = y)",
                 "forall x:N. exists y:N. y != y"):
        f = parse_formula(text, nat.vocab)
        assert reference_eval(nat, f, {}, 3, {}) is None
        assert eval_sentence(nat, f, 3).value == "unknown", text


def test_values_enter_a_presentation_as_normal_forms():
    # `holds` and `==` take elements as they are, so a value from the
    # caller's environment or from `extra_names` is normalized where it
    # enters: on the integers the constant 0 rewrites to D_0
    z = PRESENTATIONS["integers"]
    zero, c = Const("0", "Z"), Const("c", "Z")
    d0, d1 = FamilyMember("D", (0,), "Z"), FamilyMember("D", (1,), "Z")
    lt = Atom("<", (Var("x", "Z"), d1))
    assert structures._eval(z, lt, {"x": zero}, 8, {}) is True
    assert reference_eval(z, lt, {"x": zero}, 8, {}) is True
    for f in (Atom("<", (c, d1)), Eq(c, d0)):
        assert reference_eval(z, f, {}, 8, {c: zero}) is True
        assert eval_sentence(z, f, extra_names={c: zero}).value == "true"
    # and a function's value is normalized where it is applied
    plus = PRESENTATIONS["plus"]
    for text in ("p(S(0), S(0)) = S(S(0))", "forall x:N. p(x, 0) = x"):
        f = parse_formula(text, plus.vocab)
        assert reference_eval(plus, f, {}, 4, {}, True) is True
        assert eval_sentence(plus, f, 4, fragment=True).value == "true"


def test_early_checks_keep_unknown_and_errors():
    # over a range that is not exhaustive a false conjunct does not make
    # the block false, and a conjunct that raises keeps its place
    nat = PRESENTATIONS["omega-succ"]
    f = parse_formula("exists x:N. exists y:N. (x != x & y = S(0))",
                      nat.vocab)
    assert eval_sentence(nat, f, 4).value == "unknown"
    assert eval_sentence(nat, f, 4, fragment=True).value == "false"
    # nor where only the outer range is whole and a deeper one is cut off
    mixed = TermGeneratedStructure(parse_vocabulary(
        "sort B\nsort N\nconst b : B\nconst 0 : N\nfun S : N -> N"))
    f = parse_formula("exists x:B. exists y:N. (x != x & y = S(0))",
                      mixed.vocab)
    assert eval_sentence(mixed, f, 4).value == "unknown"
    s = _finite_structure(random.Random(1))
    s.relations["R"] = set()
    x, y = Var("x", "S"), Var("y", "S")
    missing = Atom("P", (Const("e9", "S"),))  # no such element
    r_xy = Atom("R", (x, y))
    # R(x, y) is false throughout, so P(e9) after it is never reached, and
    # the conjunct x != x, checked early, may not skip P(e9) before it
    assert eval_sentence(s, Exists(x, Exists(y, And(r_xy, missing)))
                         ).value == "false"
    for body in (And(missing, Not(Eq(x, x))), And(missing, r_xy)):
        f = Exists(x, Exists(y, body))
        assert _outcome(lambda: reference_eval(s, f, {}, 8, {})) is EvalError
        assert _outcome(lambda: eval_sentence(s, f)) is EvalError
    # x != x, checked early, may not skip the range of a sort s lacks
    z = Var("z", "U")
    f = Exists(x, Exists(z, And(Not(Eq(x, x)), Eq(z, z))))
    assert _outcome(lambda: reference_eval(s, f, {}, 8, {})) is KeyError
    assert _outcome(lambda: eval_sentence(s, f)) is KeyError


# -- plans


def test_plan_is_reused_and_released():
    s = _finite_structure(random.Random(2))
    f = parse_formula("exists x:S. exists y:S. (R(x, y) & P(y))", FINITE)
    eval_sentence(s, f)
    code = f._plans["finite"]
    eval_sentence(_finite_structure(random.Random(3)), f)
    assert f._plans["finite"] is code
    # the plan lives on the node and holds no reference to it
    gone = weakref.ref(f)
    del f
    gc.collect()
    assert gone() is None and code.fns


def test_sentences_share_one_frame_and_read_lazily(monkeypatch):
    # two sentences over N list N's range once, where two eval_sentence
    # calls list it twice; nothing is read before it is asked for
    nat = _presentation("omega-succ.struct")
    listed = []
    enumerate_elements = type(nat).enumerate_elements

    def counting(self, limit, sort=None):
        listed.append(sort)
        return enumerate_elements(self, limit, sort)

    monkeypatch.setattr(type(nat), "enumerate_elements", counting)
    fs = evaluation.Sentences([parse_formula(text, nat.vocab) for text in (
        "exists x:N. x = S(0)", "forall x:N. S(x) != x")])
    values = evaluation.eval_sentences(nat, fs, 3, fragment=True)
    assert listed == []
    assert list(values) == [True, True]
    assert listed == ["N"]
    for f in fs.formulas:
        eval_sentence(nat, f, 3, fragment=True)
    assert listed == ["N", "N", "N"]
    # a plan per kind, compiled once and kept on the sentences
    code = fs._plans["term-generated"]
    assert list(evaluation.eval_sentences(nat, fs, 3, fragment=True)) == [
        True, True]
    assert fs._plans == {"term-generated": code}


def test_a_sentence_with_a_free_variable_raises_at_its_turn():
    # as reading the variable from an empty environment; the sentences
    # before it are read first, and on a presentation at fuel 0 a
    # quantified one raises the fuel error before the free variable's
    s = _finite_structure(random.Random(2))
    x = Var("x", "S")
    free = Exists(Var("y", "S"), Eq(x, Var("y", "S")))
    assert _outcome(lambda: eval_sentence(s, free)) is KeyError
    closed = parse_formula("exists y:S. y = y", FINITE)
    values = evaluation.eval_sentences(s, evaluation.Sentences([closed,
                                                                free]))
    assert next(values) is True
    assert _outcome(lambda: next(values)) is KeyError
    nat = _presentation("omega-succ.struct")
    n = Var("n", "N")
    f = Exists(Var("m", "N"), Eq(n, Var("m", "N")))
    for fuel, error in ((0, EvalError), (3, KeyError)):
        assert _outcome(lambda: eval_sentence(nat, f, fuel)) is error


# -- the sort of a schema hole over tau


TWO_SORTED = parse_vocabulary("sort N\nsort B\nconst 0 : N\nconst b : B\n"
                              "rel P : N")
TAU_P = "/\\{ P(x) : x in tau }"


def test_tau_schema_ranges_over_its_hole_sort():
    f = parse_formula(TAU_P, TWO_SORTED)
    finite = FiniteStructure(TWO_SORTED, {"N": ["n0", "n1"], "B": ["b0"]},
                             {"P": {("n0",)}}, constants={"0": "n0", "b": "b0"})
    assert eval_sentence(finite, f).value == "true"
    finite.relations["P"] = set()
    assert eval_sentence(finite, f).value == "false"
    # a presentation: the tau stream of the hole's sort
    holds = {("0",): True}
    pres = TermGeneratedStructure(
        TWO_SORTED, rel_deciders={"P": lambda args: holds[
            tuple(print_term(a) for a in args)]})
    assert eval_sentence(pres, f, fuel=4, fragment=True).value == "true"


def test_tau_schema_on_a_valuation():
    f = parse_formula(TAU_P, TWO_SORTED)
    p0 = Atom("P", (Const("0", "N"),))
    for truth, value in ((True, "true"), (False, "false")):
        v = Valuation(TWO_SORTED, assignment={p0: truth})
        assert _target_eval(v, f, 8).value == value


# -- large sentences


def _chain_structure(n, order=None):
    vocab = parse_vocabulary("sort S\nrel < : S S")
    dom = [f"a{i}" for i in range(n)]
    less = {(a, b) for i, a in enumerate(dom) for b in dom[i + 1:]}
    return FiniteStructure(vocab, {"S": order or dom}, {"<": less})


def test_scott_sentence_of_an_80_chain():
    chain = _chain_structure(80)
    f = scott_sentence_finite(chain)
    text = print_formula(f)
    assert text.count("exists x") == 80
    assert free_variables(f) == frozenset()
    assert quantifier_rank(f) == 81
    t0 = time.perf_counter()
    assert eval_sentence(chain, f).value == "true"
    # the bound holds in the chain's own domain order; on a shuffled copy
    # the search backtracks far more
    assert time.perf_counter() - t0 < 1.0
    small = scott_sentence_finite(_chain_structure(6))
    assert [eval_sentence(_chain_structure(n), small).value
            for n in (5, 6, 7)] == ["false", "true", "false"]


# -- the pigeonhole cut


def test_scott_sentence_of_an_80_chain_on_a_79_chain():
    # 80 pairwise distinct variables do not fit in 79 elements: the block
    # is false without the search, which takes exponential time
    f = scott_sentence_finite(_chain_structure(80))
    t0 = time.perf_counter()
    assert eval_sentence(_chain_structure(79), f).value == "false"
    assert time.perf_counter() - t0 < 1.0
    small = scott_sentence_finite(_chain_structure(6))
    for n in (1, 2, 5):
        chain = _chain_structure(n)
        assert reference_eval(chain, small, {}, 8, {}) is False
        assert eval_sentence(chain, small).value == "false"


def test_a_pigeonhole_over_a_range_cut_short_stays_unknown():
    nat = PRESENTATIONS["omega-succ"]
    f = parse_formula("exists x:N. exists y:N. exists z:N. "
                      "(x != y & x != z & y != z & S(x) != z)", nat.vocab)
    for fuel, fragment, value in ((2, False, "unknown"),
                                  (2, True, "false"),
                                  (3, False, "true"),
                                  (3, True, "true")):
        assert eval_sentence(nat, f, fuel, fragment=fragment).value == value
        assert reference_eval(nat, f, {}, fuel, {}, fragment) is {
            "true": True, "false": False, "unknown": None}[value]
    # a sort whose whole range is shorter than the fuel is exhaustive
    f = parse_formula("exists x:B. exists y:B. exists z:N. "
                      "(x != y & z = z & S(z) = S(0))", MIXED.vocab)
    assert eval_sentence(MIXED, f, 8).value == "unknown"  # N is cut short
    assert reference_eval(MIXED, f, {}, 8, {}) is None
    f = parse_formula("exists x:B. exists y:B. exists z:B. "
                      "(x != y & z = z & z = b)", MIXED.vocab)
    assert eval_sentence(MIXED, f, 8).value == "false"
    assert reference_eval(MIXED, f, {}, 8, {}) is False


def test_pigeonholes_match_reference_on_random_blocks():
    # blocks of 3 or 4 variables of S whose leading run says some of them
    # are pairwise distinct, over domains of 1 to 3 elements
    rng = random.Random(7)
    for _ in range(300):
        s = _finite_structure(rng)
        xs = [Var(f"x{i}", "S") for i in range(rng.randint(3, 4))]
        pairs = [(a, b) for i, a in enumerate(xs) for b in xs[i + 1:]]
        body = [Not(Eq(a, b)) for a, b in pairs if rng.random() < 0.8]
        body.append(rng.choice([Atom("R", (xs[0], xs[-1])),
                                Atom("P", (xs[1],)), Eq(xs[0], xs[0])]))
        f = body[0]
        for g in body[1:]:
            f = And(f, g)
        for x in reversed(xs):
            f = Exists(x, f)
        want = {True: "true", False: "false"}[reference_eval(s, f, {}, 8,
                                                             {})]
        assert eval_sentence(s, f).value == want, print_formula(f)


# -- the closure and diagram-count cuts


class _CountingExtent(set):
    """A relation extent that counts its membership tests: an atom's test
    on a binding, which a cut that decides before binding never makes."""

    def __init__(self, tuples):
        super().__init__(tuples)
        self.tests = 0

    def __contains__(self, t):
        self.tests += 1
        return set.__contains__(self, t)


def _counting(s):
    s.relations = {rel: _CountingExtent(ext)
                   for rel, ext in s.relations.items()}
    return s


def _tests(s):
    return sum(ext.tests for ext in s.relations.values())


def test_scott_sentence_of_an_80_chain_on_an_81_chain():
    # every binding of the 80 variables fails only at the closure, so the
    # block is false before any variable is bound: no atom is tested
    f = scott_sentence_finite(_chain_structure(80))
    chain = _counting(_chain_structure(81))
    t0 = time.perf_counter()
    assert eval_sentence(chain, f).value == "false"
    assert time.perf_counter() - t0 < 1.0
    assert _tests(chain) == 0
    small = scott_sentence_finite(_chain_structure(3))
    for n in (4, 5):
        assert reference_eval(_chain_structure(n), small, {}, 8, {}) is False
        assert eval_sentence(_chain_structure(n), small).value == "false"
    # and so for one or two variables, whose blocks move no conjunct
    for n in (1, 2):
        f = scott_sentence_finite(_chain_structure(n))
        chain = _counting(_chain_structure(n + 2))
        assert eval_sentence(chain, f).value == "false"
        assert _tests(chain) == 0


def test_scott_sentence_of_a_9_set_on_a_10_set():
    # the 9-element pure set has 10!/1! = 3.6 million embeddings into the
    # 10-element one, which plain order enumerates, each refuted only by
    # the closure
    pure = parse_vocabulary("sort S")
    f = scott_sentence_finite(FiniteStructure(pure, {"S": range(9)}))
    t0 = time.perf_counter()
    assert eval_sentence(FiniteStructure(pure, {"S": range(10)}),
                         f).value == "false"
    assert time.perf_counter() - t0 < 1.0
    assert eval_sentence(FiniteStructure(pure, {"S": range(9)}),
                         f).value == "true"
    # the closure cut counts values: a domain listing one element twice
    # has one value, as the reference reads it
    f = scott_sentence_finite(FiniteStructure(pure, {"S": ["a"]}))
    twice = FiniteStructure(pure, {"S": ["a", "a"]})
    assert reference_eval(twice, f, {}, 8, {}) is True
    assert eval_sentence(twice, f).value == "true"


DIGRAPH = parse_vocabulary("sort S\nrel R : S S")


def test_diagram_count_cut_reads_only_tuples_inside_the_sort():
    # FiniteStructure takes a tuple naming a non-element, which the
    # sort's own count must leave out: the target is the source
    source = FiniteStructure(DIGRAPH, {"S": ["a", "b"]}, {"R": {("a", "b")}})
    target = FiniteStructure(DIGRAPH, {"S": ["a", "b"]},
                             {"R": {("a", "b"), ("a", "zz")}})
    f = scott_sentence_finite(source)
    assert reference_eval(target, f, {}, 8, {}) is True
    assert eval_sentence(target, f).value == "true"
    # a 3-cycle against same-size digraphs: another edge count is refuted
    # before any binding, the same count is searched
    cycle = FiniteStructure(DIGRAPH, {"S": ["a", "b", "c"]},
                            {"R": {("a", "b"), ("b", "c"), ("c", "a")}})
    f = scott_sentence_finite(cycle)
    for edges, value, tested in (({("a", "b")}, "false", False),
                                 ({("a", "b"), ("b", "a"), ("c", "c")},
                                  "false", True),
                                 ({("b", "a"), ("c", "b"), ("a", "c")},
                                  "true", True)):
        target = _counting(FiniteStructure(DIGRAPH, {"S": ["a", "b", "c"]},
                                           {"R": edges}))
        assert eval_sentence(target, f).value == value
        assert (_tests(target) > 0) is tested, edges


def test_scott_sentences_of_digraphs_agree_with_isomorphism():
    # all 2 + 16 + 512 digraphs of 1 to 3 elements as targets; as sources
    # every 2-element one and a seeded sample of 3-element ones
    targets = [s for n in (1, 2, 3)
               for s in structures.all_finite_structures(DIGRAPH, n)]
    assert len(targets) == 530
    sources = (list(structures.all_finite_structures(DIGRAPH, 2))
               + random.Random(24).sample(targets[18:], 6))
    for source in sources:
        f = scott_sentence_finite(source)
        got = [eval_sentence(t, f).value == "true" for t in targets]
        assert got == [structures.is_isomorphic(source, t) for t in targets]


def _negated(f, n):
    for _ in range(n):
        f = Not(f)
    return f


def test_deep_negation_runs_evaluate():
    # a run of ~ compiles to one node, so its depth costs no recursion
    chain = _presentation("chain3.struct")
    f = parse_formula("forall x:S. (x = x)", chain.vocab)
    for n in (3000, 3001, 10000, 10001):
        assert eval_sentence(chain, _negated(f, n)).value == (
            "false" if n % 2 else "true"), n
    # and an unknown body stays unknown under any number of them
    nat = PRESENTATIONS["omega-succ"]
    f = parse_formula("forall x:N. (x = x)", nat.vocab)
    for n in (0, 1, 3000, 3001, 10000, 10001):
        assert eval_sentence(nat, _negated(f, n), fuel=3).value == \
            "unknown", n


@settings(max_examples=200, deadline=None)
@given(f=formulas(LANGUAGES["finite"]))
def test_printing_is_unchanged(f):
    assert print_formula(f) == reference_print(f)


def test_printing_a_20_chain_is_unchanged():
    f = scott_sentence_finite(_chain_structure(20))
    assert print_formula(f) == reference_print(f)
