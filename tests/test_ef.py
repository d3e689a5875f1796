"""Ehrenfeucht-Fraisse equivalence and separating sentences, pinned against
the search it replaced: signatures built without sharing, and a
separating-sentence search that tries every Spoiler move and every reply.
Like that reference, the game ignores sorts (ROADMAP item 1), so sentences
are checked by evaluation on single-sorted vocabularies only; on two-sorted
ones the results are compared with the reference."""

import functools
import gc
import itertools
import random
import time
from collections import Counter

import pytest

from omegalogic.syntax import (
    And, Atom, Const, Eq, Exists, Not, Var, parse_vocabulary, print_formula,
    quantifier_rank,
)
from omegalogic.structures import (
    EvalError, FiniteStructure, all_finite_structures, eval_sentence,
    parse_structure,
)
from omegalogic import types_atomicity
from omegalogic.types_atomicity import (
    _ef_relations, _new_facts, _twin_classes, ef_equivalent, ef_signature,
)


DIGRAPH = parse_vocabulary("sort S\nrel R : S S")
ORDER = parse_vocabulary("sort S\nrel < : S S")
SET = parse_vocabulary("sort S")
MARKED = parse_vocabulary("sort S\nrel R : S S\nrel P : S\nconst c : S")
TWO_SORTED = parse_vocabulary("sort A\nsort B\nrel P : A")
TERNARY = parse_vocabulary(
    "sort S\nrel T : S S S\nrel Z :\nconst c : S\nconst d : S")


# -- the reference: whole-tree search over unshared signatures


def _reference_atomic_type(s, tup):
    pts = tuple(s.constants[d.name] for d in s.vocab.constants()) + tup
    facts = set()
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            if i < j and a == b:
                facts.add(("=", i, j))
    for d in s.vocab.relations():
        for idx in itertools.product(range(len(pts)), repeat=d.arity):
            if tuple(pts[i] for i in idx) in s.relations[d.name]:
                facts.add((d.name, idx))
    return frozenset(facts)


def reference_signature(s, rounds):
    elems = [e for sort in s.vocab.sorts for e in s.domains[sort]]

    def sig(tup, r):
        if r == 0:
            return _reference_atomic_type(s, tup)
        return (_reference_atomic_type(s, tup),
                frozenset(sig(tup + (x,), r - 1) for x in elems))

    return sig((), rounds)


def _reference_separator(a, ta, b, tb):
    nconst = len(a.vocab.constants())
    consts = [Const(d.name, d.result_sort) for d in a.vocab.constants()]
    sort = a.vocab.sorts[0]

    def term(i):
        return consts[i] if i < nconst else Var(f"v{i - nconst}", sort)

    fa = _reference_atomic_type(a, ta)
    fb = _reference_atomic_type(b, tb)
    rels = [d.name for d in a.vocab.relations()]

    def order(fact):
        """By the last point the fact names, the constants counting as one
        point; then one of ta's before one of tb's; then by that last
        point; then equalities by their first point before relation facts,
        these by relation, by the first position holding their last point
        and by their points."""
        if fact[0] == "=":
            last, rest = fact[2], (-1, 0, (fact[1],))
        else:
            idx = fact[1]
            last = max(idx, default=-1)
            rest = (rels.index(fact[0]), idx.index(last) if idx else 0, idx)
        return (max(last, nconst - 1), fact not in fa, last) + rest

    for fact in sorted(fa ^ fb, key=order)[:1]:
        if fact[0] == "=":
            lit = Eq(term(fact[1]), term(fact[2]))
        else:
            lit = Atom(fact[0], tuple(term(i) for i in fact[1]))
        return lit if fact in fa else Not(lit)
    return None


def reference_distinguish(a, ta, b, tb, r, memo):
    key = (id(a), ta, tb, r)
    if key in memo:
        return memo[key]
    res = _reference_separator(a, ta, b, tb)
    if res is None and r > 0:
        sort = a.vocab.sorts[0]
        x = Var(f"v{len(ta)}", sort)
        a_elems = [e for s_ in a.vocab.sorts for e in a.domains[s_]]
        b_elems = [e for s_ in b.vocab.sorts for e in b.domains[s_]]
        for xa in a_elems:
            parts = [reference_distinguish(a, ta + (xa,), b, tb + (yb,),
                                           r - 1, memo)
                     for yb in b_elems]
            if all(p is not None for p in parts):
                body = parts[0] if parts else Eq(x, x)
                for p in parts[1:]:
                    body = And(body, p)
                res = Exists(x, body)
                break
        if res is None:
            for yb in b_elems:
                parts = [reference_distinguish(b, tb + (yb,), a, ta + (xa,),
                                               r - 1, memo)
                         for xa in a_elems]
                if all(p is not None for p in parts):
                    body = parts[0] if parts else Eq(x, x)
                    for p in parts[1:]:
                        body = And(body, p)
                    res = Not(Exists(x, body))
                    break
    memo[key] = res
    return res


def reference_ef(a, b, rounds):
    if reference_signature(a, rounds) == reference_signature(b, rounds):
        return ("equivalent", None)
    return ("distinguished", reference_distinguish(a, (), b, (), rounds, {}))


# -- structures


def digraph(rng, n, prefix):
    dom = [f"{prefix}{i}" for i in range(n)]
    return FiniteStructure(DIGRAPH, {"S": dom},
                           {"R": {(x, y) for x in dom for y in dom
                                  if rng.random() < 0.4}})


def marked_digraph(rng, n, prefix):
    """A digraph with a unary relation and a constant."""
    dom = [f"{prefix}{i}" for i in range(n)]
    return FiniteStructure(MARKED, {"S": dom},
                           {"R": {(x, y) for x in dom for y in dom
                                  if rng.random() < 0.4},
                            "P": {(x,) for x in dom if rng.random() < 0.5}},
                           constants={"c": rng.choice(dom)})


def ternary(rng, n, prefix, density):
    """A ternary relation of the given density, a 0-ary relation and two
    constants, which may name the same element."""
    dom = [f"{prefix}{i}" for i in range(n)]
    return FiniteStructure(TERNARY, {"S": dom},
                           {"T": {t for t in itertools.product(dom, repeat=3)
                                  if rng.random() < density},
                            "Z": {()} if rng.random() < 0.5 else set()},
                           constants={"c": rng.choice(dom),
                                      "d": rng.choice(dom)})


def ternary_pairs():
    """40 pairs over `TERNARY`: sparse relations on equal domains of one to
    three elements, so that both verdicts occur."""
    rng = random.Random(20261020)
    for _ in range(40):
        density, n = rng.choice((0.02, 0.1, 0.3)), rng.randint(1, 3)
        yield (ternary(rng, n, "x", density), ternary(rng, n, "y", density),
               rng.randint(1, 2))


def chain(n, prefix="c"):
    dom = [f"{prefix}{i}" for i in range(n)]
    return FiniteStructure(ORDER, {"S": dom},
                           {"<": {(dom[i], dom[j]) for i in range(n)
                                  for j in range(i + 1, n)}})


def pure_set(n, prefix="e"):
    return FiniteStructure(SET, {"S": [f"{prefix}{i}" for i in range(n)]})


def two_sorted(n_a, n_b):
    return FiniteStructure(TWO_SORTED,
                           {"A": [f"a{i}" for i in range(n_a)],
                            "B": [f"b{i}" for i in range(n_b)]})


def check_separator(a, b, f, rounds):
    assert quantifier_rank(f) <= rounds
    assert eval_sentence(a, f).value == "true"
    assert eval_sentence(b, f).value == "false"


def differential_pairs():
    rng = random.Random(20261018)
    for _ in range(60):
        n = rng.randint(1, 4)
        yield digraph(rng, n, "x"), digraph(rng, n, "y"), rng.randint(1, 3)
    for _ in range(20):
        yield (digraph(rng, rng.randint(1, 4), "x"),
               digraph(rng, rng.randint(1, 4), "y"), rng.randint(1, 3))
    for _ in range(30):
        yield (marked_digraph(rng, rng.randint(1, 4), "x"),
               marked_digraph(rng, rng.randint(1, 4), "y"),
               rng.randint(1, 3))
    for m, n, rounds in ((2, 3, 2), (3, 4, 2), (3, 4, 3), (4, 5, 3),
                         (5, 7, 3), (2, 2, 3)):
        yield chain(m, "x"), chain(n, "y"), rounds
        yield chain(n, "x"), chain(m, "y"), rounds
    # the last three are the costly pure-set slots of the ef-iso benchmark
    for m, n, rounds in ((1, 2, 2), (2, 3, 3), (3, 5, 3), (1, 4, 1),
                         (3, 4, 4), (3, 9, 4), (8, 9, 4), (2, 9, 3)):
        yield pure_set(m, "x"), pure_set(n, "y"), rounds
        yield pure_set(n, "x"), pure_set(m, "y"), rounds
    yield from ternary_pairs()


def printed(result):
    """An `ef_equivalent` answer with its sentence printed."""
    verdict, f = result
    return verdict, None if f is None else print_formula(f)


@functools.cache
def reference_answers():
    """`reference_ef` of each of `differential_pairs()`, printed."""
    return tuple(printed(reference_ef(a, b, rounds))
                 for a, b, rounds in differential_pairs())


# -- tests


def test_matches_reference():
    for (a, b, rounds), want in zip(differential_pairs(),
                                    reference_answers()):
        got = ef_equivalent(a, b, rounds)
        assert printed(got) == want, (a.relations, b.relations, rounds)
        if got[1] is not None:
            check_separator(a, b, got[1], rounds)


def test_memos_stay_within_one_call():
    """The signature ids and the sentence memos are keyed by `id()` of
    objects that live as long as one call.  Run in two shuffled orders,
    with the garbage of each call collected before the next (so that its
    addresses can be handed out again), every answer still prints as the
    reference's."""
    pairs = list(differential_pairs())
    want = reference_answers()
    gc.freeze()  # each collection then skips the objects made before it
    try:
        for seed in (1, 2):
            order = list(range(len(pairs)))
            random.Random(seed).shuffle(order)
            for i in order:
                gc.collect()
                assert printed(ef_equivalent(*pairs[i])) == want[i], i
    finally:
        gc.unfreeze()


def reference_canonical(tup, twin):
    """Each new point of `tup` sent to the first member of its twin class
    not used before it."""
    image, out = {}, []
    for x in tup:
        if x not in image:
            image[x] = next(y for y in twin[x] if y not in out)
        out.append(image[x])
    return tuple(out)


def test_facts_worked_out_once_per_canonical_tuple(monkeypatch):
    """In one `ef_equivalent` call, `_new_facts` runs at most once per
    structure and point tuple, and past the constants' own prefixes only
    at canonical tuples."""
    class Tagged(list):
        structure = None

    def tagged_relations(s):
        rels = Tagged(_ef_relations(s))
        rels.structure = s
        return rels

    def counted_new_facts(pts, rels):
        calls[id(rels.structure), pts] += 1
        s = rels.structure
        consts = tuple(s.constants[d.name] for d in s.vocab.constants())
        if len(pts) > len(consts):
            tup = pts[len(consts):]
            twin = _twin_classes(s)
            assert twin is None or reference_canonical(tup, twin) == tup
        return _new_facts(pts, rels)

    monkeypatch.setattr(types_atomicity, "_ef_relations", tagged_relations)
    monkeypatch.setattr(types_atomicity, "_new_facts", counted_new_facts)
    seen = 0
    for a, b, rounds in differential_pairs():
        calls = Counter()
        ef_equivalent(a, b, rounds)
        assert max(calls.values()) == 1, (a.relations, b.relations, rounds)
        seen += len(calls)
    assert seen > 1000


def test_ternary_pairs_reach_both_verdicts():
    """The ternary pairs pin facts of arity 0 and 3 and of repeated points
    (two constants naming one element) in the reference comparison."""
    pairs = list(ternary_pairs())
    verdicts = Counter(reference_ef(a, b, r)[0] for a, b, r in pairs)
    assert min(verdicts["equivalent"], verdicts["distinguished"]) >= 5
    assert any(s.constants["c"] == s.constants["d"]
               for a, b, _ in pairs for s in (a, b))


def reference_new_facts(pts, rels):
    """The facts of the newest point as `_new_facts` defined them by index
    products per relation and argument position."""
    if not pts:
        return tuple((name, ()) for name, arity, ext in rels
                     if not arity and () in ext)
    last = len(pts) - 1
    older, every = range(last), range(last + 1)
    facts = [("=", i, last) for i in older if pts[i] == pts[last]]
    for name, arity, ext in rels:
        for k in range(arity):
            ranges = [older] * k + [(last,)] + [every] * (arity - k - 1)
            for idx in itertools.product(*ranges):
                if tuple(map(pts.__getitem__, idx)) in ext:
                    facts.append((name, idx))
    return tuple(facts)


def test_new_facts_match_index_products():
    """On random structures with relations of arity 0 to 3 and random point
    tuples with repeats, `_new_facts` lists the facts of the index-product
    definition in its order."""
    rng = random.Random(21)
    voc = parse_vocabulary("sort S\nrel Z :\nrel P : S\nrel R : S S\n"
                           "rel T : S S S\nrel Y :")
    for _ in range(60):
        dom = [f"e{i}" for i in range(rng.randint(1, 3))]
        s = FiniteStructure(voc, {"S": dom}, {
            d.name: {t for t in itertools.product(dom, repeat=d.arity)
                     if rng.random() < 0.4}
            for d in voc.relations()})
        raw = [(d.name, d.arity, s.relations[d.name])
               for d in voc.relations()]
        rels = _ef_relations(s)
        for n in range(6):
            pts = tuple(rng.choice(dom) for _ in range(n))
            assert _new_facts(pts, rels) == reference_new_facts(pts, raw), \
                (s.relations, pts)


def test_signature_equality_matches_reference():
    rng = random.Random(5)
    structs = [digraph(rng, rng.randint(1, 3), "x") for _ in range(30)]
    structs += [marked_digraph(rng, rng.randint(1, 3), "x")
                for _ in range(30)]
    mine = [ef_signature(s, 3) for s in structs]
    ref = [reference_signature(s, 3) for s in structs]
    for i, j in itertools.combinations(range(len(structs)), 2):
        if structs[i].vocab is structs[j].vocab:
            assert (mine[i] == mine[j]) == (ref[i] == ref[j]), (i, j)


def _swap_is_automorphism(s, x, y):
    swap = {x: y, y: x}

    def move(e):
        return swap.get(e, e)

    return (all(move(e) == e for e in s.constants.values())
            and all({tuple(map(move, t)) for t in ext} == ext
                    for ext in s.relations.values()))


def _small_marked(sizes):
    return [s for n in sizes for s in all_finite_structures(MARKED, n)]


def test_twin_classes_match_brute_force():
    """Two elements share a twin class iff they have the same sort and
    swapping them is an automorphism (which fixes the constants)."""
    structs = _small_marked((1, 2, 3))
    structs += [s for a, b, _ in two_sorted_pairs() for s in (a, b)]
    shared = 0
    for s in structs:
        twin = _twin_classes(s) or {}
        elems = [(e, sort) for sort in s.vocab.sorts for e in s.domains[sort]]
        for (x, sx), (y, sy) in itertools.combinations(elems, 2):
            want = sx == sy and _swap_is_automorphism(s, x, y)
            assert (y in twin.get(x, (x,))) == want, (s.relations, x, y)
            shared += want
    assert shared > 400


@pytest.mark.parametrize("sizes,rounds", [((1, 2), 3), ((3,), 2)])
def test_signatures_with_twins_match_reference(sizes, rounds):
    """On every small structure with a mark and a constant, and on the
    two-sorted ones, two structures share an `ef_signature` iff they share
    a reference signature."""
    for structs in (_small_marked(sizes),
                    [s for a, b, _ in two_sorted_pairs() for s in (a, b)]):
        pairs = {(ef_signature(s, rounds), reference_signature(s, rounds))
                 for s in structs}
        assert len(pairs) == len({p[0] for p in pairs}) == len(
            {p[1] for p in pairs})


def two_sorted_pairs():
    """Random two-sorted structures with up to two elements per sort, and
    the ROADMAP pair A={a1}, B={b1} against A={a1}, B={b1,b2}."""
    rng = random.Random(3)
    for _ in range(40):
        a, b = (two_sorted(rng.randint(0, 2), rng.randint(0, 2))
                for _ in range(2))
        for s in (a, b):
            s.relations["P"] = {(x,) for x in s.domains["A"]
                                if rng.random() < 0.5}
        yield a, b, rng.randint(1, 3)
    a = parse_structure("structure a\ndomain A { a1 }\ndomain B { b1 }",
                        TWO_SORTED)
    b = parse_structure("structure b\ndomain A { a1 }\ndomain B { b1 b2 }",
                        TWO_SORTED)
    yield a, b, 2
    yield b, a, 2


def test_two_sorted_matches_reference():
    for a, b, rounds in two_sorted_pairs():
        want = reference_ef(a, b, rounds)
        got = ef_equivalent(a, b, rounds)
        assert got[0] == want[0], (a.domains, b.domains, rounds)
        assert (ef_signature(a, rounds) == ef_signature(b, rounds)) == (
            want[0] == "equivalent")
        if got[1] is None:
            assert want[1] is None
        else:
            assert print_formula(got[1]) == print_formula(want[1])


def test_two_sorted_relation_facts():
    a = FiniteStructure(TWO_SORTED, {"A": ["a0", "a1"], "B": ["b0"]},
                        {"P": {("a0",)}})
    b = FiniteStructure(TWO_SORTED, {"A": ["a0", "a1"], "B": ["b0"]},
                        {"P": set()})
    verdict, f = ef_equivalent(a, b, 1)
    assert verdict == "distinguished"
    check_separator(a, b, f, 1)


def test_functions_and_presentations_rejected():
    voc = parse_vocabulary("sort S\nfun f : S -> S")
    s = FiniteStructure(voc, {"S": ["e"]}, functions={"f": {"e": "e"}})
    with pytest.raises(EvalError):
        ef_equivalent(s, s, 1)
    with pytest.raises(EvalError):
        ef_signature(s, 1)
    nat = parse_vocabulary("sort N\nconst 0 : N\nfun S : N -> N")
    omega = parse_structure("structure omega\ngenerated by tau", nat)
    with pytest.raises(EvalError):
        ef_signature(omega, 1)


def test_different_vocabularies_rejected():
    """The sentence that told these apart named P, which `a` lacks, so
    evaluating it in `a` raised KeyError."""
    a = FiniteStructure(DIGRAPH, {"S": ["x", "y"]}, {"R": {("x", "y")}})
    b = FiniteStructure(parse_vocabulary("sort S\nrel P : S"),
                        {"S": ["x", "y"]}, {"P": {("x",)}})
    for x, y in ((a, b), (b, a)):
        with pytest.raises(EvalError, match="common vocabulary"):
            ef_equivalent(x, y, 1)


def test_negative_rounds_rejected():
    s = chain(2)
    with pytest.raises(ValueError):
        ef_equivalent(s, s, -1)
    with pytest.raises(ValueError):
        ef_signature(s, -1)
    assert ef_equivalent(s, chain(3), 0) == ("equivalent", None)


def test_argument_order_costs_alike():
    """Both orders of the 6- and 7-element chains at 3 rounds separate, and
    neither searches past Spoiler's first winning move."""
    six, seven = chain(6, "x"), chain(7, "y")
    times = []
    for a, b in ((six, seven), (seven, six)):
        t0 = time.perf_counter()
        verdict, f = ef_equivalent(a, b, 3)
        times.append(time.perf_counter() - t0)
        assert verdict == "distinguished"
        check_separator(a, b, f, 3)
    # the whole-tree search took about 0.9 s and 0.4 s
    assert max(times) < 0.5, times
