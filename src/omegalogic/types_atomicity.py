"""Rank-bounded types, principality, atomicity, Ehrenfeucht-Fraisse
equivalence, Scott sentences for finite structures, and the generativity
(self-embedding) checker.

Everything here is desk-scale and bound-stamped: principality is decided
relative to a declared probe family and rank, EF equivalence relative to a
round count, generativity relative to a sample bound.  Verdicts carry the
bounds they were reached under.
"""

import functools
import itertools
import operator
import re
import weakref
from collections import Counter
from dataclasses import dataclass, replace
from math import gcd
from typing import Optional

from .syntax import (
    BOT, And, App, Atom, Const, Eq, Exists, FamilyMember, Forall, Formula,
    Not, Or, SyntaxError_, Term, Var, applications, arg_tuples,
    free_variables, parse_at, parse_formula, parse_term, print_formula,
    print_term, quantifier_rank, read_lines, substitute,
)
from .structures import (
    EvalError, _eval, check_common_vocabulary, map_defect,
)


# ---------------------------------------------------------------------------
# Rank-bounded complete types


@dataclass(frozen=True)
class TypeDescriptor:
    """The canonical rank-<=k formulas in n variables a tuple satisfies."""

    arity: int
    rank: int
    formulas: tuple
    realizing: tuple = ()
    classification: str = "undecided-at-rank"
    generator: Optional[Formula] = None
    evidence: tuple = ()


def _type_terms(vocab, varnames):
    """Terms allowed in type formulas: the variables, the vocabulary
    constants, and one layer of unary function application."""
    sort = vocab.sorts[0]
    base = [Var(v, sort) for v in varnames]
    base += vocab.constant_terms()
    unary = [d for d in vocab.functions() if d.arity == 1]
    return base + applications(unary, base)


def _type_atoms(vocab, varnames):
    terms = _type_terms(vocab, varnames)
    atoms = [Atom(d.name, args)
             for d in vocab.relations() for args in arg_tuples(d, terms)]
    for i, t1 in enumerate(terms):
        for t2 in terms[i + 1:]:
            if t1.sort == t2.sort:
                atoms.append(Eq(t1, t2))
    return atoms


def _check_bound(value, name):
    """ValueError unless the rank or round count `value` is >= 0."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, not {value}")


_POOLS = weakref.WeakKeyDictionary()  # vocabulary -> {(arity, rank): pool}


def canonical_formulas(vocab, arity, rank):
    """The formula pool behind complete_type: literals over v0..v_{n-1} plus
    single-quantifier prefixes nested to the given rank, in shortlex order
    on the printed form.  Built once per vocabulary, arity and rank, so that
    its nodes, and the plans compiled on them, are reused.  `rank` must be
    >= 0."""
    _check_bound(rank, "rank")

    def pool(varnames, k):
        atoms = _type_atoms(vocab, varnames)
        out = list(atoms) + [Not(a) for a in atoms]
        if k > 0:
            y = f"x{k}"
            sort = vocab.sorts[0]
            for f in pool(varnames + [y], k - 1):
                if y in free_variables(f):
                    out.append(Exists(Var(y, sort), f))
                    out.append(Forall(Var(y, sort), f))
        return out
    pools = _POOLS.setdefault(vocab, {})
    if (arity, rank) not in pools:
        by_text = {}  # the first formula printed as each text
        for f in pool([f"v{i}" for i in range(arity)], rank):
            by_text.setdefault(print_formula(f), f)
        pools[arity, rank] = tuple(
            by_text[t] for t in sorted(by_text, key=lambda t: (len(t), t)))
    return pools[arity, rank]


def holds_on_tuple(s, f, tup, fuel=8):
    """Truth of f(v0..v_{n-1}) at the tuple; raises on insufficient fuel."""
    env = {f"v{i}": e for i, e in enumerate(tup)}
    v = _eval(s, f, env, fuel, {})
    if v is None:
        raise EvalError(
            f"fuel {fuel} insufficient to decide {print_formula(f)}")
    return v


def _truth_table(fuel):
    """`holds_on_tuple` at `fuel` as `holds(probe, f, tup)`, evaluating
    each (probe, formula, tuple) at most once: a truth value is kept, an
    error is not, so what raises raises again at its next use.  The table
    lives as long as the function, one classification's worth."""
    table = {}

    def holds(probe, f, tup):
        key = (id(probe), f, tup)
        v = table.get(key)
        if v is None:
            v = table[key] = holds_on_tuple(probe, f, tup, fuel)
        return v
    return holds


def complete_type(s, tup, rank, fuel=8) -> TypeDescriptor:
    """The rank-bounded complete type of the tuple over the empty set;
    `rank` must be >= 0."""
    return _complete_type(
        s, tup, rank, lambda probe, f, t: holds_on_tuple(probe, f, t, fuel))


def _complete_type(s, tup, rank, holds):
    """`complete_type`, reading each formula's truth by `holds(s, f,
    tup)`."""
    _check_bound(rank, "rank")
    tup = tuple(tup)
    for e in tup:
        if s.sort_of(e) is None:
            raise EvalError(f"{e!r} is not a domain element")
    sat = [f for f in canonical_formulas(s.vocab, len(tup), rank)
           if holds(s, f, tup)]
    return TypeDescriptor(len(tup), rank, tuple(sat), realizing=tup)


def _probe_tuples(probe, arity, bound=12):
    if probe.kind == "finite":
        elems = [e for sort in probe.vocab.sorts for e in probe.domains[sort]]
    else:
        elems = probe.enumerate_elements(bound)
    return itertools.product(elems, repeat=arity)


def is_principal(t: TypeDescriptor, probes, fuel=8,
                 bound=12) -> TypeDescriptor:
    """Classify the type against the probe structures.

    Principal if some member implies every other member on all probe tuples
    satisfying it; nonprincipal if every candidate generator is separated by
    a probe tuple.  The verdict is relative to the probes and the bound.
    Each (formula, probe tuple) pair is evaluated at most once
    (`_truth_table`)."""
    if not probes:
        raise ValueError("is_principal needs at least one probe structure")
    return _principal(t, probes, _truth_table(fuel), bound)


def _principal(t, probes, holds, bound=12):
    """`is_principal`, reading each formula's truth by `holds(probe, f,
    tup)`: a member is tried as generator in order, each probe tuple that
    satisfies it checked against the members in order, the first
    unsatisfied one its counterexample; an error leaves the type
    undecided."""
    evidence = []
    for g in t.formulas:
        counter = None
        for probe in probes:
            for tup in _probe_tuples(probe, t.arity, bound):
                try:
                    if not holds(probe, g, tup):
                        continue
                    bad = next((m for m in t.formulas
                                if not holds(probe, m, tup)), None)
                except EvalError:
                    return replace(t, classification="undecided-at-rank")
                if bad is not None:
                    counter = (probe.name, tup, print_formula(g),
                               print_formula(bad))
                    break
            if counter:
                break
        if counter is None:
            return replace(t, classification="principal", generator=g)
        evidence.append(counter)
    return replace(t, classification="nonprincipal", evidence=tuple(evidence))


@dataclass
class AtomicityVerdict:
    status: str  # 'atomic-at-rank' | 'not-atomic-at-rank' | 'undecided'
    rank: int
    reason: Optional[str] = None
    evidence: tuple = ()

    def __bool__(self):
        return self.status == "atomic-at-rank"


def is_atomic(s, rank, fuel=8, max_arity=1) -> AtomicityVerdict:
    """Is every tested tuple's type principal at the rank?

    Term-generated tau-presentations are atomic outright: every element is a
    constant term, so v0 = t isolates its type.  Presentations generated by
    an auxiliary family have unnamed elements from the base vocabulary's
    point of view and stay undecided at the bound.  `rank` must be >= 0.

    One truth table (`_truth_table`) serves the whole call: the types
    that `complete_type` computes fill it, and `is_principal`'s checks
    read it, so each (pool formula, probe tuple) pair is evaluated at most
    once, in the order the loops first reach it."""
    _check_bound(rank, "rank")
    if s.kind == "term-generated":
        if s.generated_by == "tau":
            return AtomicityVerdict("atomic-at-rank", rank,
                                    reason="constant-term-generators")
        return AtomicityVerdict(
            "undecided", rank,
            reason="elements are not named by constant terms; "
                   "non-principal evidence accumulates at the rank bound")
    holds = _truth_table(fuel)
    for arity in range(1, max_arity + 1):
        for tup in _probe_tuples(s, arity):
            td = _principal(_complete_type(s, tup, rank, holds), [s], holds)
            if td.classification == "nonprincipal":
                return AtomicityVerdict("not-atomic-at-rank", rank,
                                        evidence=td.evidence)
            if td.classification != "principal":
                return AtomicityVerdict("undecided", rank)
    return AtomicityVerdict("atomic-at-rank", rank,
                            reason="all tested types principal")


# ---------------------------------------------------------------------------
# Ehrenfeucht-Fraisse equivalence (relational vocabularies)


def _reader(idx):
    """An `operator.itemgetter` of the indices `idx`: it reads a point
    tuple's entry at the one index, or the tuple of its entries at more,
    or () at none (as the empty slice)."""
    return operator.itemgetter(*idx or [slice(0)])


@functools.cache
def _readers(arity, last):
    """The index tuples of an `arity`-ary fact of points 0..last whose
    largest index is `last`, each with its `_reader`: ordered by the first
    position holding `last`, then lexicographically.  With no points
    (`last` -1) that is the empty index tuple of a 0-ary relation.  Kept
    for the process, one immutable entry per (arity, last) asked for."""
    idxs = sorted((idx for idx in itertools.product(range(last + 1),
                                                    repeat=arity)
                   if max(idx, default=-1) == last),
                  key=lambda idx: (idx + (last,)).index(last))
    return tuple((idx, _reader(idx)) for idx in idxs)


def _ef_relations(s):
    """(name, arity, keys) per relation of `s`, the keys being its tuples
    as a `_reader` of as many indices reads them."""
    return [(d.name, d.arity,
             set(map(_reader(range(d.arity)), s.relations[d.name])))
            for d in s.vocab.relations()]


def _new_facts(pts, rels):
    """The atomic facts of the points `pts` that involve the last one, as
    point indices: ('=', i, last) for i < last naming the same element,
    then (R, idx) per relation in `rels` order, each relation's in
    `_readers` order.  With no points, the facts of no point: the true
    0-ary relations.  `rels` is `_ef_relations` of the structure.
    Separating sentences take the first fact in this order that tells two
    tuples apart, so the order is part of their text."""
    last = len(pts) - 1
    facts = [("=", i, last) for i in range(last) if pts[i] == pts[last]]
    for name, arity, keys in rels:
        facts += [(name, idx) for idx, read in _readers(arity, last)
                  if read(pts) in keys]
    return tuple(facts)


def _check_relational(s):
    if s.kind != "finite":
        raise EvalError("ef_equivalent requires finite structures")
    if s.vocab.functions():
        raise EvalError("ef_equivalent supports relational vocabularies only")


def _twin_classes(s):
    """The twin class of each element of `s`, as a tuple in domain order,
    or None when every class is a singleton.  Two elements are twins when
    they have the same sort, neither is the value of a constant, and
    swapping them maps every relation onto itself.  Twinship is an
    equivalence, and any map that sends each element to a member of its
    own class is an automorphism.  Twins occur equally often at each
    argument position of each relation, so only elements with equal
    counts are compared."""
    fixed = set(s.constants.values())
    rels = s.vocab.relations()
    exts = [s.relations[d.name] for d in rels]
    count = Counter((r, i, e) for r, ext in enumerate(exts)
                    for t in ext for i, e in enumerate(t))
    places = [(r, i) for r, d in enumerate(rels) for i in range(d.arity)]

    def twins(x, y):
        swap = {x: y, y: x}
        return all(tuple(swap.get(e, e) for e in t) in ext
                   for ext in exts for t in ext)

    classes = []
    for sort in s.vocab.sorts:
        near = {}  # counts -> the classes of elements with those counts
        for e in s.domains[sort]:
            if e in fixed:
                classes.append([e])
                continue
            mine = near.setdefault(tuple(count[r, i, e] for r, i in places),
                                   [])
            cls = next((c for c in mine if twins(c[0], e)), None)
            if cls is None:
                cls = []
                mine.append(cls)
                classes.append(cls)
            cls.append(e)
    if all(len(cls) == 1 for cls in classes):
        return None
    return {e: tuple(cls) for cls in classes for e in cls}


def _canonical(tup, head, twin):
    """The tuple an automorphism carries `tup` to by sending each new point
    to the first member of its twin class not used before it, given
    `head`, that tuple for all but the last point of `tup`."""
    x = tup[-1]
    i = tup.index(x)
    if i < len(head):
        return head + (head[i],)
    return head + (next(y for y in twin[x] if y not in head),)


class _Table:
    """The signature ids of one call, shared by the structures it compares,
    and the memos of its separating sentence.

    Equal fact tuples are one object (`facts`), so a signature is keyed by
    `(id(facts), replies)`, `replies` being the frozenset of the ids of the
    signatures one move further, or None at rank 0.  `ids` numbers these
    keys from 0 as first met, and `nodes[i]` is signature i as `(facts,
    replies)`.  Ids are compared by `==` and mean nothing outside the call.
    `positions`, `literals` and `bodies` hold `_distinguish`'s sentence per
    position, `_atomic_separator`'s literal per pair of fact tuples and
    `_winning_move`'s body per variable and parts.  Every `id()` in a key
    is that of an object alive as long as the table: a fact tuple it
    interns, a part its memoised body holds, or one of the call's sides."""

    def __init__(self):
        self.facts, self.ids, self.nodes = {}, {}, []
        self.positions, self.literals, self.bodies = {}, {}, {}

    def intern(self, facts, replies):
        """The id of the signature (facts, replies), `facts` interned."""
        key = (id(facts), replies)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.nodes)
            self.nodes.append((facts, replies))
        return i


@dataclass(frozen=True)
class _Side:
    """One structure's part in the EF game, built once per structure by
    `_signatures`: the signature function `sig`, the facts accessor `fact`,
    the call's `_Table`, the elements of the constants (the points ahead of
    every tuple), the constants as terms, the elements of every sort, and
    the sort variables are typed at."""

    sig: object
    fact: object
    table: _Table
    consts: tuple
    terms: tuple
    elems: tuple
    sort: Optional[str]


def _signatures(s, table):
    """The `_Side` of `s`, whose sig(tup, k) is the id in `table` of the
    rank-k back-and-forth signature of `tup`: the pair (the atomic facts
    that involve its last point, in `_new_facts` order, the set of ids of
    the rank-(k-1) signatures one move further), or (facts, None) at rank
    0.  Two tuples whose prefixes have the same atomic type are k-round
    equivalent iff their ids are equal.  fact(tup) is that first part, the
    fact tuple interned in `table`, read without a signature.

    Moves to an element already among the points are left out: Duplicator
    answers one with the matching point, which leaves the position as it
    was with a round less, so it tells apart no tuples that the other moves
    do not.  Tuples an automorphism swapping twins (`_twin_classes`) maps
    onto each other have one signature and one fact tuple: a tuple missing
    from a memo takes those of its canonical tuple (`_canonical`, found
    once per tuple), and the moves take one element of each twin class, the
    first not among the points, so the tuples they build are canonical.
    Facts are worked out once per canonical tuple, and signatures on
    demand, memoised by the tuple asked for and the rank."""
    _check_relational(s)
    rels = _ef_relations(s)
    elems = tuple(e for sort in s.vocab.sorts for e in s.domains[sort])
    twin = _twin_classes(s)
    consts = tuple(s.constants[d.name] for d in s.vocab.constants())
    interned = table.facts
    # the facts of the constants, those of their prefixes in turn
    first = tuple(f for j in range(len(consts) + 1)
                  for f in _new_facts(consts[:j], rels))
    facts = {(): interned.setdefault(first, first)}  # tuple -> its facts
    canon = {(): ()}  # tuple -> its canonical tuple
    sigs = {}  # (tuple, rank) -> signature id

    def canonical(tup):
        c = canon.get(tup)
        if c is None:
            c = canon[tup] = _canonical(tup, canonical(tup[:-1]), twin)
        return c

    def movers(pts):
        if twin is None:
            return [x for x in elems if x not in pts]
        taken, out = set(pts), []
        for x in elems:
            if x not in taken:
                out.append(x)
                taken.update(twin[x])
        return out

    def fact(tup):
        f = facts.get(tup)
        if f is None:
            if twin is not None and (c := canonical(tup)) != tup:
                f = fact(c)
            else:
                f = _new_facts(consts + tup, rels)
                f = interned.setdefault(f, f)
            facts[tup] = f
        return f

    def sig(tup, k):
        key = (tup, k)
        i = sigs.get(key)
        if i is None:
            if twin is not None and (c := canonical(tup)) != tup:
                i = sig(c, k)
            else:
                replies = None if k == 0 else frozenset([
                    sig(tup + (x,), k - 1) for x in movers(consts + tup)])
                i = table.intern(fact(tup), replies)
            sigs[key] = i
        return i

    return _Side(sig, fact, table, consts, s.vocab.constant_terms(), elems,
                 s.vocab.sorts[0] if s.vocab.sorts else None)


def ef_signature(s, rounds):
    """The rank-`rounds` back-and-forth signature of the empty tuple, as a
    value: (facts, None) at rank 0, else (facts, the frozenset of the
    signatures one move further).  Two finite structures are EF-equivalent
    at that many rounds iff their signatures are equal, across calls too.
    `rounds` must be >= 0.  It is the root id of `_signatures` expanded,
    each id once, so equal parts are one object; `ef_equivalent` compares
    the ids and expands nothing.  Moves range over the elements of every
    sort (see ROADMAP item 1)."""
    _check_bound(rounds, "rounds")
    table = _Table()
    root = _signatures(s, table).sig((), rounds)
    values = {}  # id -> its value

    def value(i):
        v = values.get(i)
        if v is None:
            facts, replies = table.nodes[i]
            v = values[i] = (facts, None if replies is None
                             else frozenset(map(value, replies)))
        return v
    return value(root)


def _atomic_separator(a, ta, b, tb):
    """A literal true of ta on side a and false of tb on side b, or None:
    the first fact of the newest points (the constants, for empty tuples)
    that holds of one tuple and not of the other, one of ta's before one
    of tb's, each in `_new_facts` order.  Only the newest points are
    compared, since a pair of longer tuples is only reached from a parent
    pair with no atomic separator, whose older points share every fact.
    The facts are read by the sides' `fact`, interned in their shared
    table, so equal facts are one object, and the literal is memoised per
    pair of fact tuples in `literals`."""
    fa, fb = a.fact(ta), b.fact(tb)
    if fa is fb:
        return None
    key = (id(fa), id(fb))
    lit = a.table.literals.get(key)
    if lit is not None:
        return lit
    nconst = len(a.terms)

    def term(i):
        if i < nconst:
            return a.terms[i]
        return Var(f"v{i - nconst}", a.sort)

    def literal(fact):
        if fact[0] == "=":
            return Eq(term(fact[1]), term(fact[2]))
        return Atom(fact[0], tuple(term(i) for i in fact[1]))

    lit = next((literal(f) for f in fa if f not in fb), None)
    if lit is None:
        lit = next((Not(literal(f)) for f in fb if f not in fa), None)
    a.table.literals[key] = lit
    return lit


def _winning_move(a, ta, b, tb, r):
    """Exists v_n. (a separator of ta+(x,) from each tb+(y,)) for Spoiler's
    first move x on side a that no y on side b answers, or None.  A move to
    an element already among the points wins iff ta and tb differ at one
    round less.  The body is memoised in `bodies` per variable and the
    identities of its parts, so equal conjunctions are built once."""
    pts = a.consts + ta
    replies = a.table.nodes[b.sig(tb, r)][1]
    for xa in a.elems:
        if xa in pts:
            if a.sig(ta, r - 1) == b.sig(tb, r - 1):
                continue
        elif a.sig(ta + (xa,), r - 1) in replies:
            continue
        parts = [_distinguish(a, ta + (xa,), b, tb + (yb,), r - 1)
                 for yb in b.elems]
        bodies = a.table.bodies
        key = (len(ta), tuple(map(id, parts)))
        move = bodies.get(key)
        if move is None:
            x = Var(f"v{len(ta)}", a.sort)
            body = parts[0] if parts else Eq(x, x)
            for p in parts[1:]:
                body = And(body, p)
            move = bodies[key] = Exists(x, body)
        return move
    return None


def _distinguish(a, ta, b, tb, r):
    """A formula (free vars v0..) true of ta on side a, false of tb on side
    b, for tuples whose rank-r signatures differ, memoised in `positions`
    by the side and the real tuples."""
    memo = a.table.positions
    key = (id(a), ta, tb)
    res = memo.get(key)
    if res is None:
        res = _atomic_separator(a, ta, b, tb)
        if res is None:
            res = _winning_move(a, ta, b, tb, r)
        if res is None:
            res = Not(_winning_move(b, tb, a, ta, r))
        memo[key] = res
    return res


def ef_equivalent(a, b, rounds, want_formula=True):
    """('equivalent', None) or ('distinguished', separating sentence).

    `a` and `b` must be finite structures over one relational vocabulary
    (`check_common_vocabulary`, else EvalError), and `rounds` must be >= 0
    (else ValueError).  The signatures of both structures get ids in one
    `_Table`, so comparing two is comparing two integers; each structure's
    signatures collapse its twin classes (`_signatures`).  The separating
    sentence follows Spoiler's winning strategy: at each position it takes
    the first move, in a and then in b, whose signature no reply matches,
    and recurses only into that move against each reply.  Moves and
    replies are the elements themselves, twins included, and the memo of
    positions is keyed by the real tuples, since which move wins first
    depends on them; a position is first tested for an atomic separator of
    its newest points, the first fact in `_new_facts` order that tells
    them apart.  A move to an element already among the points wins
    exactly when the two tuples differ with a round less.  Literals and
    move bodies are memoised in the table, so positions that differ only
    in twins share their sentence's nodes without building them again.
    The game ignores sorts: a move ranges over the elements of every sort,
    and variables are typed at the first sort (ROADMAP item 1)."""
    _check_bound(rounds, "rounds")
    check_common_vocabulary(a, b, "ef_equivalent")
    table = _Table()
    sa, sb = _signatures(a, table), _signatures(b, table)
    if sa.sig((), rounds) == sb.sig((), rounds):
        return ("equivalent", None)
    if not want_formula:
        return ("distinguished", None)
    f = _distinguish(sa, (), sb, (), rounds)
    assert quantifier_rank(f) <= rounds
    return ("distinguished", f)


# ---------------------------------------------------------------------------
# Scott sentences for finite structures


def scott_sentence_finite(s) -> Formula:
    """Existential enumeration of the domain + full diagram + closure.

    For a 2-element pure set this is the classic
    exists x exists y (x != y & forall z (z = x | z = y))."""
    if s.kind != "finite":
        raise EvalError("scott_sentence_finite requires a finite structure")
    elems = [(e, sort) for sort in s.vocab.sorts for e in s.domains[sort]]
    xs = {e: Var(f"x{i}", sort) for i, (e, sort) in enumerate(elems)}
    conjuncts = []
    for i, (e1, s1) in enumerate(elems):
        for (e2, s2) in elems[i + 1:]:
            if s1 == s2:
                conjuncts.append(Not(Eq(xs[e1], xs[e2])))
    for d in s.vocab.constants():
        conjuncts.append(Eq(Const(d.name, d.result_sort),
                            xs[s.constants[d.name]]))
    for d in s.vocab.relations():
        for tup in itertools.product(*(s.domains[sr] for sr in d.arg_sorts)):
            atom = Atom(d.name, tuple(xs[e] for e in tup))
            conjuncts.append(atom if tup in s.relations[d.name]
                             else Not(atom))
    for d in s.vocab.functions():
        for tup in itertools.product(*(s.domains[sr] for sr in d.arg_sorts)):
            conjuncts.append(Eq(App(d.name, tuple(xs[e] for e in tup),
                                    d.result_sort),
                                xs[s.apply_fun(d.name, list(tup))]))
    # `forall z:S. (z != z)` for each empty sort S, put after the other
    # closures, which the evaluator's closure cut reads right after the
    # diagram
    empty = []
    for sort in s.vocab.sorts:
        z = Var("z", sort)
        if not s.domains[sort]:
            empty.append(Forall(z, Not(Eq(z, z))))
            continue
        alts = [Eq(z, xs[e]) for e in s.domains[sort]]
        disj = alts[0]
        for alt in alts[1:]:
            disj = Or(disj, alt)
        conjuncts.append(Forall(z, disj))
    conjuncts += empty
    body = conjuncts[0] if conjuncts else Not(BOT)  # no sort: true
    for c in conjuncts[1:]:
        body = And(body, c)
    for (e, _sort) in reversed(elems):
        body = Exists(xs[e], body)
    return body


# ---------------------------------------------------------------------------
# Generativity


@dataclass
class WitnessMap:
    """Piecewise ground-definable self-map: guarded pieces, each either a
    vocabulary term in x or an index-affine action on family members, plus
    a properness certificate (a ground term asserted outside the image)."""

    pieces: tuple  # ((guard Formula, action), ...)
    misses: Term


@dataclass
class GenerativityVerdict:
    verdict: str  # 'non-generative' | 'generative' | 'unknown'
    reason: Optional[str] = None
    witness: Optional[WitnessMap] = None
    bound: Optional[int] = None

    def __bool__(self):
        return self.verdict == "generative"


_AFFINE_RE = re.compile(r"affine\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


def parse_witness_map(text: str, vocab) -> WitnessMap:
    """Lines `piece <guard> : x -> <term or affine(a,b)>` and
    `misses <ground term>`; a malformed line raises SyntaxError_ with its
    line number."""
    pieces = []
    misses = None
    x = [("x", vocab.sorts[0])]

    def read(line):
        nonlocal misses
        code = line[0]
        if code.startswith("piece"):
            colon = code.rfind(":")
            arrow = code.find("->", colon)
            if colon < 0 or arrow < 0:
                raise SyntaxError_("a piece reads "
                                   "'piece <guard> : x -> <image>'")
            guard = parse_at(parse_formula, line, len("piece"), vocab, colon,
                             bound=x)
            if code[colon + 1:arrow].strip() != "x":
                raise SyntaxError_("witness pieces map the variable x")
            m = _AFFINE_RE.fullmatch(code[arrow + 2:].strip())
            if m:
                action = ("affine", int(m.group(1)), int(m.group(2)))
            else:
                action = ("term", parse_at(parse_term, line, arrow + 2, vocab,
                                           bound=x))
            pieces.append((guard, action))
        elif code.startswith("misses"):
            misses = parse_at(parse_term, line, len("misses"), vocab)
        else:
            raise SyntaxError_(f"unknown witness-map line: {code!r}")

    read_lines(text, "witness-map", read)
    if not pieces or misses is None:
        raise SyntaxError_("witness map needs pieces and a misses line")
    return WitnessMap(tuple(pieces), misses)


def _affine_image(s, n, a, b):
    if not isinstance(n, FamilyMember):
        raise EvalError(
            f"affine piece applied to non-family element {print_term(n)}")
    fam = s.vocab.family(n.family)
    if fam.index_arity == 1:
        idx = (a * n.indices[0] + b,)
    elif fam.index_arity == 2:
        p, q = n.indices
        np_, nq = a * p + b * q, q
        g = gcd(abs(np_), nq) or 1
        idx = (np_ // g, nq // g)
    else:
        raise EvalError("affine pieces support index arity 1 or 2")
    return FamilyMember(n.family, idx, n.sort)


def _witness_image(s, w: WitnessMap, elem, fuel=4):
    for guard, action in w.pieces:
        v = _eval(s, guard, {"x": elem}, fuel, {})
        if v is None:
            raise EvalError("fuel insufficient to decide a piece guard")
        if v:
            if action[0] == "affine":
                return s.normalize(_affine_image(s, elem, action[1],
                                                 action[2]))
            return s.normalize(substitute(action[1], "x", elem))
    raise EvalError(f"no piece guard covers {print_term(elem)}")


def verify_witness(s, w: WitnessMap, bound=12, fuel=4):
    """Injectivity, constant preservation, atomic preservation both ways and
    the properness certificate, all on the first `bound` elements."""
    sample = s.enumerate_elements(bound)
    images = {}
    for e in sample:
        images[e] = _witness_image(s, w, e, fuel)
    if len(set(images.values())) != len(images):
        return False, "witness map is not injective on the sample"
    defect = map_defect(s, s, images)
    if defect is not None:
        if defect[0] == "const":
            return False, f"witness map moves the constant {defect[1]}"
        _, name, src = defect
        return False, (f"witness map breaks {name} at "
                       f"({', '.join(print_term(t) for t in src)})")
    missed = s.normalize(w.misses)
    if missed in images.values():
        return False, (f"properness certificate {print_term(missed)} "
                       "appears in the sampled image")
    return True, None


def generativity(s, bound=12, witness: Optional[WitnessMap] = None,
                 fuel=4) -> GenerativityVerdict:
    """Dichotomy per the sampled evidence.

    Finite structures and tau-generated presentations are non-generative
    (cardinality / embeddings fix every constant term).  Other presentations
    verify a supplied piecewise witness; without one the verdict stays
    unknown at the bound."""
    if s.kind == "finite":
        return GenerativityVerdict("non-generative",
                                   reason="finite-cardinality")
    if s.generated_by == "tau":
        return GenerativityVerdict("non-generative",
                                   reason="term-generated-all-named")
    if witness is None:
        return GenerativityVerdict(
            "unknown", bound=bound,
            reason="no witness map supplied; bounded search cannot "
                   "certify a global self-embedding")
    ok, why = verify_witness(s, witness, bound, fuel)
    if ok:
        return GenerativityVerdict("generative", witness=witness,
                                   bound=bound)
    return GenerativityVerdict("unknown", reason=why, bound=bound)
