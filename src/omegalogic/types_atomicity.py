"""Rank-bounded types, principality, atomicity, Ehrenfeucht-Fraisse
equivalence, Scott sentences for finite structures, and the generativity
(self-embedding) checker.

Everything here is desk-scale and bound-stamped: principality is decided
relative to a declared probe family and rank, EF equivalence relative to a
round count, generativity relative to a sample bound.  Verdicts carry the
bounds they were reached under.
"""

import itertools
import re
from dataclasses import dataclass, replace
from math import gcd
from typing import Optional

from .syntax import (
    And, App, Atom, Const, Eq, Exists, FamilyMember, Forall, Formula, Not,
    Or, SyntaxError_, Term, Var, free_variables, parse_formula, parse_term,
    print_formula, print_term, quantifier_rank,
)
from .structures import EvalError, _eval, _instantiate, _map_defect


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
    base += [Const(d.name, d.result_sort) for d in vocab.constants()]
    out = list(base)
    for d in vocab.functions():
        if d.arity != 1:
            continue
        out += [App(d.name, (t,), d.result_sort) for t in base
                if t.sort == d.arg_sorts[0]]
    return out


def _type_atoms(vocab, varnames):
    terms = _type_terms(vocab, varnames)
    atoms = []
    for d in vocab.relations():
        pools = [[t for t in terms if t.sort == s] for s in d.arg_sorts]
        atoms += [Atom(d.name, args) for args in itertools.product(*pools)]
    for i, t1 in enumerate(terms):
        for t2 in terms[i + 1:]:
            if t1.sort == t2.sort:
                atoms.append(Eq(t1, t2))
    return atoms


def canonical_formulas(vocab, arity, rank):
    """The formula pool behind complete_type: literals over v0..v_{n-1} plus
    single-quantifier prefixes nested to the given rank, in shortlex order
    on the printed form."""
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
    seen, result = set(), []
    for f in pool([f"v{i}" for i in range(arity)], rank):
        key = print_formula(f)
        if key not in seen:
            seen.add(key)
            result.append(f)
    result.sort(key=lambda f: (len(print_formula(f)), print_formula(f)))
    return result


def holds_on_tuple(s, f, tup, fuel=8):
    """Truth of f(v0..v_{n-1}) at the tuple; raises on insufficient fuel."""
    env = {f"v{i}": e for i, e in enumerate(tup)}
    v = _eval(s, f, env, fuel, {})
    if v is None:
        raise EvalError(
            f"fuel {fuel} insufficient to decide {print_formula(f)}")
    return v


def complete_type(s, tup, rank, fuel=8) -> TypeDescriptor:
    """The rank-bounded complete type of the tuple over the empty set."""
    tup = tuple(tup)
    for e in tup:
        if s.sort_of(e) is None:
            raise EvalError(f"{e!r} is not a domain element")
    sat = [f for f in canonical_formulas(s.vocab, len(tup), rank)
           if holds_on_tuple(s, f, tup, fuel)]
    return TypeDescriptor(len(tup), rank, tuple(sat), realizing=tup)


def _probe_tuples(probe, arity, bound=12):
    if probe.kind == "finite":
        elems = [e for sort in probe.vocab.sorts for e in probe.domains[sort]]
    else:
        elems = probe.enumerate_elements(bound)
    return itertools.product(elems, repeat=arity)


def is_principal(t: TypeDescriptor, probes, rank=None, fuel=8,
                 bound=12) -> TypeDescriptor:
    """Classify the type against the probe structures.

    Principal if some member implies every other member on all probe tuples
    satisfying it; nonprincipal if every candidate generator is separated by
    a probe tuple.  The verdict is relative to the probes and the bound."""
    if not probes:
        raise ValueError("is_principal needs at least one probe structure")
    evidence = []
    for g in t.formulas:
        counter = None
        for probe in probes:
            for tup in _probe_tuples(probe, t.arity, bound):
                try:
                    if not holds_on_tuple(probe, g, tup, fuel):
                        continue
                    bad = next((m for m in t.formulas
                                if not holds_on_tuple(probe, m, tup, fuel)),
                               None)
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
    point of view and stay undecided at the bound."""
    if s.kind == "term-generated":
        if s.generated_by == "tau":
            return AtomicityVerdict("atomic-at-rank", rank,
                                    reason="constant-term-generators")
        return AtomicityVerdict(
            "undecided", rank,
            reason="elements are not named by constant terms; "
                   "non-principal evidence accumulates at the rank bound")
    for arity in range(1, max_arity + 1):
        for tup in _probe_tuples(s, arity):
            td = is_principal(complete_type(s, tup, rank, fuel), [s],
                              rank, fuel)
            if td.classification == "nonprincipal":
                return AtomicityVerdict("not-atomic-at-rank", rank,
                                        evidence=td.evidence)
            if td.classification != "principal":
                return AtomicityVerdict("undecided", rank)
    return AtomicityVerdict("atomic-at-rank", rank,
                            reason="all tested types principal")


# ---------------------------------------------------------------------------
# Ehrenfeucht-Fraisse equivalence (relational vocabularies)


def _ef_points(s, tup):
    consts = tuple(s.constants[d.name] for d in s.vocab.constants())
    return consts + tuple(tup)


def _atomic_type(s, tup):
    pts = _ef_points(s, tup)
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


def _check_relational(s):
    if s.kind != "finite":
        raise EvalError("ef_equivalent requires finite structures")
    if s.vocab.functions():
        raise EvalError("ef_equivalent supports relational vocabularies only")


def ef_signature(s, rounds):
    """The rank-`rounds` back-and-forth signature of the empty tuple; two
    finite structures are EF-equivalent at that many rounds iff their
    signatures are equal."""
    _check_relational(s)
    elems = [e for sort in s.vocab.sorts for e in s.domains[sort]]
    cache = {}

    def sig(tup, r):
        key = (tup, r)
        if key not in cache:
            if r == 0:
                cache[key] = _atomic_type(s, tup)
            else:
                cache[key] = (_atomic_type(s, tup),
                              frozenset(sig(tup + (x,), r - 1)
                                        for x in elems))
        return cache[key]

    return sig((), rounds)


def _atomic_separator(a, ta, b, tb):
    """A literal true of ta in a and false of tb in b, or None."""
    nconst = len(a.vocab.constants())
    consts = [Const(d.name, d.result_sort) for d in a.vocab.constants()]
    sort = a.vocab.sorts[0] if a.vocab.sorts else None

    def term(i):
        if i < nconst:
            return consts[i]
        return Var(f"v{i - nconst}", sort)

    fa, fb = _atomic_type(a, ta), _atomic_type(b, tb)
    for fact in fa ^ fb:
        if fact[0] == "=":
            lit = Eq(term(fact[1]), term(fact[2]))
        else:
            lit = Atom(fact[0], tuple(term(i) for i in fact[1]))
        return lit if fact in fa else Not(lit)
    return None


def _distinguish(a, ta, b, tb, r, memo):
    """A formula (free vars v0..) true of ta in a, false of tb in b; None
    if the tuples are r-round equivalent."""
    key = (id(a), ta, tb, r)
    if key in memo:
        return memo[key]
    res = _atomic_separator(a, ta, b, tb)
    if res is None and r > 0:
        sort = a.vocab.sorts[0]
        x = Var(f"v{len(ta)}", sort)
        a_elems = [e for s_ in a.vocab.sorts for e in a.domains[s_]]
        b_elems = [e for s_ in b.vocab.sorts for e in b.domains[s_]]
        for xa in a_elems:
            parts = [_distinguish(a, ta + (xa,), b, tb + (yb,), r - 1, memo)
                     for yb in b_elems]
            if all(p is not None for p in parts):
                body = parts[0] if parts else Eq(x, x)
                for p in parts[1:]:
                    body = And(body, p)
                res = Exists(x, body)
                break
        if res is None:
            for yb in b_elems:
                parts = [_distinguish(b, tb + (yb,), a, ta + (xa,), r - 1,
                                      memo)
                         for xa in a_elems]
                if all(p is not None for p in parts):
                    body = parts[0] if parts else Eq(x, x)
                    for p in parts[1:]:
                        body = And(body, p)
                    res = Not(Exists(x, body))
                    break
    memo[key] = res
    return res


def ef_equivalent(a, b, rounds, want_formula=True):
    """('equivalent', None) or ('distinguished', separating sentence)."""
    _check_relational(a)
    _check_relational(b)
    if ef_signature(a, rounds) == ef_signature(b, rounds):
        return ("equivalent", None)
    if not want_formula:
        return ("distinguished", None)
    f = _distinguish(a, (), b, (), rounds, {})
    assert f is not None and quantifier_rank(f) <= rounds
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
    for sort in s.vocab.sorts:
        if not s.domains[sort]:
            continue
        z = Var("z", sort)
        alts = [Eq(z, xs[e]) for e in s.domains[sort]]
        disj = alts[0]
        for alt in alts[1:]:
            disj = Or(disj, alt)
        conjuncts.append(Forall(z, disj))
    body = conjuncts[0]
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
    `misses <ground term>`."""
    pieces = []
    misses = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("piece"):
            head, arrow = line[len("piece"):].rsplit(":", 1)
            guard = parse_formula(head.strip(), vocab,
                                  bound=[("x", vocab.sorts[0])])
            lhs, rhs = arrow.split("->", 1)
            if lhs.strip() != "x":
                raise SyntaxError_("witness pieces map the variable x")
            rhs = rhs.strip()
            m = _AFFINE_RE.fullmatch(rhs)
            if m:
                action = ("affine", int(m.group(1)), int(m.group(2)))
            else:
                action = ("term", parse_term(rhs, vocab,
                                             bound=[("x", vocab.sorts[0])]))
            pieces.append((guard, action))
        elif line.startswith("misses"):
            misses = parse_term(line[len("misses"):].strip(), vocab)
        else:
            raise SyntaxError_(f"unknown witness-map line: {line!r}")
    if not pieces or misses is None:
        raise SyntaxError_("witness map needs pieces and a misses line")
    return WitnessMap(tuple(pieces), misses)


def _affine_image(s, elem, a, b):
    n = s.normalize(elem)
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
            return s.normalize(_instantiate(action[1], {"x": elem}))
    raise EvalError(f"no piece guard covers {print_term(elem)}")


def verify_witness(s, w: WitnessMap, bound=12, fuel=4):
    """Injectivity, constant preservation, atomic preservation both ways and
    the properness certificate, all on the first `bound` elements."""
    sample = s.enumerate_elements(bound)
    images = {}
    for e in sample:
        images[e] = _witness_image(s, w, e, fuel)
    if len({print_term(t) for t in images.values()}) != len(images):
        return False, "witness map is not injective on the sample"
    defect = _map_defect(s, s, images)
    if defect is not None:
        if defect[0] == "const":
            return False, f"witness map moves the constant {defect[1]}"
        _, name, src = defect
        return False, (f"witness map breaks {name} at "
                       f"({', '.join(print_term(t) for t in src)})")
    missed = s.normalize(w.misses)
    if any(s.equal(img, missed) for img in images.values()):
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
