"""Finite structures, term-generated presentations, valuations,
permissibility, embeddings and the structure file format.

Fuel-bounded truth evaluation lives in `evaluation`; its public names are
importable from here as well.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Optional

from .evaluation import (  # the evaluator's names, which callers import
    EvalError, TruthAtFuel, _eval, eval_sentence,
)
from .propositional import satisfiable, value_of
from .syntax import (
    Absurd, And, App, Atom, Const, Eq, FamilyMember, Formula, Not, Or,
    SyntaxError_, Term,
    Var, Vocabulary, applications, arg_tuples, nodes, parse_at, parse_term,
    parse_vocabulary, print_term, read_lines, term_is_ground,
)


# ---------------------------------------------------------------------------
# Structures


class FiniteStructure:
    """Explicit finite structure: domains per sort, relation extents as tuple
    sets, total function tables, constant assignments.

    Domain element names may be used directly as constant terms in formulas
    (the quantifier-free diagram convention).  Function tables are keyed by
    argument tuples; a unary table may also be given with bare keys."""

    kind = "finite"

    def __init__(self, vocab: Vocabulary, domains, relations=None,
                 functions=None, constants=None, name="anonymous"):
        self.vocab = vocab
        self.name = name
        self.domains = {s: tuple(es) for s, es in domains.items()}
        for s in vocab.sorts:
            self.domains.setdefault(s, ())
        self.relations = {d.name: set() for d in vocab.relations()}
        for r, tuples in (relations or {}).items():
            self.relations[r] = {tuple(t) for t in tuples}
        self.functions = {
            f: {k if isinstance(k, tuple) else (k,): v for k, v in table.items()}
            for f, table in (functions or {}).items()}
        self.constants = dict(constants or {})
        self._check_total()
        # sort -> `closed_elements`: made here, and filled with tuples of
        # names, which the garbage collector stops tracing
        self._closed = {}
        self._element_sort = {}
        for s, es in self.domains.items():
            for e in es:
                self._element_sort[e] = s

    def _check_total(self):
        for d in self.vocab.functions():
            table = self.functions.get(d.name)
            if table is None:
                raise EvalError(f"missing function table for {d.name!r}")
            for args in itertools.product(*(self.domains[s] for s in d.arg_sorts)):
                if args not in table:
                    raise EvalError(f"function table for {d.name!r} not total at {args}")
        for d in self.vocab.constants():
            if d.name not in self.constants:
                raise EvalError(f"missing constant assignment for {d.name!r}")

    def size(self):
        return sum(len(es) for es in self.domains.values())

    def elements(self, sort):
        return self.domains[sort]

    def sort_of(self, e):
        """The sort of the domain element `e`, or None for a non-element."""
        return self._element_sort.get(e)

    def relation_test(self, rel):
        """The membership test of `rel`, which takes one tuple of elements:
        its extent's `__contains__`."""
        return self.relations[rel].__contains__

    def holds(self, rel, args):
        """Whether `rel` holds of the elements `args`, by the relation test
        that `map_defect` and the evaluator share (`relation_test`)."""
        return self.relation_test(rel)(tuple(args))

    def apply_fun(self, name, args):
        return self.functions[name][tuple(args)]

    def element_of(self, t: Term, extra=None):
        """Evaluate a ground term to a domain element. `extra` maps
        auxiliary names (family member terms / names) to elements."""
        if extra and t in extra:
            return extra[t]
        if isinstance(t, Const):
            if t.name in self.constants:
                return self.constants[t.name]
            if t.name in self._element_sort:
                return t.name  # diagram name
            raise EvalError(f"constant {t.name!r} has no denotation")
        if isinstance(t, FamilyMember):
            raise EvalError(f"family member {print_term(t)} has no denotation here")
        if isinstance(t, App):
            return self.apply_fun(t.func, [self.element_of(a, extra) for a in t.args])
        raise EvalError(f"not a ground term: {t!r}")

    def closed_elements(self, sort):
        """The elements that the closed terms of `sort` name, in the order
        of the vocabulary's `tau_stream`, found once per sort: constants and
        function tables are fixed once built, and `extra` (of `element_of`)
        names only family members."""
        values = self._closed.get(sort)
        if values is None:
            values = self._closed[sort] = tuple(
                self.vocab.tau_stream(sort, self.element_of))
        return values


class TermGeneratedStructure:
    """A presentation: generators (either the base vocabulary's constant
    terms, or an auxiliary constant family), a ground-equality oracle given
    by a terminating rewrite system, and relation deciders for ground tuples.

    Elements are normal forms under the rewrites (`normalize`): rewriting
    is innermost first, the rules are tried in the order given (file order)
    and the first that matches wins, and each term's normal form is
    remembered for the life of the presentation.
    """

    kind = "term-generated"

    def __init__(self, vocab: Vocabulary, generated_by="tau", rewrites=(),
                 rel_deciders=None, name="anonymous"):
        self.vocab = vocab
        self.name = name
        self.generated_by = generated_by  # 'tau' or a family name
        if generated_by != "tau":
            vocab.family(generated_by)
        self.rewrites = tuple(rewrites)  # (lhs Term with Vars, rhs Term)
        self.rel_deciders = dict(rel_deciders or {})
        self._normal = {}  # term -> its normal form, normal forms included
        # (generators, sort) -> the elements listed so far and the stream
        # that lists more: 'tau' or the family, as for `tau_elements`
        self._listed = {}

    def normalize(self, t: Term) -> Term:
        """The normal form of `t`, rewriting innermost first: the arguments
        are normalized, then the rules are tried at the root in the order
        given and the first match rewrites it, and its result is normalized
        in turn until no rule matches at the root.  Normal forms are
        remembered for the life of the presentation; with no rewrites every
        term is its own."""
        if not self.rewrites:
            return t
        nf = self._normal.get(t)
        return nf if nf is not None else self._normal_form(t)

    def _normal_form(self, t: Term) -> Term:
        """`normalize` for a term not remembered yet.  The chain of root
        rewrites is a loop; only the descent into arguments recurses."""
        normal, seen, nf = self._normal, [t], None
        while nf is None:
            if isinstance(t, App):
                args, changed = [], False
                for a in t.args:
                    n = normal.get(a)
                    if n is None:
                        n = self._normal_form(a)
                    args.append(n)
                    changed = changed or n is not a
                if changed:
                    t = App(t.func, tuple(args), t.sort)
                    nf = normal.get(t)
                    if nf is not None:
                        break
                    seen.append(t)
            for lhs, rhs in self.rewrites:
                env = {}
                if _match(lhs, t, env):
                    t = _instantiate(rhs, env)
                    nf = normal.get(t)
                    if nf is None:
                        seen.append(t)
                    break
            else:
                nf = t
        for u in seen:
            normal[u] = nf
        return nf

    def sort_of(self, e):
        """The sort of the element `e` (a normal-form ground term), or None
        for a non-element."""
        return e.sort if isinstance(e, Term) else None

    def apply_fun(self, name, args):
        decl = self.vocab.symbols[name]
        return self.normalize(App(name, tuple(args), decl.result_sort))

    def relation_test(self, rel):
        """The membership test of `rel`, which takes one tuple of elements,
        normal forms, as they are: its decider.  EvalError if `rel` has
        none."""
        decider = self.rel_deciders.get(rel)
        if decider is None:
            raise EvalError(f"no decision rule for relation {rel!r}")
        return decider

    def holds(self, rel, args):
        """Whether `rel` holds of the elements `args`, by the relation test
        that `map_defect` and the evaluator share (`relation_test`)."""
        return self.relation_test(rel)(tuple(args))

    def enumerate_elements(self, limit, sort=None):
        """The first `limit` elements of `sort` (of every sort when None),
        each a distinct normal-form ground term; fewer when the sort has
        fewer.

        The order is that of the generators: a family's members in index
        order, or for 'tau' the vocabulary's `tau_stream`.  The elements
        listed are kept for the life of the presentation, and each call
        returns a fresh list."""
        return self._prefix(self.generated_by, sort, limit)

    def tau_elements(self, limit, sort=None):
        """The first `limit` values of the vocabulary's `tau_stream` here,
        normal forms: what a schema over 'tau' ranges over at fuel
        `limit`.  Kept as `enumerate_elements` keeps its elements, in the
        same listing when the presentation is generated by tau."""
        return self._prefix("tau", sort, limit)

    def _prefix(self, generators, sort, limit):
        """The first `limit` elements that `generators` ('tau' or a family
        name) list, as a fresh list.  The kept listing grows only when
        `limit` goes past it; a stream that raises is not kept, so the
        next call raises again."""
        key = (generators, sort)
        entry = self._listed.get(key)
        if entry is None:
            entry = self._listed[key] = ([], self._stream(generators, sort))
        values, stream = entry
        limit = max(limit, 0)
        if len(values) < limit:
            try:
                values.extend(itertools.islice(stream, limit - len(values)))
            except BaseException:
                del self._listed[key]
                raise
        return values[:limit]

    def _stream(self, generators, sort):
        """The elements of `sort` that `generators` list, each once."""
        if generators == "tau":
            return self.vocab.tau_stream(sort, self.element_of)
        fam = self.vocab.family(generators)
        if sort not in (None, fam.sort):
            return iter(())  # a family lists elements of its own sort only
        seen = set()  # each element once
        return (n for n in map(self.normalize, fam.terms())
                if not (n in seen or seen.add(n)))

    def element_of(self, t: Term, extra=None):
        """The element `t` names: the normal form of `t` or of `extra[t]`."""
        if extra and t in extra:
            t = extra[t]
        return self.normalize(t)


def _match(pattern: Term, t: Term, env) -> bool:
    if isinstance(pattern, Var):
        if pattern.name in env:
            return env[pattern.name] == t
        env[pattern.name] = t
        return True
    if isinstance(pattern, App) and isinstance(t, App):
        if pattern.func != t.func or len(pattern.args) != len(t.args):
            return False
        return all(_match(p, a, env) for p, a in zip(pattern.args, t.args))
    return pattern == t


def _instantiate(t: Term, env):
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, App):
        return App(t.func, tuple(_instantiate(a, env) for a in t.args), t.sort)
    return t


# builtin relation deciders for family-generated presentations
def _indices(t: Term):
    if not isinstance(t, FamilyMember):
        raise EvalError(f"decider expects a family member, got {print_term(t)}")
    return t.indices


# the number of indices each builtin decider reads off a family member
_DECIDER_INDICES = {"integer-lt": 1, "rational-lt": 2}

# Each reads both members' indices in one step.  Anything but a pair of
# family members goes on to the member-by-member form, whose reading order
# fixes which error such an input raises.
def _integer_lt(args):
    try:
        a, b = args
        return a.indices[0] < b.indices[0]
    except (TypeError, ValueError, AttributeError):
        return _indices(args[0])[0] < _indices(args[1])[0]


def _rational_lt(args):
    try:
        a, b = args
        a, b = a.indices, b.indices
    except (TypeError, ValueError, AttributeError):
        return ((a := _indices(args[0]))[0] * (b := _indices(args[1]))[1]
                < b[0] * a[1])
    return a[0] * b[1] < b[0] * a[1]


BUILTIN_DECIDERS = {"integer-lt": _integer_lt, "rational-lt": _rational_lt}


# ---------------------------------------------------------------------------
# Valuations


class Valuation:
    """A map from sentences to truth values, either backed by a structure
    (the quantifier-free diagram) or by an explicit finite assignment."""

    def __init__(self, vocab, structure=None, name_map=None, assignment=None):
        self.vocab = vocab
        self.structure = structure
        self.name_map = dict(name_map or {})
        self.assignment = dict(assignment or {})

    def value(self, sentence: Formula):
        if sentence in self.assignment:
            return self.assignment[sentence]
        if self.structure is not None:
            return _eval(self.structure, sentence, {}, 1, self.name_map)
        return None


def valuation_of_structure(s, naming: str) -> Valuation:
    """Structure-backed valuation over the expanded vocabulary tau_M, using
    `naming` ('tau' or a family name) to name the elements."""
    name_map = {}
    if s.kind == "finite":
        fam = s.vocab.family(naming)
        elements = [e for sort in s.vocab.sorts for e in s.domains[sort]
                    if s.sort_of(e) == fam.sort]
        names = fam.enumerate_terms(len(elements))
        if len(names) < len(elements):
            raise EvalError(
                f"naming family {naming!r} has {len(names)} members for "
                f"{len(elements)} elements")
        for name, e in zip(names, elements):
            name_map[name] = e
    else:
        if naming != "tau" and naming != s.generated_by:
            raise EvalError("naming must be the generator family of a "
                            "term-generated presentation")
    return Valuation(s.vocab, structure=s, name_map=name_map)


# ---------------------------------------------------------------------------
# Permissibility


@dataclass
class PermissibilityVerdict:
    permissible: bool
    reason: Optional[str] = None
    witnesses: tuple = ()

    def __bool__(self):
        return self.permissible


def default_probe_set(vocab: Vocabulary, names):
    """Quantifier-free probe sentences: atoms and equalities over the given
    named constants and the functions applied once to them."""
    terms = list(names)
    terms += applications(vocab.functions(), terms)
    probes = [Atom(d.name, args)
              for d in vocab.relations() for args in arg_tuples(d, terms)]
    for t1 in terms:
        for t2 in terms:
            if t1.sort == t2.sort:
                probes.append(Eq(t1, t2))
    return probes


def permissible(v: Valuation, probes=None) -> PermissibilityVerdict:
    """Check Def-of-permissibility conditions: totality on the probe set,
    propositional and equational consistency of the true-set, and soundness
    of the identity rules (t=t a theorem, =E a congruence).  Each assigned
    compound must agree with the strong-Kleene value `value_of` gives it
    from its parts as v reads them, so a false conjunct refutes a true `&`
    even beside an unknown one, and that compound is the witness; then
    some atom values must give every assigned sentence its value, which
    rejects `{P(a)&Q(a): T, ~P(a): T}` with every assigned sentence as
    the witnesses."""
    if probes is None:
        if v.structure is not None:
            names = list(v.name_map) or v.vocab.constant_terms()
            probes = default_probe_set(v.vocab, names)
        else:
            # explicit finite valuations are probed on their own domain
            probes = list(v.assignment)

    for p in probes:
        if v.value(p) is None:
            return PermissibilityVerdict(False, "not total on probe set", (p,))

    # =I: t = t must be true
    for p in probes:
        if isinstance(p, Eq) and p.left == p.right and v.value(p) is False:
            return PermissibilityVerdict(False, "identity rule =I unsound", (p,))

    # equational consistency: congruence closure of the true equalities
    # must not clash with a false equality or with relation atom values
    true_eqs = [p for p in probes if isinstance(p, Eq) and v.value(p) is True]
    terms = {t for p in probes for t in nodes(p)
             if isinstance(t, Term) and term_is_ground(t)}  # with subterms
    uf = _UnionFind(terms)
    for p in true_eqs:
        uf.union(p.left, p.right)
    _congruence_close(uf, terms)
    for p in probes:
        if isinstance(p, Eq) and v.value(p) is False and uf.same(p.left, p.right):
            return PermissibilityVerdict(
                False, "equationally inconsistent true-set",
                tuple(true_eqs[:3]) + (Not(p),))
    atoms = {}
    for p in probes:
        if isinstance(p, Atom):
            key = (p.rel, tuple(uf.find(a) for a in p.args))
            if key in atoms and atoms[key][1] != v.value(p):
                return PermissibilityVerdict(
                    False, "identity rule =E unsound (congruence violated)",
                    (atoms[key][0], p))
            atoms[key] = (p, v.value(p))

    # propositional consistency: each assigned compound against its parts,
    # then all the assigned sentences together
    for f, val in v.assignment.items():
        computed = value_of(lambda g: None if g is f else v.value(g), f)
        if computed is not None and computed != val:
            return PermissibilityVerdict(
                False, "propositionally inconsistent true-set", (f,))
    if not _atom_values_exist(v.assignment):
        return PermissibilityVerdict(
            False, "propositionally inconsistent true-set",
            tuple(v.assignment))
    return PermissibilityVerdict(True)


def _atom_values_exist(assignment):
    """Do some atom values give every sentence of `assignment` its value?
    One `dpll` call over a variable per node, each compound tied to its
    parts (Tseitin 1968); a node that is not `~`, `&`, `|` or ⋏ is an atom,
    free to take either value."""
    var, clauses, todo = {}, [], []

    def index(f):
        if f not in var:
            var[f] = len(var) + 1
            todo.append(f)
        return var[f]

    for f, val in assignment.items():
        clauses.append((index(f) if val else -index(f),))
    while todo:
        g = todo.pop()
        x = var[g]
        if isinstance(g, Not):
            b = index(g.body)
            clauses += [(-x, -b), (x, b)]
        elif isinstance(g, And):
            a, b = index(g.left), index(g.right)
            clauses += [(-x, a), (-x, b), (x, -a, -b)]
        elif isinstance(g, Or):
            a, b = index(g.left), index(g.right)
            clauses += [(x, -a), (x, -b), (-x, a, b)]
        elif isinstance(g, Absurd):
            clauses.append((-x,))
    return satisfiable(clauses, len(var))


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        self.add(x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def same(self, a, b):
        return self.find(a) == self.find(b)


def _congruence_close(uf, terms):
    changed = True
    apps = [t for t in terms if isinstance(t, App)]
    while changed:
        changed = False
        for t1 in apps:
            for t2 in apps:
                if t1 is t2 or t1.func != t2.func:
                    continue
                if uf.same(t1, t2):
                    continue
                if all(uf.same(a, b) for a, b in zip(t1.args, t2.args)):
                    uf.union(t1, t2)
                    changed = True


# ---------------------------------------------------------------------------
# Embeddings


def embed_search(a, b, bound: int = 20):
    """Injective, atomic-preserving (both directions) map from `a` into `b`,
    or None if none exists within the search bound.

    For a term-generated source the map is forced on the first `bound`
    elements by interpreting their generating terms in the target."""
    check_common_vocabulary(a, b, "embed_search")
    if a.kind == "term-generated":
        return _forced_embedding(a, b, bound)
    return _backtrack_embedding(a, b)


def is_isomorphic(a: FiniteStructure, b: FiniteStructure) -> bool:
    """Whether some sort-respecting bijection carries `a` onto `b`.

    Each sort must have as many elements on both sides.  Then an injective
    map that carries every atomic fact both ways is onto, so it is an
    isomorphism, and the embedding search (`_backtrack_embedding`) finds
    one if there is any.  Both structures must be finite and share one
    vocabulary, or EvalError is raised."""
    check_common_vocabulary(a, b, "is_isomorphic")
    if a.kind != "finite" or b.kind != "finite":
        raise EvalError("is_isomorphic requires finite structures")
    for s in a.vocab.sorts:
        if len(a.domains[s]) != len(b.domains[s]):
            return False
    return _backtrack_embedding(a, b) is not None


def check_common_vocabulary(a, b, who):
    """Same sorts, and the same declaration under every symbol name."""
    if a.vocab.sorts != b.vocab.sorts or a.vocab.symbols != b.vocab.symbols:
        raise EvalError(f"{who} requires a common vocabulary")


def _forced_embedding(a, b, bound):
    mapping = {t: b.element_of(t) for t in a.enumerate_elements(bound)}
    if len(set(mapping.values())) != len(mapping):
        return None
    if map_defect(a, b, mapping) is not None:
        return None
    return mapping


def map_defect(a, b, mapping, new=None):
    """The first atomic fact that the partial map `mapping` from `a` into
    `b` breaks, or None: the one structure-map check, which embedding and
    isomorphism search and the generativity witness check share.

    A defect is ('const', name) for a constant whose element is mapped
    elsewhere than the constant of `b`, or ('rel', name, src) / ('fun',
    name, src) for a sort-respecting tuple `src` of mapped elements at
    which the relation's truth or the function's value (when it is mapped
    too) is not carried over.  Relations are checked both ways, by the
    relation test that `holds` and the evaluator share (`relation_test`);
    one that `a` or `b` cannot decide raises EvalError.

    With `new`, a key of `mapping`, a relation is asked only at the tuples
    that hold `new`; constants and function values are checked as for the
    whole map.  So when `mapping` without `new` breaks nothing, the answer
    is the one for the whole map.  A 0-ary relation holds no element, so
    with `new` it is never asked; the whole-map check asks it."""
    for c in a.vocab.constant_terms():
        src = a.element_of(c)
        if src in mapping and mapping[src] != b.element_of(c):
            return ("const", c.name)
    pools = {sort: [] for sort in a.vocab.sorts}
    for e in mapping:
        pools[a.sort_of(e)].append(e)
    if new is not None:
        nsort = a.sort_of(new)
        olds = [e for e in pools[nsort] if e != new]

        def holding(sorts):
            # the tuples that hold `new`, each once: by the first position
            # i that holds it, so that before i its sort takes the others
            for i, x in enumerate(sorts):
                if x == nsort:
                    span = [pools[sort] for sort in sorts]
                    span[i] = (new,)
                    for j in range(i):
                        if sorts[j] == nsort:
                            span[j] = olds
                    yield from itertools.product(*span)
    image = mapping.__getitem__
    for d in a.vocab.relations():
        # each side's test is fetched at the first tuple, in the order the
        # two are asked, so that one missing raises where it always did
        in_a = in_b = None
        for src in (itertools.product(*(pools[sort] for sort in d.arg_sorts))
                    if new is None else holding(d.arg_sorts)):
            held = (in_a or (in_a := a.relation_test(d.name)))(src)
            if held != (in_b or (in_b := b.relation_test(d.name)))(
                    tuple(map(image, src))):
                return ("rel", d.name, src)
    for d in a.vocab.functions():
        for src in itertools.product(*(pools[sort] for sort in d.arg_sorts)):
            fa = a.apply_fun(d.name, src)
            if fa in mapping and mapping[fa] != b.apply_fun(
                    d.name, [mapping[x] for x in src]):
                return ("fun", d.name, src)
    return None


def _backtrack_embedding(a, b):
    """The first injective map from finite `a` into `b` that breaks no
    atomic fact, or None.  The elements of `a`, sort by sort, are mapped
    in turn, each to the first candidate of its sort in `b`'s domain order
    that is unused and breaks nothing with those mapped before it
    (`map_defect` with `new`); when none is left, the search backs up to
    the element before and its next candidate.  Each element's remaining
    candidates are kept as an iterator on an explicit stack, so no size of
    `a` runs out of recursion.  The first element is checked with the whole
    map, since only that asks the 0-ary relations."""
    plan = [(e, b.domains[s]) for s in a.vocab.sorts for e in a.domains[s]]
    if not plan:
        return {} if map_defect(a, b, {}) is None else None
    mapping, used, stack = {}, set(), []
    i = 0  # the element being mapped; those before it are mapped
    while i < len(plan):
        e, targets = plan[i]
        if i == len(stack):
            stack.append(iter(targets))
        for cand in stack[i]:
            if cand not in used:
                mapping[e] = cand
                if map_defect(a, b, mapping, e if i else None) is None:
                    used.add(cand)
                    i += 1
                    break
                del mapping[e]
        else:  # no candidate left: back up to the element before
            stack.pop()
            i -= 1
            if i < 0:
                return None
            used.remove(mapping.pop(plan[i][0]))
    return dict(mapping)


# ---------------------------------------------------------------------------
# Structure files


def parse_structure(text: str, vocab: Vocabulary = None, base_dir=None):
    """Parse the structure file format; `over <file>` resolves the
    vocabulary relative to `base_dir`."""
    name = "anonymous"
    header = None  # the file line of the `structure` header
    domains = {}
    relations = {}
    functions = {}
    constants = {}
    generated_by = None
    rewrites = []
    rel_deciders = {}

    elements = set()  # every element of the domains declared so far

    def check_named(names):
        for e in names:
            if e not in elements:
                raise SyntaxError_(f"{e!r} is not in a declared domain")

    def check_declared(name, kind):
        decl = vocab and vocab.symbols.get(name)
        member = kind == "const" and vocab and vocab.lookup_member(name)
        if not member and (not decl or decl.kind != kind):
            raise SyntaxError_(f"{name!r} is not a declared {kind}")

    def declare(line):
        nonlocal name, vocab, generated_by, header
        code = line[0]
        parts = code.split()
        head = parts[0]
        if head == "structure":
            name, header = parts[1], line[1]
            if len(parts) >= 4 and parts[2] == "over" and vocab is None:
                path = os.path.join(base_dir or ".", parts[3])
                try:
                    with open(path) as fh:
                        vocab = parse_vocabulary(fh.read())
                except OSError as e:
                    raise SyntaxError_(f"cannot read {e.filename}: "
                                       f"{e.strerror}") from None
                except SyntaxError_ as e:  # at a line of the vocabulary
                    raise SyntaxError_(e.message, e.line, e.col,
                                       parts[3]) from None
        elif head == "domain":
            inner = code.split("{", 1)[1].rsplit("}", 1)[0].split()
            domains[parts[1]] = inner
            elements.update(inner)
        elif head == "rel" and "=" in parts:
            rel = parts[1]
            check_declared(rel, "rel")
            body = code.split("=", 1)[1].strip().strip("{}").strip()
            tuples = []
            for chunk in body.replace("(", " ( ").replace(")", " ) ").split(")"):
                items = chunk.replace("(", " ").replace(",", " ").split()
                if items:
                    check_named(items)
                    tuples.append(tuple(items))
            relations[rel] = tuples
        elif head == "fun" and "=" in parts:
            fn = parts[1]
            check_declared(fn, "fun")
            body = code.split("=", 1)[1].strip().strip("{}").strip()
            table = {}
            for pair in body.split():
                src, dst = pair.split("->")
                key = tuple(src.split(","))
                check_named(key + (dst,))
                table[key] = dst
            functions[fn] = table
        elif head == "const" and "=" in parts:
            check_declared(parts[1], "const")
            check_named([parts[3]])
            constants[parts[1]] = parts[3]
        elif head == "generated":
            # 'generated by tau' / 'generated by D'
            generated_by = parts[2]
        elif head == "rewrite":
            if vocab is None:
                raise SyntaxError_("rewrite before vocabulary known")
            arrow, patterns = code.index("->"), {}
            lhs = parse_at(parse_term, line, len("rewrite"), vocab, arrow,
                           patterns=patterns)
            rhs = parse_at(parse_term, line, arrow + 2, vocab,
                           bound=list(patterns.items()))
            if isinstance(lhs, Var):
                # it would match every term, so normalizing never ends
                raise SyntaxError_("rewrite left-hand side is a bare variable")
            rewrites.append((lhs, rhs))
        elif head == "rel-decide":
            rel = parts[1]
            check_declared(rel, "rel")
            if parts[2] != "by":
                raise SyntaxError_("expected 'by' in rel-decide")
            if parts[3] not in BUILTIN_DECIDERS:
                raise SyntaxError_(f"unknown decider {parts[3]!r}")
            rel_deciders[rel] = BUILTIN_DECIDERS[parts[3]]
        else:
            raise SyntaxError_(f"unknown structure declaration: {code!r}")

    lines = read_lines(text, "structure", declare)
    if vocab is None:
        raise SyntaxError_("structure file names no vocabulary")
    if generated_by is None:
        try:
            return FiniteStructure(vocab, domains, relations, functions,
                                   constants, name=name)
        except EvalError as e:  # a function table or a constant left out
            raise SyntaxError_(str(e), header, 1) from None
    # the generating family and the deciders, each at its line, once the
    # vocabulary and the family are known
    read_lines(lines, "structure",
               lambda line: _check_generation(vocab, generated_by, line[0]))
    return TermGeneratedStructure(vocab, generated_by, rewrites,
                                  rel_deciders, name=name)


def _check_generation(vocab, generated_by, code):
    """Raise SyntaxError_ if the line `code` names an undeclared generating
    family, or a builtin decider that does not fit its relation: a binary
    one over the sort of the generating family, a countable family whose
    members carry as many indices as it reads."""
    parts = code.split()
    if parts[0] == "generated" and parts[2] != "tau":
        vocab.family(parts[2])
    if parts[0] != "rel-decide":
        return
    rel, decider_name = parts[1], parts[3]
    arity = _DECIDER_INDICES[decider_name]
    fam = None if generated_by == "tau" else vocab.family(generated_by)
    if fam is None or not fam.countable or fam.index_arity != arity:
        why = (f"compares members of a countable family of index arity "
               f"{arity}, and {generated_by} is not one")
    elif vocab.symbols[rel].arg_sorts != (fam.sort, fam.sort):
        why = f"needs a binary relation on {fam.sort}"
    else:
        return
    raise SyntaxError_(f"{decider_name} cannot decide {rel!r}: it {why}")


def load_structure(path):
    with open(path) as fh:
        return parse_structure(fh.read(),
                               base_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# Brute-force utilities (oracles for the test suite and reports)


def all_finite_structures(vocab: Vocabulary, size: int, sort=None):
    """All labeled structures of exactly `size` elements on the (single)
    sort, over a vocabulary of relations, unary functions and constants."""
    if sort is None:
        (sort,) = vocab.sorts
    domain = tuple(f"e{i}" for i in range(size))
    rel_spaces = []
    rels = vocab.relations()
    for d in rels:
        tuples = list(itertools.product(domain, repeat=d.arity))
        rel_spaces.append([frozenset(c)
                           for r in range(len(tuples) + 1)
                           for c in itertools.combinations(tuples, r)])
    fun_spaces = []
    funs = vocab.functions()
    for d in funs:
        keys = list(itertools.product(domain, repeat=d.arity))
        fun_spaces.append([dict(zip(keys, vals))
                           for vals in itertools.product(domain, repeat=len(keys))])
    const_spaces = [list(domain) for _ in vocab.constants()]
    consts = vocab.constants()
    for rel_choice in itertools.product(*rel_spaces) if rel_spaces else [()]:
        for fun_choice in itertools.product(*fun_spaces) if fun_spaces else [()]:
            for const_choice in itertools.product(*const_spaces) if const_spaces else [()]:
                yield FiniteStructure(
                    vocab, {sort: domain},
                    {d.name: set(c) for d, c in zip(rels, rel_choice)},
                    {d.name: t for d, t in zip(funs, fun_choice)},
                    {d.name: e for d, e in zip(consts, const_choice)})
