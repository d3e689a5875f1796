"""Finite structures, term-generated presentations, valuations, and
fuel-bounded truth evaluation.

Truth over a term-generated presentation is approximated by enumerating the
first `fuel` ground terms in shortlex order; `unknown` is a first-class
outcome and never silently coerces to a boolean.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .syntax import (
    Absurd, And, App, Atom, Const, ConstantFamily, Eq, Exists, FamilyMember,
    Forall, Formula, Not, Or, SchemaConj, SchemaDisj, SyntaxError_, Term, Var,
    Vocabulary, parse_formula, parse_term, parse_vocabulary, print_term,
    term_is_ground,
)


class EvalError(Exception):
    pass


@dataclass(frozen=True)
class TruthAtFuel:
    value: str  # 'true' | 'false' | 'unknown'
    fuel_used: int = 0
    witness: Optional[object] = None

    def __bool__(self):
        raise TypeError("TruthAtFuel does not coerce; inspect .value")


def _tv(b, fuel=0, witness=None):
    if b is None:
        return TruthAtFuel("unknown", fuel, witness)
    return TruthAtFuel("true" if b else "false", fuel, witness)


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

    def holds(self, rel, args):
        return tuple(args) in self.relations[rel]

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


class TermGeneratedStructure:
    """A presentation: generators (either the base vocabulary's constant
    terms, or an auxiliary constant family), a ground-equality oracle given
    by a terminating rewrite system, and relation deciders for ground tuples.
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

    def normalize(self, t: Term) -> Term:
        changed = True
        while changed:
            t, changed = self._rewrite_once(t)
        return t

    def _rewrite_once(self, t: Term):
        if isinstance(t, App):
            new_args = []
            changed = False
            for a in t.args:
                na, ch = self._rewrite_once(a)
                new_args.append(na)
                changed = changed or ch
            if changed:
                return App(t.func, tuple(new_args), t.sort), True
            t = App(t.func, tuple(new_args), t.sort)
        for lhs, rhs in self.rewrites:
            env = {}
            if _match(lhs, t, env):
                return _instantiate(rhs, env), True
        return t, False

    def equal(self, t1: Term, t2: Term) -> bool:
        return self.normalize(t1) == self.normalize(t2)

    def sort_of(self, e):
        """The sort of the element `e` (a normal-form ground term), or None
        for a non-element."""
        return e.sort if isinstance(e, Term) else None

    def apply_fun(self, name, args):
        decl = self.vocab.symbols[name]
        return self.normalize(App(name, tuple(args), decl.result_sort))

    def holds(self, rel, args):
        decider = self.rel_deciders.get(rel)
        if decider is None:
            raise EvalError(f"no decision rule for relation {rel!r}")
        return decider(tuple(self.normalize(a) for a in args))

    def enumerate_elements(self, limit, sort=None):
        """First `limit` distinct elements (normal-form ground terms) in
        shortlex order over the generator ordering."""
        if self.generated_by != "tau":
            fam = self.vocab.family(self.generated_by)
            terms = fam.enumerate_terms(limit * 2)
            out, seen = [], set()
            for t in terms:
                if sort is not None and t.sort != sort:
                    continue
                n = self.normalize(t)
                if n not in seen:
                    seen.add(n)
                    out.append(n)
                if len(out) >= limit:
                    break
            return out
        return self._tau_ground_terms(limit, sort)

    def _tau_ground_terms(self, limit, sort=None):
        funs = self.vocab.functions()
        seen = []
        seen_set = set()
        out = []
        frontier = sorted((Const(d.name, d.result_sort)
                           for d in self.vocab.constants()),
                          key=lambda t: (len(print_term(t)), print_term(t)))
        while frontier:
            grew = False
            for t in frontier:
                n = self.normalize(t)
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
            for d in funs:
                pools = [[t for t in seen if t.sort == s] for s in d.arg_sorts]
                for args in itertools.product(*pools):
                    frontier.append(App(d.name, tuple(args), d.result_sort))
            frontier.sort(key=lambda t: (len(print_term(t)), print_term(t)))
        return out

    def element_of(self, t: Term, extra=None):
        if extra and t in extra:
            return extra[t]
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


BUILTIN_DECIDERS = {
    "integer-lt": lambda args: _indices(args[0])[0] < _indices(args[1])[0],
    "rational-lt": lambda args: (
        _indices(args[0])[0] * _indices(args[1])[1]
        < _indices(args[1])[0] * _indices(args[0])[1]),
}


# ---------------------------------------------------------------------------
# Fuel-bounded evaluation


def eval_sentence(s, f: Formula, fuel: int = 8, extra_names=None,
                  fragment=False) -> TruthAtFuel:
    """Three-valued truth of the sentence `f` in structure `s`.

    Finite structures always decide. On term-generated presentations each
    quantifier ranges over the first `fuel` elements; exhausting the bound
    without a verdict yields 'unknown'. With `fragment=True` the tested
    range is treated as the whole domain (bounded-fragment semantics), so
    quantifiers always decide.
    """
    if s.kind == "term-generated" and fuel <= 0 and _has_quantifier(f):
        raise EvalError("fuel must be positive for quantified sentences "
                        "over a term-generated presentation")
    v = _eval(s, f, {}, fuel, extra_names or {}, fragment)
    return _tv(v, fuel)


def _has_quantifier(f):
    if isinstance(f, (Forall, Exists)):
        return True
    if isinstance(f, Not):
        return _has_quantifier(f.body)
    if isinstance(f, (And, Or)):
        return _has_quantifier(f.left) or _has_quantifier(f.right)
    if isinstance(f, (SchemaConj, SchemaDisj)):
        return True
    return False


def _range_of(s, sort, fuel):
    if s.kind == "finite":
        return list(s.elements(sort)), True  # exhaustive
    return s.enumerate_elements(fuel, sort), False


def _family_range(s, family_name, fuel):
    if family_name == "tau":
        if s.kind == "term-generated":
            return s._tau_ground_terms(fuel), False
        consts = s.vocab.constants()
        return [Const(d.name, d.result_sort) for d in consts], True
    fam = s.vocab.family(family_name)
    if fam.members is not None:
        return [Const(m, fam.sort) for m in fam.members], True
    return fam.enumerate_terms(fuel), False


def _resolve(s, t, env, extra):
    """Ground term -> element, after substituting env for variables."""
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, App):
        return s.apply_fun(t.func, [_resolve(s, a, env, extra) for a in t.args])
    return s.element_of(t, extra)


def _eval(s, f, env, fuel, extra, fragment=False):
    if isinstance(f, Absurd):
        return False
    if isinstance(f, Atom):
        return s.holds(f.rel, [_resolve(s, a, env, extra) for a in f.args])
    if isinstance(f, Eq):
        a = _resolve(s, f.left, env, extra)
        b = _resolve(s, f.right, env, extra)
        if s.kind == "finite":
            return a == b
        return s.equal(a, b)
    if isinstance(f, Not):
        v = _eval(s, f.body, env, fuel, extra, fragment)
        return None if v is None else (not v)
    if isinstance(f, And):
        a = _eval(s, f.left, env, fuel, extra, fragment)
        if a is False:
            return False
        b = _eval(s, f.right, env, fuel, extra, fragment)
        if b is False:
            return False
        return True if (a and b) else None
    if isinstance(f, Or):
        a = _eval(s, f.left, env, fuel, extra, fragment)
        if a is True:
            return True
        b = _eval(s, f.right, env, fuel, extra, fragment)
        if b is True:
            return True
        return False if (a is False and b is False) else None
    if isinstance(f, (Forall, Exists)):
        domain, exhaustive = _range_of(s, f.var.sort, fuel)
        want = isinstance(f, Exists)
        saw_unknown = False
        for e in domain:
            env2 = dict(env)
            env2[f.var.name] = e
            v = _eval(s, f.body, env2, fuel, extra, fragment)
            if v is None:
                saw_unknown = True
            elif v == want:
                return want
        if saw_unknown or (not exhaustive and not fragment):
            return None
        return not want
    if isinstance(f, (SchemaConj, SchemaDisj)):
        members, exhaustive = _family_range(s, f.family, fuel)
        want = isinstance(f, SchemaDisj)
        saw_unknown = False
        for c in members:
            env2 = dict(env)
            env2[f.hole.name] = s.element_of(c, extra)
            v = _eval(s, f.body, env2, fuel, extra, fragment)
            if v is None:
                saw_unknown = True
            elif v == want:
                return want
        if saw_unknown or (not exhaustive and not fragment):
            return None
        return not want
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Valuations


class Valuation:
    """A map from sentences to truth values, either backed by a structure
    (the quantifier-free diagram) or by an explicit finite assignment."""

    def __init__(self, vocab, structure=None, name_map=None, assignment=None,
                 tag="classical"):
        self.vocab = vocab
        self.structure = structure
        self.name_map = dict(name_map or {})
        self.assignment = dict(assignment or {})
        self.tag = tag

    def value(self, sentence: Formula):
        if sentence in self.assignment:
            return self.assignment[sentence]
        if self.structure is not None:
            v = _eval(self.structure, sentence, {}, 1, self.name_map)
            return v
        return None


def valuation_of_structure(s, naming: str) -> Valuation:
    """Structure-backed valuation over the expanded vocabulary tau_M, using
    `naming` ('tau' or a family name) to name the elements."""
    name_map = {}
    if s.kind == "finite":
        fam = s.vocab.family(naming)
        elements = [e for sort in s.vocab.sorts for e in s.domains[sort]
                    if s.sort_of(e) == fam.sort]
        names = (fam.enumerate_terms(len(elements)) if fam.countable
                 else [Const(m, fam.sort) for m in fam.members])
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
    return Valuation(s.vocab, structure=s, name_map=name_map, tag="diagram")


# ---------------------------------------------------------------------------
# Permissibility


@dataclass
class PermissibilityVerdict:
    permissible: bool
    reason: Optional[str] = None
    witnesses: tuple = ()

    def __bool__(self):
        return self.permissible


def default_probe_set(vocab: Vocabulary, names, max_term_depth=2):
    """Quantifier-free probe sentences: atoms and equalities over ground
    terms of bounded depth built from the given named constants."""
    terms = list(names)
    frontier = list(names)
    for _ in range(max_term_depth - 1):
        new = []
        for d in vocab.functions():
            pools = [[t for t in terms if t.sort == s] for s in d.arg_sorts]
            for args in itertools.product(*pools):
                new.append(App(d.name, tuple(args), d.result_sort))
        terms.extend(new)
        frontier = new
        if len(terms) > 200:
            break
    probes = []
    for d in vocab.relations():
        pools = [[t for t in terms if t.sort == s] for s in d.arg_sorts]
        for args in itertools.product(*pools):
            probes.append(Atom(d.name, tuple(args)))
    for t1 in terms:
        for t2 in terms:
            if t1.sort == t2.sort:
                probes.append(Eq(t1, t2))
    return probes


def permissible(v: Valuation, probes=None) -> PermissibilityVerdict:
    """Check Def-of-permissibility conditions: totality on the probe set,
    propositional and equational consistency of the true-set, and soundness
    of the identity rules (t=t a theorem, =E a congruence)."""
    if probes is None:
        if v.structure is not None:
            names = list(v.name_map.keys()) or [
                Const(d.name, d.result_sort) for d in v.vocab.constants()]
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
    terms = set()
    for p in probes:
        terms.update(_formula_ground_terms(p, all_subterms=True))
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

    # propositional consistency on any explicit compound assignments
    for f, val in v.assignment.items():
        computed = _truth_table_value(f, v)
        if computed is not None and computed != val:
            return PermissibilityVerdict(
                False, "propositionally inconsistent true-set", (f,))
    return PermissibilityVerdict(True)


def _truth_table_value(f, v):
    if isinstance(f, (Atom, Eq)):
        return v.value(f)
    if isinstance(f, Absurd):
        return False
    if isinstance(f, Not):
        b = _truth_table_value(f.body, v)
        return None if b is None else not b
    if isinstance(f, And):
        a, b = _truth_table_value(f.left, v), _truth_table_value(f.right, v)
        return None if a is None or b is None else (a and b)
    if isinstance(f, Or):
        a, b = _truth_table_value(f.left, v), _truth_table_value(f.right, v)
        return None if a is None or b is None else (a or b)
    return None  # quantified: out of scope for qf probes


def _formula_ground_terms(f, all_subterms=False):
    out = set()

    def add(t):
        if not term_is_ground(t):
            return
        out.add(t)
        if all_subterms and isinstance(t, App):
            for a in t.args:
                add(a)

    def walk(g):
        if isinstance(g, Atom):
            for a in g.args:
                add(a)
        elif isinstance(g, Eq):
            add(g.left)
            add(g.right)
        elif isinstance(g, Not):
            walk(g.body)
        elif isinstance(g, (And, Or)):
            walk(g.left)
            walk(g.right)

    walk(f)
    return out


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
    if a.vocab.sorts != b.vocab.sorts or set(a.vocab.symbols) != set(b.vocab.symbols):
        raise EvalError("embed_search requires a common vocabulary")
    if a.kind == "term-generated":
        return _forced_embedding(a, b, bound)
    return _backtrack_embedding(a, b)


def _forced_embedding(a, b, bound):
    mapping = {t: b.element_of(t) for t in a.enumerate_elements(bound)}
    if len(set(map(str, mapping.values()))) != len(mapping):
        return None
    if _map_defect(a, b, mapping) is not None:
        return None
    return mapping


def _map_defect(a, b, mapping):
    """The first atomic fact that the partial map `mapping` from `a` into
    `b` breaks, or None.

    A defect is ('const', name) for a constant whose element is mapped
    elsewhere than the constant of `b`, or ('rel', name, src) / ('fun',
    name, src) for a sort-respecting tuple `src` of mapped elements at
    which the relation's truth or the function's value (when it is mapped
    too) is not carried over.  Relations are checked both ways; one that
    `a` or `b` cannot decide raises EvalError."""
    for d in a.vocab.constants():
        c = Const(d.name, d.result_sort)
        src = a.element_of(c)
        if src in mapping and mapping[src] != b.element_of(c):
            return ("const", d.name)
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


def _backtrack_embedding(a, b):
    elems = [e for s in a.vocab.sorts for e in a.domains[s]]

    def extend(i, mapping, used):
        if i == len(elems):
            return dict(mapping)
        e = elems[i]
        for cand in b.domains[a.sort_of(e)]:
            if cand in used:
                continue
            mapping[e] = cand
            if _map_defect(a, b, mapping) is None:
                res = extend(i + 1, mapping, used | {cand})
                if res is not None:
                    return res
            del mapping[e]
        return None

    return extend(0, {}, set())


# ---------------------------------------------------------------------------
# Structure files


def parse_structure(text: str, vocab: Vocabulary = None, base_dir=None,
                    vocab_loader=None):
    """Parse the structure file format; `over <file>` resolves the
    vocabulary via `vocab_loader` (or relative to `base_dir`)."""
    import os

    name = "anonymous"
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
                raise SyntaxError_(f"{e!r} is not in a declared domain",
                                   lineno, 1)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        try:
            if head == "structure":
                name = parts[1]
                if len(parts) >= 4 and parts[2] == "over" and vocab is None:
                    ref = parts[3]
                    if vocab_loader is not None:
                        vocab = vocab_loader(ref)
                    else:
                        path = os.path.join(base_dir or ".", ref)
                        with open(path) as fh:
                            vocab = parse_vocabulary(fh.read())
            elif head == "domain":
                sort = parts[1]
                inner = line.split("{", 1)[1].rsplit("}", 1)[0].split()
                domains[sort] = inner
                elements.update(inner)
            elif head == "rel" and "=" in parts:
                rel = parts[1]
                body = line.split("=", 1)[1].strip().strip("{}").strip()
                tuples = []
                for chunk in body.replace("(", " ( ").replace(")", " ) ").split(")"):
                    items = chunk.replace("(", " ").replace(",", " ").split()
                    if items:
                        check_named(items)
                        tuples.append(tuple(items))
                relations[rel] = tuples
            elif head == "fun" and "=" in parts:
                fn = parts[1]
                body = line.split("=", 1)[1].strip().strip("{}").strip()
                table = {}
                for pair in body.split():
                    src, dst = pair.split("->")
                    key = tuple(src.split(","))
                    check_named(key + (dst,))
                    table[key] = dst
                functions[fn] = table
            elif head == "const" and "=" in parts:
                check_named([parts[3]])
                constants[parts[1]] = parts[3]
            elif head == "generated":
                generated_by = parts[2]  # 'generated by tau' / 'generated by D'
            elif head == "rewrite":
                if vocab is None:
                    raise SyntaxError_("rewrite before vocabulary known",
                                       lineno, 1)
                lhs_txt, rhs_txt = line[len("rewrite"):].split("->", 1)
                var_names = sorted(set(
                    t for t in lhs_txt.replace("(", " ").replace(")", " ")
                    .replace(",", " ").split()
                    if t not in vocab.symbols and t not in vocab.families))
                bound = [(vn, vocab.sorts[0]) for vn in var_names]
                rewrites.append((parse_term(lhs_txt, vocab, bound),
                                 parse_term(rhs_txt, vocab, bound)))
            elif head == "rel-decide":
                rel = parts[1]
                if parts[2] != "by":
                    raise SyntaxError_("expected 'by' in rel-decide", lineno, 1)
                decider_name = parts[3]
                if decider_name not in BUILTIN_DECIDERS:
                    raise SyntaxError_(f"unknown decider {decider_name!r}",
                                       lineno, 1)
                rel_deciders[rel] = BUILTIN_DECIDERS[decider_name]
            else:
                raise SyntaxError_(f"unknown structure declaration: {line!r}",
                                   lineno, 1)
        except (IndexError, ValueError):
            raise SyntaxError_(f"malformed structure line: {line!r}",
                               lineno, 1) from None

    if vocab is None:
        raise SyntaxError_("structure file names no vocabulary")
    if generated_by is not None:
        return TermGeneratedStructure(vocab, generated_by, rewrites,
                                      rel_deciders, name=name)
    return FiniteStructure(vocab, domains, relations, functions, constants,
                           name=name)


def load_structure(path):
    import os

    with open(path) as fh:
        text = fh.read()
    return parse_structure(text, base_dir=os.path.dirname(os.path.abspath(path)))


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


def is_isomorphic(a: FiniteStructure, b: FiniteStructure) -> bool:
    """Brute-force isomorphism search over all sort-respecting bijections."""
    for s in a.vocab.sorts:
        if len(a.domains[s]) != len(b.domains[s]):
            return False
    per_sort = []
    for s in a.vocab.sorts:
        per_sort.append([dict(zip(a.domains[s], perm))
                         for perm in itertools.permutations(b.domains[s])])
    for combo in itertools.product(*per_sort):
        mapping = {}
        for m in combo:
            mapping.update(m)
        if _map_defect(a, b, mapping) is None:
            return True
    return False
