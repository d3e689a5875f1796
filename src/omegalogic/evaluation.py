"""Fuel-bounded truth evaluation: each formula compiles once into a plan
that runs on finite structures and term-generated presentations alike.

Truth over a term-generated presentation is approximated by enumerating the
first `fuel` ground terms in shortlex order; `unknown` is a first-class
outcome and never silently coerces to a boolean.  `structures` keeps these
names too.
"""

import functools
from dataclasses import dataclass
from math import inf
from typing import Optional

from .syntax import (
    Absurd, And, App, Atom, Const, Eq, Exists, Forall, Formula, Not, Or,
    SchemaConj, SchemaDisj, Var, juncts, term_is_ground,
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


@functools.cache
def _tv(b, fuel=0):
    """The truth value of `b` (True, False or None for unknown) at `fuel`:
    one frozen instance per pair, shared by every call."""
    return TruthAtFuel("unknown" if b is None else "true" if b else "false",
                       fuel)


def eval_sentence(s, f: Formula, fuel: int = 8, extra_names=None,
                  fragment=False) -> TruthAtFuel:
    """Three-valued truth of the sentence `f` in structure `s`.

    Finite structures always decide. On term-generated presentations each
    quantifier ranges over the first `fuel` elements; exhausting the bound
    without a verdict yields 'unknown', unless the sort has fewer than
    `fuel` elements, all of which were tried. With `fragment=True` the tested
    range is treated as the whole domain (bounded-fragment semantics), so
    quantifiers always decide.

    Order of evaluation. `f` compiles once into a plan that every
    structure runs (`_compiled`). Conjunctions and disjunctions are read
    left to right and stop at the first false conjunct or true disjunct;
    an unknown part stops neither. A quantifier or schema tries its values
    in range order and stops at the first one that settles it. Under a
    block of existential quantifiers over a conjunction, the leading run
    of conjuncts with no quantifier, schema or function application (and
    on a presentation no relation atom) is checked early, each as soon as
    the last block variable it mentions is bound, if every range of the
    block is exhaustive (a finite sort, `fragment=True`, or a presentation
    range shorter than `fuel`) and, on a finite structure, `s` interprets
    every relation and constant the run names; otherwise every conjunct is
    checked once every block variable is bound (plain order). A false
    early conjunct rejects every extension of the bound values at once.
    On that path three counts may make the block false without binding
    anything, each read once per call (on a finite structure, or on a
    presentation without `fragment=True`, whose ranges the exhaustiveness
    test has listed already):
    - the run says that k variables of one sort are pairwise distinct and
      the sort has fewer than k values (pigeonhole);
    - a closure `forall z:S. (z = x1 | ... | z = xk)` over block
      variables of a sort of the block, directly after the run or after
      other such closures, and S has more than k values;
    - on a finite structure, the run makes n variables of sort S
      pairwise distinct, |S| = n, and for some relation it holds one
      literal for each of the n**k tuples of those variables, while the
      relation's extent has another number of tuples inside S**k than
      there are positive literals among them.
    Each leaves every binding failing a conjunct of the run or such a
    closure, which cannot raise.  So the Scott sentence of a structure
    without functions is false at once on one with more or fewer elements
    of a sort it does not leave empty, and on one of the same size whose
    relation has other counts.
    Verdicts and raised errors are those of plain order.
    """
    code = _compiled(f, s.kind)
    c = _Call(s, fuel, extra_names or {}, fragment, code)
    return _tv(code.sentences[0](c, c.slots), fuel)


class Sentences:
    """Sentences that `eval_sentences` reads in turn: they compile together
    into one plan per kind of structure, on first use, kept here as a
    formula node keeps its own."""

    __slots__ = ("formulas", "_plans")

    def __init__(self, formulas):
        self.formulas = tuple(formulas)
        self._plans = {}


def eval_sentences(s, fs: Sentences, fuel: int = 8, fragment=False):
    """The truth of each sentence of `fs` in `s`, in order: True, False or
    None for unknown, the value of `eval_sentence`'s `TruthAtFuel` at
    `fuel`, and the same errors.  A generator, it evaluates a sentence
    only when its value is asked for.  The sentences run one plan in one
    evaluation frame, so each quantified sort and schema family is listed
    once for all of them, and on a presentation a relation's decider and a
    ground term's element are found once for all of them."""
    code = _compiled(fs, s.kind)
    c = _Call(s, fuel, {}, fragment, code)
    slots = c.slots
    for read in code.sentences:
        yield read(c, slots)


def _eval(s, f, env, fuel, extra, fragment=False):
    """Truth of `f` in `s` (True, False or None for unknown) with its free
    variables read from `env`, a map from names to elements, which must
    bind every one of them; the rest as in `eval_sentence`."""
    code = _compiled(f, s.kind)
    c = _Call(s, fuel, extra, fragment, code)
    slots = c.slots
    (free,) = code.free
    if code.memo is None:
        for name, i in free:
            slots[i] = env[name]
    else:  # a presentation's elements are normal forms
        for name, i in free:
            slots[i] = s.normalize(env[name])
    return code.fns[0](c, slots)


def _compiled(owner, kind):
    """The plan of `owner`, a formula or `Sentences`, for structures of
    `kind`, compiled on first use and kept on the owner, which it holds no
    reference to."""
    try:
        return owner._plans[kind]
    except AttributeError:  # a node's first plan
        object.__setattr__(owner, "_plans", {})
    except KeyError:
        pass
    formulas = (owner.formulas if type(owner) is Sentences else (owner,))
    code = owner._plans[kind] = _Compiler(kind).compile(formulas)
    return code


class _Code:
    """Compiled formulas: per formula, the closure `fn(call, slots)` that
    gives its truth value (`fns`), with each variable in a slot of the
    list `slots`, and the (name, slot) pairs of the variables that the
    caller's environment fills (`free`), normalized on a presentation;
    `sentences` reads each formula as a sentence (`_sentence`).  The
    formulas share `width` slots.  `memo` counts what a call on a
    presentation keeps once found (`_Call.memo`), and is None on a finite
    structure."""

    __slots__ = ("fns", "free", "sentences", "width", "memo")

    def __init__(self, fns, free, sentences, width, memo):
        self.fns, self.free, self.sentences = fns, free, sentences
        self.width, self.memo = width, memo


def _sentence(fn, free, quantified, finite):
    """The closure that reads the formula of `fn` as a sentence: a free
    variable raises `KeyError`, as reading it from an empty environment,
    and on a presentation a quantified sentence raises `EvalError` at fuel
    <= 0, before anything else."""
    if free:  # read from the empty environment of a sentence
        name = free[0][0]
        fn = lambda c, e: {}[name]
    if quantified and not finite:
        body = fn

        def fn(c, e):
            if c.fuel <= 0:
                raise EvalError("fuel must be positive for quantified "
                                "sentences over a term-generated "
                                "presentation")
            return body(c, e)
    return fn


class _Call:
    """What one evaluation call of a plan (`_Code`) shares: the structure,
    its bounds, the variable slots, and the relation tests, ground
    elements, ranges and block placements worked out so far.  Nothing here
    outlives the call, so no value depends on an earlier one."""

    __slots__ = ("s", "fuel", "extra", "fragment", "slots", "rels", "memo",
                 "ranges", "blocks")

    def __init__(self, s, fuel, extra, fragment, code):
        self.s, self.fuel, self.extra, self.fragment = s, fuel, extra, fragment
        self.slots = [None] * code.width
        memo = code.memo
        if memo is None:  # a finite structure
            self.rels = s.relations  # extents
        else:
            self.rels = None
            # the relation tests and ground elements, each in the slot the
            # plan gave it, kept once found: what raises is not kept, so it
            # raises again at its next use
            self.memo = [None] * memo
        self.ranges = {}
        self.blocks = {}

    def test(self, k, rel):
        """The test of `rel` on a presentation (`relation_test`), kept in
        slot `k` of the memo."""
        t = self.memo[k] = self.s.relation_test(rel)
        return t

    def sort_range(self, sort):
        """The values a quantifier over `sort` takes, whether they are the
        whole sort (a stream that ends within the fuel has listed it), and
        no error."""
        r = self.ranges.get(sort)
        if r is None:
            s = self.s
            if s.kind == "finite":
                r = (s.elements(sort), True, None)
            else:
                values = s.enumerate_elements(self.fuel, sort)
                r = (values, len(values) < self.fuel, None)
            self.ranges[sort] = r
        return r

    def schema_range(self, key):
        """The elements a schema hole of `sort` over `family`, the pair
        `key`, takes, whether they are all of them, and the error that
        naming the next one raised (raised only where the loop reaches it).
        Over 'tau' they are the values of the vocabulary's `tau_stream`:
        all of them on a finite structure, the first `fuel` on a
        presentation, as it keeps them (`tau_elements`)."""
        r = self.ranges.get(key)
        if r is None:
            s, (family, sort) = self.s, key
            if family != "tau":
                names, exhaustive = s.vocab.family(family).range_at(self.fuel)
            elif s.kind == "finite":
                r = self.ranges[key] = (s.closed_elements(sort), True, None)
                return r
            else:
                names, exhaustive = s.tau_elements(self.fuel, sort), False
            values, error = [], None
            try:
                for t in names:
                    values.append(s.element_of(t, self.extra))
            except EvalError as e:
                error = e
            r = self.ranges[key] = (values, exhaustive, error)
        return r

    def exhaustive(self, sorts, names):
        """Whether a block over `sorts` may check conjuncts that use
        `names` early: every range is the whole sort and, on a finite
        structure, every sort exists and every name is interpreted."""
        if self.rels is not None:
            return (all(map(self.s.domains.__contains__, sorts))
                    and all(map(self.interprets, names)))
        return self.fragment or all(self.sort_range(sort)[1]
                                    for sort in sorts)

    def interprets(self, name):
        """Whether the finite structure interprets a relation name or a
        ground name, so that a conjunct using it cannot raise."""
        s = self.s
        if isinstance(name, str):
            return name in s.relations
        if self.extra and name in self.extra:
            return True
        return isinstance(name, Const) and (
            name.name in s.constants or s.sort_of(name.name) is not None)


class _Compiler:
    """Compiles a formula into nested closures `fn(call, slots)` for
    structures of one kind (`_Code`).  Quantifier blocks and chains of
    `And`/`Or` are flattened by loops, so a long chain costs no recursion.
    Elements are compared directly, a presentation's being normal forms.
    An atom applies its relation's test (`relation_test`) to the tuple of
    its arguments: on a finite structure as `in` its extent, on a
    presentation by calling its decider, fetched once per call.  On a
    presentation a ground term is resolved once per call.  A negated
    equation, or a negated atom on a finite structure, is one test (`!=`,
    `not in`)."""

    def __init__(self, kind):
        self.finite = kind == "finite"
        self.free = {}  # free variable name -> slot, per formula
        self.width = 0
        self.quantified = False  # per formula
        self.memo = {}  # relation name or ground term -> slot in `_Call.memo`

    def compile(self, formulas):
        """One `_Code` for `formulas`, whose slots and memo they share."""
        fns, free, sentences = [], [], []
        for f in formulas:
            self.free, self.quantified = {}, False
            fns.append(self.formula(f, {}))
            free.append(tuple(self.free.items()))
            sentences.append(_sentence(fns[-1], free[-1], self.quantified,
                                       self.finite))
        return _Code(tuple(fns), tuple(free), tuple(sentences), self.width,
                     None if self.finite else len(self.memo))

    def new_slot(self):
        self.width += 1
        return self.width - 1

    def slot(self, name, scope):
        i = scope.get(name)
        if i is None:
            i = self.free.get(name)
            if i is None:
                i = self.free[name] = self.new_slot()
        return i

    def term(self, t, scope):
        """The value of `t`; on a presentation a ground term's is kept once
        it is resolved, so one that raises raises at every use."""
        if isinstance(t, Var):
            i = self.slot(t.name, scope)
            return lambda c, e: e[i]
        resolve = self.resolve(t, scope)
        if self.finite or not term_is_ground(t):
            return resolve
        k = self.memo.setdefault(t, len(self.memo))

        def ground(c, e):
            v = c.memo[k]
            if v is None:
                v = c.memo[k] = resolve(c, e)
            return v
        return ground

    def resolve(self, t, scope):
        if isinstance(t, App):
            func, args = t.func, [self.term(a, scope) for a in t.args]
            return lambda c, e: c.s.apply_fun(func, [a(c, e) for a in args])
        return lambda c, e: c.s.element_of(t, c.extra)

    def formula(self, f, scope):
        if isinstance(f, Absurd):
            return lambda c, e: False
        if isinstance(f, Atom):
            return self.atom(f, scope, False)
        if isinstance(f, Eq):
            return self.equation(f, scope, False)
        if isinstance(f, Not):
            # a run of negations is one node: the body, or its negation
            odd = False
            while isinstance(f, Not):
                f, odd = f.body, not odd
            if not odd:
                return self.formula(f, scope)
            # a literal that is never unknown is one negated test
            if isinstance(f, Eq):
                return self.equation(f, scope, True)
            if self.finite and isinstance(f, Atom):
                return self.atom(f, scope, True)
            body = self.formula(f, scope)
            return lambda c, e: None if (v := body(c, e)) is None else not v
        if isinstance(f, And):
            return _conjunction([self.formula(g, scope)
                                 for g in juncts(f, And)])
        if isinstance(f, Or):
            return _disjunction([self.formula(g, scope)
                                 for g in juncts(f, Or)])
        if isinstance(f, (Forall, Exists)):
            return self.block(f, scope)
        if isinstance(f, (SchemaConj, SchemaDisj)):
            return self.schema(f, scope)
        raise TypeError(f"not a formula: {f!r}")

    def equation(self, f, scope, negated):
        """`f.left == f.right`, or with `negated` `!=`: elements are
        compared directly."""
        if type(f.left) is Var and type(f.right) is Var:
            i, j = self.slot(f.left.name, scope), self.slot(f.right.name,
                                                             scope)
            if negated:
                return lambda c, e: e[i] != e[j]
            return lambda c, e: e[i] == e[j]
        a, b = self.term(f.left, scope), self.term(f.right, scope)
        if negated:
            return lambda c, e: a(c, e) != b(c, e)
        return lambda c, e: a(c, e) == b(c, e)

    def atom(self, f, scope, negated):
        """The relation's test applied to the argument tuple, once the
        arguments are resolved, as `holds` had them; with `negated` (on a
        finite structure only) `not in` its extent."""
        rel = f.rel
        if any(type(a) is not Var for a in f.args):
            values = _tuple_of([self.term(a, scope) for a in f.args])
            if negated:
                return lambda c, e: values(c, e) not in c.rels[rel]
            if self.finite:
                return lambda c, e: values(c, e) in c.rels[rel]
            k = self.memo.setdefault(rel, len(self.memo))

            def atom(c, e):
                args = values(c, e)  # before the test, as `holds` had them
                return (c.memo[k] or c.test(k, rel))(args)
            return atom
        idx = [self.slot(a.name, scope) for a in f.args]
        if negated:
            if len(idx) == 1:
                (i,) = idx
                return lambda c, e: (e[i],) not in c.rels[rel]
            if len(idx) == 2:
                i, j = idx
                return lambda c, e: (e[i], e[j]) not in c.rels[rel]
            return lambda c, e: tuple([e[i] for i in idx]) not in c.rels[rel]
        if self.finite:
            if len(idx) == 1:
                (i,) = idx
                return lambda c, e: (e[i],) in c.rels[rel]
            if len(idx) == 2:
                i, j = idx
                return lambda c, e: (e[i], e[j]) in c.rels[rel]
            return lambda c, e: tuple([e[i] for i in idx]) in c.rels[rel]
        k = self.memo.setdefault(rel, len(self.memo))
        if len(idx) == 1:
            (i,) = idx
            return lambda c, e: (c.memo[k] or c.test(k, rel))((e[i],))
        if len(idx) == 2:
            i, j = idx
            return lambda c, e: (c.memo[k] or c.test(k, rel))((e[i], e[j]))
        return lambda c, e: (c.memo[k] or c.test(k, rel))(
            tuple([e[i] for i in idx]))

    def schema(self, f, scope):
        """A schema, run as a one-level block over its family."""
        self.quantified = True
        slot = self.new_slot()
        checks = [(self.formula(f.body, {**scope, f.hole.name: slot}),)]
        level = self.loop(_Call.schema_range, [(f.family, f.hole.sort)],
                          [slot], isinstance(f, SchemaDisj))
        return lambda c, e: level(c, e, 0, False, checks)

    def block(self, f, scope):
        """A run of quantifiers of one kind, `Q x1 ... Q xn. body`, whose
        body's conjuncts the loop checks all at the last level in plain
        order, or else at the levels of `placement`, where its static cuts
        may make the block false before anything is bound."""
        self.quantified = True
        kind, sorts, slots = type(f), [], []
        while type(f) is kind:
            sorts.append(f.var.sort)
            slots.append(self.new_slot())
            scope = {**scope, f.var.name: slots[-1]}
            f = f.body
        want = kind is Exists
        conjuncts = juncts(f, And)
        parts = [self.formula(g, scope) for g in conjuncts]
        plain = [()] * (len(slots) - 1) + [tuple(parts)]
        level = self.loop(_Call.sort_range, sorts, slots, want)
        early = None
        # on a finite structure a block of one variable or one conjunct,
        # which moves nothing, may still have a cut; on a presentation,
        # whose sentences are short and seldom close a diagram, placing it
        # costs more compile time than its cuts save
        if want and (self.finite or len(slots) > 1 and len(parts) > 1):
            early, names, cuts = self.placement(conjuncts, parts, scope,
                                                slots, sorts)
        if early is None:
            return lambda c, e: level(c, e, 0, False, plain)

        distinct = tuple(dict.fromkeys(sorts))

        def block(c, e):
            # the checks, or () when a cut makes it false
            checks = c.blocks.get(block)
            if checks is None:
                checks = plain
                if c.exhaustive(distinct, names):
                    checks = early
                    # the cuts read a finite domain, or a presentation's
                    # range that `exhaustive` has listed already
                    listed = c.rels is not None or not c.fragment
                    for sort, apart, cover, diagrams in cuts if listed else ():
                        values = c.sort_range(sort)[0]
                        n = len(values)
                        if (n < apart
                                or n > cover and len(set(values)) > cover
                                or n == apart and diagrams
                                and _miscounted(c.rels, values, diagrams)):
                            checks = ()
                            break
                c.blocks[block] = checks
            if not checks:
                return False
            return level(c, e, 0, False, checks)
        return block

    def loop(self, range_of, keys, slots, want):
        """The one quantifier loop: `level(c, e, 0, False, checks)` binds
        each slot in turn to the values `range_of(c, key)` lists for its
        key, and checks the callables `checks[i]` once slot i is bound.
        With `want` true (`exists`) it is true once every check holds on a
        binding; with `want` false (`forall`), false once one fails."""
        last = len(slots) - 1

        def level(c, e, i, unknown, checks):
            # the value over the extensions of slots[:i], where the checks
            # above level i passed, or left it unknown if `unknown`
            values, exhaustive, error = range_of(c, keys[i])
            slot, here, deeper = slots[i], checks[i], i < last
            found_unknown = False
            for v in values:
                e[slot] = v
                u = unknown
                for check in here:
                    r = check(c, e)
                    if r is False:
                        break
                    if not r:
                        u = True
                else:
                    if deeper:
                        r = level(c, e, i + 1, u, checks)
                        if r is None:
                            found_unknown = True
                        elif r == want:
                            return want
                    elif u:
                        found_unknown = True
                    elif want:
                        return True
                    continue
                if not want:  # a false conjunct refutes `forall`
                    return False
            if error is not None:
                raise error
            if found_unknown or not (exhaustive or c.fragment):
                return None
            return not want
        return level

    def placement(self, conjuncts, parts, scope, slots, sorts):
        """The checks at each level of an existential block when its
        leading run of conjuncts that cannot raise (`_early_check`) moves,
        each to the level binding the last block variable it mentions; the
        relation and ground names that run uses; and the block's static
        cuts (`_cuts`), read from that run and the closures
        `forall z:S. (z = x1 | ... | z = xk)` over block variables that
        directly follow it (`_cover`).  Each cut makes every binding fail
        a conjunct of the run or one of those closures, none of which can
        raise, so the block is false before plain order would read any
        later conjunct.  No checks (None) when no conjunct moves above the
        last level and there is no cut."""
        level_of = {slot: i for i, slot in enumerate(slots)}
        checks, names, moved = [[] for _ in slots], set(), 0
        apart, literals, covers = set(), [], {}
        for g, part in zip(conjuncts, parts):
            found = _early_check(g, scope, level_of, self.finite)
            if found is None:
                break
            checks[found[0]].append(part)
            names |= found[1]
            moved += 1
            positive = type(g) is not Not
            if not positive:
                g = g.body
            if type(g) is Eq and not positive:
                pair = _levels((g.left, g.right), scope, level_of)
                if pair is not None and pair[0] != pair[1]:
                    apart.add(frozenset(pair))
            elif type(g) is Atom:  # in the run on a finite structure only
                args = _levels(g.args, scope, level_of)
                if args:  # not None, nor the () of a 0-ary atom
                    literals.append((g.rel, args, positive))
        for g in conjuncts[moved:]:
            cover = _cover(g, scope, level_of, sorts)
            if cover is None:
                break
            sort, k = cover
            covers[sort] = min(k, covers.get(sort, k))
        checks[-1] += parts[moved:]
        cuts = _cuts(sorts, apart, literals, covers)
        if len(checks[-1]) == len(parts) and not cuts:
            return None, None, None
        return [tuple(here) for here in checks], names, cuts


def _tuple_of(args):
    """The closure giving the tuple of the values of the closures `args`,
    left to right."""
    if len(args) == 2:
        a, b = args
        return lambda c, e: (a(c, e), b(c, e))
    return lambda c, e: tuple([a(c, e) for a in args])


def _levels(terms, scope, level_of):
    """The block levels of `terms` when each is a variable of the block,
    else None."""
    levels = tuple(level_of.get(scope.get(t.name)) if type(t) is Var
                   else None for t in terms)
    return None if None in levels else levels


def _cover(g, scope, level_of, sorts):
    """For a closure `forall z:S. (z = x1 | ... | z = xk)`, each `xi` a
    block variable and S a sort of the block, the pair (S, k) with k the
    number of distinct block levels named: when S has more than k values,
    some z differs from every xi on every binding, so the closure is
    false.  None for any other conjunct."""
    if type(g) is not Forall or g.var.sort not in sorts:
        return None
    z, levels = g.var.name, set()
    for d in juncts(g.body, Or):
        if type(d) is not Eq or (type(d.left), type(d.right)) != (Var, Var):
            return None
        x = d.right if d.left.name == z else d.left
        if x.name == z or z not in (d.left.name, d.right.name):
            return None
        level = level_of.get(scope.get(x.name))
        if level is None:
            return None
        levels.add(level)
    return g.var.sort, len(levels)


def _cuts(sorts, apart, literals, covers):
    """The static cuts of an existential block: one (sort, apart, cover,
    diagrams) per sort that has one.  The block is false when the sort has
    n values and
    - n < apart (pigeonhole): the run says that `apart` variables of the
      sort are pairwise distinct, a clique of `apart` (a set of level
      pairs) grown greedily in level order, which for a Scott sentence is
      every variable of the sort; every binding fails one of those `!=`;
    - n > cover (closure), counting distinct values: a closure over the
      sort names only `cover` block variables (`covers`), so on every
      binding some value differs from all of them;
    - n == apart and `_miscounted`: every binding that passes the run's
      `!=` is then a bijection from the clique onto the sort, which
      carries a relation's positive literals in the run onto the extent's
      tuples inside the sort exactly when all its literals hold, so the
      two counts must agree.
    `literals` are the run's all-variable literals (rel, levels, positive);
    `diagrams` holds (rel, k, positives), k >= 1, for each relation of
    which they hold one literal, of one sign, for each of the apart**k
    tuples of the clique's levels."""
    cuts = []
    for sort in dict.fromkeys(sorts):
        clique = []
        for i, s in enumerate(sorts):
            if s == sort and all(frozenset((i, j)) in apart for j in clique):
                clique.append(i)
        inside, found = set(clique), {}
        for rel, levels, positive in literals:
            if inside.issuperset(levels):
                signs = found.setdefault((rel, len(levels)), (set(), set()))
                signs[not positive].add(levels)
        diagrams = tuple((rel, k, len(pos))
                         for (rel, k), (pos, neg) in found.items()
                         if not pos & neg
                         and len(pos | neg) == len(clique) ** k)
        cover = covers.get(sort, inf)
        if len(clique) > 1 or diagrams or cover < inf:
            cuts.append((sort, len(clique), cover, diagrams))
    return tuple(cuts)


def _miscounted(rels, values, diagrams):
    """Whether some full diagram (rel, k, positives) of `_cuts` counts
    another number of positive literals than `rel`'s extent, in `rels`,
    has tuples inside `values`**k: only those, since an extent may name a
    non-element or an element of another sort."""
    inside = set(values)
    for rel, k, positives in diagrams:
        count = 0
        for t in rels[rel]:
            if len(t) == k and inside.issuperset(t):
                count += 1
        if count != positives:
            return True
    return False


def _early_check(g, scope, level_of, finite):
    """For a conjunct that may be checked early, the deepest block level
    among its variables and the relation and ground names it uses; None
    for a conjunct with a quantifier, a schema or a function application,
    or with a relation atom when the structure is a presentation (its
    decider may raise)."""
    level, names, todo = 0, set(), [g]
    while todo:
        g = todo.pop()
        if isinstance(g, Not):
            todo.append(g.body)
        elif isinstance(g, (And, Or)):
            todo += (g.left, g.right)
        elif isinstance(g, (Atom, Eq)):
            if isinstance(g, Atom):
                if not finite:
                    return None
                names.add(g.rel)
            for t in g.args if isinstance(g, Atom) else (g.left, g.right):
                if isinstance(t, Var):
                    level = max(level, level_of.get(scope.get(t.name), 0))
                elif isinstance(t, App):
                    return None
                elif finite:
                    names.add(t)
        elif not isinstance(g, Absurd):
            return None
    return level, frozenset(names)


def _conjunction(parts):
    def conjunction(c, e):
        unknown = False
        for p in parts:
            v = p(c, e)
            if v is False:
                return False
            if not v:
                unknown = True
        return None if unknown else True
    return conjunction


def _disjunction(parts):
    def disjunction(c, e):
        unknown = False
        for p in parts:
            v = p(c, e)
            if v is True:
                return True
            if v is not False:
                unknown = True
        return None if unknown else False
    return disjunction
