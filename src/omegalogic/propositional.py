"""Propositional inferentialism experiments: finite sentence universes,
multiple-conclusion rules, bounded derivability, admissible valuations and
truth-table determination.

Admissibility of a valuation is soundness of the derivability relation the
rules generate: every rule instance over the universe, every bounded-depth
theorem, and every single-assumption consequence must be respected. These
constraints are compiled to CNF clauses over the universe once per set of
rules and proof depth; the universe keeps that immutable clause set, and the
clause set keeps a two-watched-literal solver loaded with it, so every
enumeration and forcing query over the universe reuses one compile and one
loaded solver under new assumptions.

A compile does each piece of its work once. The prover's formula space is
built at the universe's first compile and kept for the others; the prover
works out the forward closure of each assumption set once; and the vE
clauses ask each distinct disjunct, not each disjunction, which sentences it
proves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .syntax import (
    Absurd, And, Atom, BOT, Formula, Not, Or, nodes, print_formula,
)


RULE_CATALOGUE = ("&I", "&E1", "&E2", "vI1", "vI2", "vE", "vE_MC",
                  "negI", "negE", "DN", "Refutation")

UNIVERSE_GUARD_DEPTH = 4
MAX_VALUATIONS = 200000


class GuardError(Exception):
    pass


def _check_rules(rules):
    rules = tuple(rules)
    for r in rules:
        if r not in RULE_CATALOGUE:
            raise ValueError(f"unknown rule {r!r}")
    return rules


# ---------------------------------------------------------------------------
# Sentence universes


class SentenceUniverse:
    """All formulas over ⋏ and the atoms, built with ~, &, | up to the given
    connective depth, in shortlex order on the printed form."""

    def __init__(self, atoms, depth):
        if depth > UNIVERSE_GUARD_DEPTH:
            raise GuardError(f"universe depth {depth} exceeds guard "
                             f"{UNIVERSE_GUARD_DEPTH}")
        if not atoms:
            raise GuardError("at least one atom required")
        self.atoms = tuple(atoms)
        self.depth = depth
        layers = [[BOT] + [Atom(a) for a in self.atoms]]
        for _ in range(depth):
            prev = [f for layer in layers for f in layer]
            new = [Not(f) for f in prev]
            new += [And(a, b) for a in prev for b in prev]
            new += [Or(a, b) for a in prev for b in prev]
            seen = {f for layer in layers for f in layer}
            layers.append([f for f in new if f not in seen])
        flat = {f for layer in layers for f in layer}
        self.sentences = tuple(sorted(
            flat, key=lambda f: (len(print_formula(f)), print_formula(f))))
        self.index = {f: i for i, f in enumerate(self.sentences)}
        self._clauses = {}  # (frozenset of rules, depth) -> ClauseSet

    @cached_property
    def _space(self):
        """The prover's formula space over the sentences, which no rule set
        changes: built at the first compile and kept for the others."""
        return _search_space(self.sentences)

    def __len__(self):
        return len(self.sentences)

    def __contains__(self, f):
        return f in self.index


def sentence_universe(atoms, depth) -> SentenceUniverse:
    return SentenceUniverse(atoms, depth)


def conjunction_of(sentences) -> Formula:
    """Right-folded conjunction of the given sentences, in order."""
    sentences = list(sentences)
    out = sentences[-1]
    for s in reversed(sentences[:-1]):
        out = And(s, out)
    return out


# ---------------------------------------------------------------------------
# Rule instances


@dataclass(frozen=True)
class RuleInstanceP:
    rule: str
    premises: tuple = ()
    hyps: tuple = ()  # hypothetical premises: (assumption, conclusion) pairs
    conclusions: tuple = ()  # empty tuple = the always-false conclusion


def rule_instances(rules, u: SentenceUniverse):
    """All instances of the named rules over the universe."""
    return list(_instances(_check_rules(rules), u, hypothetical=True))


def _instances(rules, u: SentenceUniverse, hypothetical):
    """The instances of the rules over the universe, in order; without
    `hypothetical`, only the plain ones, which compile to a clause each:
    none of vE or negI (they have hypothetical premises) nor Refutation."""
    for f in u.sentences:
        if isinstance(f, And):
            a, b = f.left, f.right
            if "&I" in rules:
                yield RuleInstanceP("&I", (a, b), (), (f,))
            if "&E1" in rules:
                yield RuleInstanceP("&E1", (f,), (), (a,))
            if "&E2" in rules:
                yield RuleInstanceP("&E2", (f,), (), (b,))
        elif isinstance(f, Or):
            a, b = f.left, f.right
            if "vI1" in rules:
                yield RuleInstanceP("vI1", (a,), (), (f,))
            if "vI2" in rules:
                yield RuleInstanceP("vI2", (b,), (), (f,))
            if "vE_MC" in rules:
                yield RuleInstanceP("vE_MC", (f,), (), (a, b))
            if hypothetical and "vE" in rules:
                for c in u.sentences:
                    yield RuleInstanceP("vE", (f,), ((a, c), (b, c)), (c,))
        elif isinstance(f, Not):
            a = f.body
            if hypothetical and "negI" in rules:
                yield RuleInstanceP("negI", (), ((a, BOT),), (f,))
            if "negE" in rules and a in u:
                yield RuleInstanceP("negE", (a, f), (), (BOT,))
            if "DN" in rules and isinstance(a, Not):
                yield RuleInstanceP("DN", (f,), (), (a.body,))
    if hypothetical and "Refutation" in rules:
        yield RuleInstanceP(
            "Refutation", (conjunction_of(u.sentences),), (), ())


def value_of(v, f: Formula):
    """Truth value of f under valuation v (a dict over the universe or a
    callable); sentences outside a dict's domain are computed compositionally
    from their parts."""
    if callable(v):
        return v(f)
    if f in v:
        return v[f]
    if isinstance(f, Absurd):
        return v[f]  # raise KeyError: ⋏ must be assigned
    if isinstance(f, Not):
        return not value_of(v, f.body)
    if isinstance(f, And):
        return value_of(v, f.left) and value_of(v, f.right)
    if isinstance(f, Or):
        return value_of(v, f.left) or value_of(v, f.right)
    raise KeyError(f)


def rule_sound(v, inst: RuleInstanceP, derivability_oracle=None) -> bool:
    """Soundness of one instance under v: true premises and holding
    hypothetical-derivability facts force at least one true conclusion."""
    for a, c in inst.hyps:
        if derivability_oracle is None or not derivability_oracle(a, c):
            return True  # fact does not hold: vacuously sound
    for p in inst.premises:
        if not value_of(v, p):
            return True
    return any(value_of(v, c) for c in inst.conclusions)


# ---------------------------------------------------------------------------
# Bounded derivability (goal-directed, memoized)


@dataclass(frozen=True)
class Derivability:
    decided: Optional[bool]  # None = undecided at the bound
    depth_bound: int

    @property
    def status(self):
        if self.decided is None:
            return "undecided"
        return "true" if self.decided else "false"


def _search_space(seed):
    """Formula space for proof search: subformula closure of the seed, plus
    excluded-middle scaffolding, plus one and two negations of everything."""
    s0 = set()
    for f in seed:
        s0.update(g for g in nodes(f) if isinstance(g, Formula))
    s0.add(BOT)
    s1 = s0 | {Or(f, Not(f)) for f in s0}
    return frozenset(s1 | {Not(f) for f in s1} | {Not(Not(f)) for f in s1})


class Prover:
    """Depth-bounded proof search for the multiple-conclusion calculus,
    restricted to a fixed finite formula space.

    Proofs are memoized per (closed assumption set, goal, depth), and the
    forward closure of each assumption set is worked out once per prover."""

    def __init__(self, rules, space):
        self.rules = frozenset(_check_rules(rules))
        self.space = frozenset(space)
        # f -> ~~f, for the double negations in the space
        self.double = {g.body.body: g for g in self.space
                       if isinstance(g, Not) and isinstance(g.body, Not)}
        self.memo = {}
        self.closures = {}  # assumption set -> its closure

    def _closure0(self, gamma):
        """Cheap forward closure under the elimination rules."""
        done = self.closures.get(gamma)
        if done is not None:
            return done
        cl = set(gamma)
        changed = True
        while changed:
            changed = False
            for f in list(cl):
                new = []
                if isinstance(f, And):
                    if "&E1" in self.rules:
                        new.append(f.left)
                    if "&E2" in self.rules:
                        new.append(f.right)
                elif isinstance(f, Not):
                    if "DN" in self.rules and isinstance(f.body, Not):
                        new.append(f.body.body)
                    if "negE" in self.rules and f.body in cl:
                        new.append(BOT)
                for g in new:
                    if g not in cl:
                        cl.add(g)
                        changed = True
        done = self.closures[gamma] = frozenset(cl)
        return done

    def proves(self, gamma: frozenset, goal: Formula, depth: int) -> bool:
        cl = self._closure0(gamma)
        return self._prove(cl, goal, depth)

    def _prove(self, cl, goal, depth):
        key = (cl, goal, depth)
        if key in self.memo:
            return self.memo[key]
        result = self._prove_inner(cl, goal, depth)
        self.memo[key] = result
        return result

    def _extend(self, cl, assumption):
        return self._closure0(cl | {assumption})

    def _prove_inner(self, cl, goal, depth):
        if goal in cl:
            return True
        if isinstance(goal, And) and "&I" in self.rules:
            if self._prove(cl, goal.left, depth) and \
                    self._prove(cl, goal.right, depth):
                return True
        if isinstance(goal, Or):
            if "vI1" in self.rules and self._prove(cl, goal.left, depth):
                return True
            if "vI2" in self.rules and self._prove(cl, goal.right, depth):
                return True
        if depth > 0:
            if isinstance(goal, Not) and "negI" in self.rules:
                if self._prove(self._extend(cl, goal.body), BOT, depth - 1):
                    return True
            if isinstance(goal, Absurd) and "negE" in self.rules:
                for f in cl:
                    if isinstance(f, Not) and f.body in self.space:
                        if self._prove(cl, f.body, depth - 1):
                            return True
            if "DN" in self.rules:
                nn = self.double.get(goal)
                if nn is not None and self._prove(cl, nn, depth - 1):
                    return True
            if "vE" in self.rules:
                for f in cl:
                    if isinstance(f, Or):
                        if self._prove(self._extend(cl, f.left), goal, depth - 1) \
                                and self._prove(self._extend(cl, f.right),
                                                goal, depth - 1):
                            return True
        return False

    def proves_set(self, gamma: frozenset, delta, depth: int) -> bool:
        """Set-set derivability gamma |- delta under the multiple-conclusion
        discipline: some member derivable, or a case split via vE_MC."""
        delta = tuple(delta)
        if any(self.proves(gamma, g, depth) for g in delta):
            return True
        if "vE_MC" in self.rules and depth > 0 and len(delta) >= 2:
            for a, b in itertools.permutations(delta, 2):
                d = Or(a, b)
                if d in self.space and self.proves(gamma, d, depth):
                    if self.proves_set(gamma | {a}, delta, depth - 1) and \
                            self.proves_set(gamma | {b}, delta, depth - 1):
                        return True
            for f in self._closure0(gamma):
                if isinstance(f, Or):
                    if self.proves_set(gamma | {f.left}, delta, depth - 1) and \
                            self.proves_set(gamma | {f.right}, delta, depth - 1):
                        return True
        return False


def derivable(rules, premises, conclusions, depth_bound: int) -> Derivability:
    """Bounded multiple-conclusion derivability; an empty conclusion set is
    only reachable through the Refutation rule."""
    rules = _check_rules(rules)
    premises = tuple(premises)
    conclusions = tuple(conclusions)
    space = _search_space(premises + conclusions)
    prover = Prover(rules, space)
    if not conclusions:
        # gamma |- (empty) holds only via Refutation from the absurd premise
        found = "Refutation" in rules and prover.proves(
            frozenset(premises), BOT, depth_bound)
    else:
        found = prover.proves_set(frozenset(premises), conclusions, depth_bound)
    if found:
        return Derivability(True, depth_bound)
    if not set(rules) & {"vE", "vE_MC", "negI"}:
        return Derivability(False, depth_bound)  # saturation was complete
    return Derivability(None, depth_bound)


# ---------------------------------------------------------------------------
# Admissibility as CNF over the universe


class ClauseSet(tuple):
    """An immutable, sorted tuple of clauses (tuples of signed 1-based
    variables) that keeps the solver `dpll` loads with it."""

    def solver(self, nvars):
        solver = self.__dict__.get("_solver")
        if solver is None or solver.nvars != nvars:
            solver = self._solver = _Solver(self, nvars)
        return solver


def admissibility_clauses(rules, u: SentenceUniverse, depth: int):
    """CNF clauses (signed 1-based universe indices) whose models are exactly
    the admissible total valuations on the universe, as a `ClauseSet`.

    Compiled once per set of rules and depth; the universe keeps the result,
    so rule order and repetition do not matter. Within a compile the prover
    asks each distinct vE disjunct about every sentence once and caches each
    closure, over a search space the universe builds once for all its
    compiles; every derivability question still goes through
    `Prover.proves`."""
    rules = _check_rules(rules)
    key = (frozenset(rules), depth)
    clauses = u._clauses.get(key)
    if clauses is None:
        clauses = u._clauses[key] = _compile_clauses(rules, u, depth)
    return clauses


def _compile_clauses(rules, u: SentenceUniverse, depth: int):
    idx = {f: i + 1 for f, i in u.index.items()}
    clauses = set()

    def add(lits):
        clauses.add(tuple(sorted(set(lits))))

    for inst in _instances(rules, u, hypothetical=False):
        add([-idx[p] for p in inst.premises] +
            [idx[c] for c in inst.conclusions])

    prover = Prover(rules, u._space)
    empty = frozenset()

    if "vE" in rules:
        # a |- c depends on the disjunct a alone, so each distinct disjunct
        # is asked about every sentence once, however many Ors share it
        follows = {}  # disjunct -> the sentences it proves
        for f in u.sentences:
            if isinstance(f, Or):
                for a in (f.left, f.right):
                    if a not in follows:
                        gamma = frozenset((a,))
                        follows[a] = {c for c in u.sentences
                                      if prover.proves(gamma, c, depth)}
                for c in follows[f.left] & follows[f.right]:
                    add([-idx[f], idx[c]])

    if "negI" in rules:
        for f in u.sentences:
            if isinstance(f, Not) and prover.proves(
                    frozenset([f.body]), BOT, depth):
                add([idx[f]])

    # theorems of the bounded calculus must be true
    for s in u.sentences:
        if prover.proves(empty, s, depth):
            add([idx[s]])

    # multiple-conclusion theorems: |- {s, ~s} via excluded middle
    if "vE_MC" in rules:
        for s in u.sentences:
            ns = Not(s)
            if ns in u and prover.proves(empty, Or(s, ns), depth):
                add([idx[s], idx[ns]])

    if "Refutation" in rules:
        # premise is the conjunction of all sentences, which the absurdity
        # constant abbreviates: not all sentences true, and v(⋏) = false
        add([-idx[s] for s in u.sentences])
        add([-idx[BOT]])

    return ClauseSet(sorted(clauses))


# ---------------------------------------------------------------------------
# SAT: two watched literals, chronological backtracking


class _Solver:
    """One clause set over variables 1..nvars, loaded once and searched under
    any number of assumption sets.

    Each clause of two or more literals watches its first two (Moskewicz et
    al. 2001, "Chaff"), so propagation visits only the clauses watching a
    literal that just became false, and backtracking leaves the watches as
    they are. Unit clauses and what they imply stay assigned at the root
    between calls (Eén and Sörensson 2003, "An Extensible SAT-solver")."""

    def __init__(self, clauses, nvars):
        self.nvars = nvars
        # value[lit] is the truth of a signed literal, None while unassigned:
        # slot v holds +v and, by negative indexing, slot -v holds -v
        self.value = [None] * (2 * nvars + 1)
        self.watches = [[] for _ in range(2 * nvars + 1)]
        self.trail = []  # true literals, in assignment order
        self.head = 0  # trail[:head] has been propagated
        self.ok = True  # False once the root level is contradictory
        units = []
        for clause in clauses:
            lits = list(dict.fromkeys(clause))
            self._check_range(lits)
            members = set(lits)
            if any(-lit in members for lit in lits):
                continue  # a tautology constrains nothing
            if len(lits) == 1:
                units.append(lits[0])
            elif lits:
                self.watches[lits[0]].append(lits)
                self.watches[lits[1]].append(lits)
            else:
                self.ok = False
        for lit in units:
            if self.value[lit] is None:
                self._assign(lit)
            elif self.value[lit] is False:
                self.ok = False
        self.ok = self.ok and self._propagate()
        self.root = len(self.trail)

    def _check_range(self, lits):
        for lit in lits:
            if not 0 < abs(lit) <= self.nvars:
                raise ValueError(f"literal {lit} outside variables "
                                 f"1..{self.nvars}")

    def _assign(self, lit):
        self.value[lit] = True
        self.value[-lit] = False
        self.trail.append(lit)

    def _undo(self, mark):
        value = self.value
        for lit in self.trail[mark:]:
            value[lit] = value[-lit] = None
        del self.trail[mark:]
        self.head = mark

    def _propagate(self):
        """Unit propagation from the trail's head; False on a conflict."""
        value, watches, trail = self.value, self.watches, self.trail
        head = self.head
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            watching = watches[false_lit]
            keep = []
            for k, clause in enumerate(watching):
                other = clause[0]
                if other == false_lit:
                    other = clause[1]
                    clause[0], clause[1] = other, false_lit
                if value[other]:
                    keep.append(clause)
                    continue
                for m in range(2, len(clause)):
                    lit = clause[m]
                    if value[lit] is not False:
                        clause[1], clause[m] = lit, false_lit
                        watches[lit].append(clause)
                        break
                else:
                    keep.append(clause)
                    if value[other] is False:
                        keep.extend(watching[k + 1:])
                        watches[false_lit] = keep
                        self.head = head
                        return False
                    value[other] = True
                    value[-other] = False
                    trail.append(other)
            watches[false_lit] = keep
        self.head = head
        return True

    def solve(self, assumptions, limit):
        """The models under the assumptions, in lexicographic order, at most
        `limit` of them; the solver is back at its root state afterwards."""
        models = []
        if not self.ok:
            return models
        self._check_range(assumptions)
        value, trail, nvars = self.value, self.trail, self.nvars
        decisions = []  # (trail length before, variable, on its True branch)
        try:
            for lit in assumptions:
                if value[lit] is None:
                    self._assign(lit)
                elif value[lit] is False:
                    return models  # contradictory assumptions
            conflict = not self._propagate()
            while True:
                if conflict:
                    while decisions and decisions[-1][2]:
                        decisions.pop()
                    if not decisions:
                        return models
                    mark, var, _ = decisions.pop()
                    self._undo(mark)
                    decisions.append((mark, var, True))
                    self._assign(var)
                    conflict = not self._propagate()
                    continue
                # every variable below the last decision is assigned
                var = decisions[-1][1] + 1 if decisions else 1
                while var <= nvars and value[var] is not None:
                    var += 1
                if var > nvars:
                    models.append(tuple(value[1:nvars + 1]))
                    if limit is not None and len(models) >= limit:
                        return models
                    conflict = True  # backtrack to the next model
                    continue
                decisions.append((len(trail), var, False))
                self._assign(-var)
                conflict = not self._propagate()
        finally:
            self._undo(self.root)


def dpll(clauses, nvars, assumptions=(), limit=None):
    """All models of the clause set under the assumptions, as tuples of
    booleans, in lexicographic order (False < True). `limit` caps the number
    of models collected.

    The search is iterative: propagate with two watched literals, branch on
    the lowest unassigned variable (False first), and backtrack
    chronologically. A `ClauseSet` keeps its loaded solver, so repeated calls
    on it skip the load; any other clause list is loaded afresh."""
    if isinstance(clauses, ClauseSet):
        solver = clauses.solver(nvars)
    else:
        solver = _Solver(clauses, nvars)
    return solver.solve(tuple(assumptions), limit)


def satisfiable(clauses, nvars, assumptions=()):
    return bool(dpll(clauses, nvars, assumptions, limit=1))


def clauses_satisfied(v, u: SentenceUniverse, clauses) -> bool:
    assign = [bool(value_of(v, s)) for s in u.sentences]
    for cl in clauses:
        if not any((lit > 0) == assign[abs(lit) - 1] for lit in cl):
            return False
    return True


def is_admissible(v, rules, u: SentenceUniverse, depth: int = 6) -> bool:
    """Is the valuation admissible for the rule set over this universe?"""
    return clauses_satisfied(v, u, admissibility_clauses(rules, u, depth))


def admissible_valuations(rules, u: SentenceUniverse, derivability_depth=6):
    """The admissible total valuations on the universe, as dicts, in
    lexicographic order of their truth vectors.

    Always enumerates the models of the admissibility clauses with `dpll`;
    more than `MAX_VALUATIONS` of them raises `GuardError`.
    """
    clauses = admissibility_clauses(rules, u, derivability_depth)
    models = dpll(clauses, len(u), limit=MAX_VALUATIONS + 1)
    if len(models) > MAX_VALUATIONS:
        raise GuardError("admissible set exceeds enumeration cap "
                         f"{MAX_VALUATIONS}; use forcing queries instead")
    return [dict(zip(u.sentences, m)) for m in models]


# ---------------------------------------------------------------------------
# Named valuations


def _atom_valuations(atoms):
    """Every two-valued assignment to the atoms, with ⋏ false, as a dict
    that `value_of` extends compositionally."""
    for bits in itertools.product((False, True), repeat=len(atoms)):
        v = dict(zip(atoms, bits))
        v[BOT] = False
        yield v


def is_tautology(f: Formula) -> bool:
    atoms = {g for g in nodes(f) if isinstance(g, Atom)}
    return all(value_of(v, f) for v in _atom_valuations(tuple(atoms)))


def v_top(f: Formula) -> bool:
    """The trivial valuation: every sentence true."""
    return True


def v_tautology(f: Formula) -> bool:
    """True exactly on truth-table tautologies."""
    return is_tautology(f)


def classical_valuations(u: SentenceUniverse):
    """The truth-table valuations over the atom assignments, ⋏ false."""
    return [{s: value_of(v, s) for s in u.sentences}
            for v in _atom_valuations(tuple(Atom(a) for a in u.atoms))]


# ---------------------------------------------------------------------------
# Truth-table determination


_ROWS2 = ((True, True), (True, False), (False, True), (False, False))


def determined_truth_table(connective, rules, u: SentenceUniverse,
                           depth: int = 6):
    """Per row: 'forced-true' | 'forced-false' | 'unforced', aggregated over
    every instantiating sentence pair of the universe.

    A row is forced when some instance realizes it with the compound on one
    side and none with the compound on the other. Each side needs one model
    of the clauses under the row's assumptions; a side already seen for the
    row is not asked again, and a model found earlier that meets a query's
    assumptions answers it without a solve."""
    rules = _check_rules(rules)
    clauses = admissibility_clauses(rules, u, depth)
    n = len(u)
    idx = {f: i + 1 for f, i in u.index.items()}
    kind = {"&": And, "|": Or, "~": Not}[connective]
    instances = []  # (the compound's variable, its parts' variables)
    for f in u.sentences:
        if isinstance(f, kind):
            parts = (f.left, f.right) if connective in "&|" else (f.body,)
            instances.append((idx[f], [idx[p] for p in parts]))
    models = []  # every model found in this call

    def realizable(assume):
        for m in models:
            if all(m[abs(lit) - 1] == (lit > 0) for lit in assume):
                return True
        found = dpll(clauses, n, assume, limit=1)
        models.extend(found)
        return bool(found)

    rows = _ROWS2 if connective in "&|" else ((True,), (False,))
    table = {}
    for row in rows:
        seen = {True: False, False: False}  # compound's value -> realized
        for lit, parts in instances:
            assume = [p if val else -p for p, val in zip(parts, row)]
            for side in (True, False):
                if not seen[side]:
                    seen[side] = realizable(assume + [lit if side else -lit])
            if seen[True] and seen[False]:
                break
        if seen[True] == seen[False]:
            table[row] = "unforced"  # both sides, or the row never realized
        else:
            table[row] = "forced-true" if seen[True] else "forced-false"
    return table
