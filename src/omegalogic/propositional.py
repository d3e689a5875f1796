"""Propositional inferentialism experiments: finite sentence universes,
multiple-conclusion rules, bounded derivability, admissible valuations and
truth-table determination.

Admissibility of a valuation is soundness of the derivability relation the
rules generate: every rule instance over the universe, every bounded-depth
theorem, and every single-assumption consequence must be respected. These
constraints are compiled to CNF clauses over the universe and checked or
enumerated with a small DPLL solver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .syntax import Absurd, And, Atom, BOT, Formula, Not, Or, print_formula


RULE_CATALOGUE = ("&I", "&E1", "&E2", "vI1", "vI2", "vE", "vE_MC",
                  "negI", "negE", "DN", "Refutation")

UNIVERSE_GUARD_DEPTH = 4
UNIVERSE_GUARD_BRUTE = 22


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
    rules = _check_rules(rules)
    out = []
    for f in u.sentences:
        if isinstance(f, And):
            a, b = f.left, f.right
            if "&I" in rules:
                out.append(RuleInstanceP("&I", (a, b), (), (f,)))
            if "&E1" in rules:
                out.append(RuleInstanceP("&E1", (f,), (), (a,)))
            if "&E2" in rules:
                out.append(RuleInstanceP("&E2", (f,), (), (b,)))
        elif isinstance(f, Or):
            a, b = f.left, f.right
            if "vI1" in rules:
                out.append(RuleInstanceP("vI1", (a,), (), (f,)))
            if "vI2" in rules:
                out.append(RuleInstanceP("vI2", (b,), (), (f,)))
            if "vE_MC" in rules:
                out.append(RuleInstanceP("vE_MC", (f,), (), (a, b)))
            if "vE" in rules:
                for c in u.sentences:
                    out.append(RuleInstanceP(
                        "vE", (f,), ((a, c), (b, c)), (c,)))
        elif isinstance(f, Not):
            a = f.body
            if "negI" in rules:
                out.append(RuleInstanceP("negI", (), ((a, BOT),), (f,)))
            if "negE" in rules and a in u:
                out.append(RuleInstanceP("negE", (a, f), (), (BOT,)))
            if "DN" in rules and isinstance(a, Not):
                out.append(RuleInstanceP("DN", (f,), (), (a.body,)))
    if "Refutation" in rules:
        out.append(RuleInstanceP(
            "Refutation", (conjunction_of(u.sentences),), (), ()))
    return out


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


def _subformulas(f):
    yield f
    if isinstance(f, Not):
        yield from _subformulas(f.body)
    elif isinstance(f, (And, Or)):
        yield from _subformulas(f.left)
        yield from _subformulas(f.right)


def _search_space(seed):
    """Formula space for proof search: subformula closure of the seed, plus
    excluded-middle scaffolding, plus one and two negations of everything."""
    s0 = set()
    for f in seed:
        s0.update(_subformulas(f))
    s0.add(BOT)
    s1 = set(s0) | {Or(f, Not(f)) for f in s0}
    return s1 | {Not(f) for f in s1} | {Not(Not(f)) for f in s1}


class Prover:
    """Depth-bounded proof search for the multiple-conclusion calculus,
    restricted to a fixed finite formula space."""

    def __init__(self, rules, space):
        self.rules = frozenset(_check_rules(rules))
        self.space = frozenset(space)
        self.memo = {}

    def _closure0(self, gamma):
        """Cheap forward closure under the elimination rules."""
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
        return frozenset(cl)

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
                nn = Not(Not(goal))
                if nn in self.space and self._prove(cl, nn, depth - 1):
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


def admissibility_clauses(rules, u: SentenceUniverse, depth: int):
    """CNF clauses (signed 1-based universe indices) whose models are exactly
    the admissible total valuations on the universe."""
    rules = _check_rules(rules)
    idx = {f: i + 1 for f, i in u.index.items()}
    clauses = set()

    def add(lits):
        clauses.add(tuple(sorted(set(lits))))

    for inst in rule_instances(rules, u):
        if inst.hyps or inst.rule == "Refutation":
            continue
        add([-idx[p] for p in inst.premises] +
            [idx[c] for c in inst.conclusions])

    space = _search_space(u.sentences)
    prover = Prover(rules, space)
    empty = frozenset()

    if "vE" in rules:
        for f in u.sentences:
            if isinstance(f, Or):
                ca = {c for c in u.sentences
                      if prover.proves(frozenset([f.left]), c, depth)}
                cb = {c for c in u.sentences
                      if prover.proves(frozenset([f.right]), c, depth)}
                for c in ca & cb:
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

    return sorted(clauses)


# ---------------------------------------------------------------------------
# DPLL


def dpll(clauses, nvars, assumptions=(), limit=None):
    """All models of the clause set, as tuples of booleans, in lexicographic
    order (False < True). `limit` caps the number of models collected."""
    models = []

    def propagate(assign, cls):
        cls = list(cls)
        changed = True
        while changed:
            changed = False
            new_cls = []
            for cl in cls:
                vals = []
                unassigned = []
                sat = False
                for lit in cl:
                    val = assign.get(abs(lit))
                    if val is None:
                        unassigned.append(lit)
                    elif (lit > 0) == val:
                        sat = True
                        break
                if sat:
                    continue
                if not unassigned:
                    return None, None
                if len(unassigned) == 1:
                    lit = unassigned[0]
                    assign[abs(lit)] = lit > 0
                    changed = True
                else:
                    new_cls.append(unassigned)
            cls = new_cls
        return assign, cls

    def search(assign, cls):
        assign, cls = propagate(assign, cls)
        if assign is None:
            return
        var = next((i for i in range(1, nvars + 1) if i not in assign), None)
        if var is None:
            models.append(tuple(assign[i] for i in range(1, nvars + 1)))
            return
        for val in (False, True):
            if limit is not None and len(models) >= limit:
                return
            a2 = dict(assign)
            a2[var] = val
            search(a2, cls)

    init = {}
    for l in assumptions:
        if init.get(abs(l), l > 0) != (l > 0):
            return []  # contradictory assumptions
        init[abs(l)] = l > 0
    search(init, clauses)
    return models


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


def admissible_valuations(rules, u: SentenceUniverse, derivability_depth=6,
                          method="auto", max_valuations=200000):
    """The admissible total valuations on the universe, as dicts, in
    lexicographic order of their truth vectors.

    'brute' enumerates all 2^|u| assignments (guard |u| <= 22); 'sat'
    enumerates models of the admissibility clauses directly.
    """
    clauses = admissibility_clauses(rules, u, derivability_depth)
    n = len(u)
    if method == "auto":
        method = "brute" if n <= 14 else "sat"
    if method == "brute":
        if n > UNIVERSE_GUARD_BRUTE:
            raise GuardError(f"universe of {n} sentences exceeds brute-force "
                             f"guard {UNIVERSE_GUARD_BRUTE}")
        out = []
        for bits in itertools.product((False, True), repeat=n):
            assign = dict(zip(u.sentences, bits))
            if clauses_satisfied(assign, u, clauses):
                out.append(assign)
        return out
    models = dpll(clauses, n, limit=max_valuations + 1)
    if len(models) > max_valuations:
        raise GuardError("admissible set exceeds enumeration cap "
                         f"{max_valuations}; use forcing queries instead")
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
    atoms = {g for g in _subformulas(f) if isinstance(g, Atom)}
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
    every instantiating sentence pair of the universe."""
    rules = _check_rules(rules)
    clauses = admissibility_clauses(rules, u, depth)
    n = len(u)
    idx = {f: i + 1 for f, i in u.index.items()}
    kind = {"&": And, "|": Or, "~": Not}[connective]

    rows = _ROWS2 if connective in "&|" else ((True,), (False,))
    verdicts = []
    for row in rows:
        can_true = False
        can_false = False
        found_instance = False
        for f in u.sentences:
            if not isinstance(f, kind):
                continue
            parts = (f.left, f.right) if connective in "&|" else (f.body,)
            found_instance = True
            assume = [idx[p] if val else -idx[p] for p, val in zip(parts, row)]
            if not satisfiable(clauses, n, assume):
                continue  # row not realizable for this pair: no evidence
            if satisfiable(clauses, n, assume + [idx[f]]):
                can_true = True
            if satisfiable(clauses, n, assume + [-idx[f]]):
                can_false = True
            if can_true and can_false:
                break
        if not found_instance:
            verdicts.append("unforced")
        elif can_true and can_false:
            verdicts.append("unforced")
        elif can_true:
            verdicts.append("forced-true")
        elif can_false:
            verdicts.append("forced-false")
        else:
            verdicts.append("unforced")  # row never realizable
    return {row: v for row, v in zip(rows, verdicts)}
