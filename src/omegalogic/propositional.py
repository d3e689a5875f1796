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
a membership test over the universe's subformula closure, which decides the
excluded-middle and negation scaffolding around it by node identity without
building it; the universe makes it at its first compile and keeps it for
the others, together with the classical cut's masks below, which no rule
set changes. The prover works out the forward closure of each assumption
set once, and the vE clauses ask each distinct disjunct, not each
disjunction, which sentences it proves.

Most of the prover's goals are underivable, and it cuts those that some
classical atom assignment refutes (a true closure, a false goal) before
searching: every rule is classically sound, so the cut changes no answer.
This is the diagram filter of Gelernter's geometry machine (1959), with a
truth table in place of the diagram. The compile asks the prover only the
goals the cut leaves open (`Prover.open_goals`): for theorems, the
sentences true under every assignment; for negI, the bodies true under
none; for vE, the sentences true wherever the disjunct is.

Most admissibility clauses have two literals, and the solver keeps each as
a pair of implications that propagation follows directly; a decision whose
false literal no clause reads skips propagation altogether, and a
first-model search decides only the variables some clause mentions, since
the first model sets every other one False. A truth-table query (at most
three literals) reaches the solver only when two exact shortcuts fail:
a query whose negation contains a whole clause falsifies it, found by at
most seven lookups in the set of clauses (unit propagation's first step);
and a model that any table over the same clause set found earlier, kept
as a bitmask on the loaded solver, answers a query it meets with two
integer ANDs.
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
CUT_ATOMS = 12  # the prover's cut tries at most 2^12 atom assignments


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
        text = {f: print_formula(f) for layer in layers for f in layer}
        self.sentences = tuple(sorted(
            text, key=lambda f: (len(text[f]), text[f])))
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
    """Truth value of f under the valuation v (a dict, or a callable that
    gives None where it assigns nothing) in strong Kleene logic (Kleene
    1952, *Introduction to Metamathematics* §64), None for unknown: a
    sentence v assigns has that value; an unassigned `~`, `&` or `|` takes
    the value of its parts, each read the same way, so one false conjunct or
    one true disjunct settles it; an unassigned ⋏ is false; anything else
    left unassigned is None."""
    b = v(f) if callable(v) else v.get(f)
    if b is not None:
        return b
    if isinstance(f, Not):
        b = value_of(v, f.body)
        return None if b is None else not b
    if isinstance(f, (And, Or)):
        settles = isinstance(f, Or)  # the part value that settles f
        parts = (value_of(v, f.left), value_of(v, f.right))
        if settles in parts:
            return settles
        return None if None in parts else not settles
    return False if isinstance(f, Absurd) else None


def _truth(v, f: Formula):
    """`value_of` for the two-valued callers: unknown raises KeyError."""
    b = value_of(v, f)
    if b is None:
        raise KeyError(f)
    return b


def rule_sound(v, inst: RuleInstanceP, derivability_oracle=None) -> bool:
    """Soundness of one instance under v: true premises and holding
    hypothetical-derivability facts force at least one true conclusion."""
    for a, c in inst.hyps:
        if derivability_oracle is None or not derivability_oracle(a, c):
            return True  # fact does not hold: vacuously sound
    for p in inst.premises:
        if not _truth(v, p):
            return True
    return any(_truth(v, c) for c in inst.conclusions)


# ---------------------------------------------------------------------------
# Bounded derivability (goal-directed, memoized)


@dataclass(frozen=True)
class Derivability:
    decided: Optional[bool]  # None = undecided at the bound
    depth_bound: int


class _Space:
    """The prover's formula space as a membership test: the subformula
    closure of a seed, ⋏ added, widened with excluded-middle scaffolding
    `f | ~f` for each f in the closure, and one and two negations of the
    closure and of that scaffolding. Hash-consed nodes make the test one of
    identity, so no scaffolding node is built to answer it.

    The space also keeps the classical cut's masks (see `Prover`): which
    atom assignments make each formula true depends on no rule set, so
    every prover over the space shares them. The first CUT_ATOMS atoms of
    the closure in printed order get a bit each; the others are false in
    every assignment tried, so each is still a real one."""

    __slots__ = ("closure", "masks", "true")

    def __init__(self, closure):
        self.closure = closure  # a frozenset, subformula closed, ⋏ in it
        # every atom of the space is in the closure it widens
        atoms = sorted((g for g in closure
                        if not isinstance(g, (Not, And, Or, Absurd))),
                       key=print_formula)[:CUT_ATOMS]
        width = 1 << len(atoms)  # assignment j makes atom i true iff bit i
        self.true = (1 << width) - 1  # the mask of every assignment
        self.masks = {}  # formula -> the assignments that make it true
        for i, atom in enumerate(atoms):
            period = 1 << (i + 1)
            half = ((1 << (1 << i)) - 1) << (1 << i)
            self.masks[atom] = half * (self.true // ((1 << period) - 1))

    def widened(self, f):
        """Is f in the closure or the scaffolding `g | ~g` over it? The
        space holds ~~f exactly when this holds."""
        if f in self.closure:
            return True
        if isinstance(f, Or):
            right = f.right
            return isinstance(right, Not) and right.body is f.left and \
                f.left in self.closure
        return False

    def __contains__(self, f):
        if self.widened(f):
            return True
        if not isinstance(f, Not):
            return False
        f = f.body
        return self.widened(f) or isinstance(f, Not) and self.widened(f.body)

    def mask(self, f):
        """The assignments that make f true, found without recursion."""
        masks = self.masks
        m = masks.get(f)
        if m is not None:
            return m
        todo, new = [f], []  # new: the parts without a mask, wholes first
        while todo:
            g = todo.pop()
            if g not in masks:
                new.append(g)
                if isinstance(g, Not):
                    todo.append(g.body)
                elif isinstance(g, (And, Or)):
                    todo += (g.left, g.right)
        for g in reversed(new):
            if isinstance(g, Not):
                masks[g] = self.true ^ masks[g.body]
            elif isinstance(g, And):
                masks[g] = masks[g.left] & masks[g.right]
            elif isinstance(g, Or):
                masks[g] = masks[g.left] | masks[g.right]
            else:
                masks[g] = 0  # ⋏, and an atom without a bit: false
        return masks[f]


def _search_space(seed):
    """The formula space for proof search over the seed (see `_Space`)."""
    closure = {BOT}
    todo = list(seed)
    while todo:
        f = todo.pop()
        if f not in closure:  # a member's subformulas are in already
            closure.add(f)
            if isinstance(f, Not):
                todo.append(f.body)
            elif isinstance(f, (And, Or)):
                todo += (f.left, f.right)
            elif not isinstance(f, (Atom, Absurd)):  # quantified, say
                todo += [g for g in nodes(f) if isinstance(g, Formula)]
    return _Space(frozenset(closure))


class Prover:
    """Depth-bounded proof search for the multiple-conclusion calculus,
    restricted to a fixed finite formula space.

    Proofs are memoized per (closed assumption set, goal, depth), and the
    forward closure of each assumption set is worked out once per prover.

    A goal false in some classical model of its closed assumptions is cut
    (memoized False) before any search. The cut is exact, because every
    step the prover takes (&I, vI1/2, vE, negI, negE, DN, the eliminations
    of the closure, and vE_MC in `proves_set`) is classically sound, so such
    a goal is underivable at every depth. A model is an atom assignment,
    any node that is not `~`, `&`, `|` or ⋏ counting as an atom: each
    formula has the bitmask of the assignments that make it true, kept on
    the space, and each closure the AND of its members' masks, kept on the
    prover, since the closure depends on the rules. `open_goals` lets a
    caller skip the goals the cut refutes. A new rule must be classically
    sound, which `test_every_rule_instance_is_classically_sound` checks,
    or the cut would lose its proofs."""

    def __init__(self, rules, space):
        self.rules = frozenset(_check_rules(rules))
        self.space = space  # a `_search_space`, which keeps the masks
        self.mask = space.mask
        # goal -> ~~goal when the space holds it, else False; filled lazily
        self.double = {}
        self.memo = {}
        self.closures = {}  # assumption set -> its closure
        self.models = {}  # closure -> the assignments making it all true

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
        if done not in self.models:
            m = self.space.true
            for f in done:
                m &= self.mask(f)
            self.models[done] = m
        return done

    def proves(self, gamma: frozenset, goal: Formula, depth: int) -> bool:
        cl = self._closure0(gamma)
        return self._prove(cl, goal, depth)

    def open_goals(self, gamma: frozenset, goals):
        """The goals the cut leaves to search from gamma, in order: those
        true in every model of gamma's closure. `proves` answers False for
        every other goal at every depth, so a caller may skip asking it."""
        models = self.models[self._closure0(gamma)]
        mask = self.mask
        return [g for g in goals if not models & ~mask(g)]

    def _prove(self, cl, goal, depth):
        key = (cl, goal, depth)
        if key in self.memo:
            return self.memo[key]
        if self.models[cl] & ~self.mask(goal):
            result = False  # a model of cl falsifies the goal
        else:
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
                if nn is None:
                    nn = self.double[goal] = \
                        self.space.widened(goal) and Not(Not(goal))
                if nn and self._prove(cl, nn, depth - 1):
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
    variables) that keeps the solver `dpll` loads with it, for one number
    of variables at a time, and the set of its clauses for `falsified`."""

    def solver(self, nvars):
        solver = self.__dict__.get("_solver")
        if solver is None or solver.nvars != nvars:
            solver = self._solver = _Solver(self, nvars)
        return solver

    @cached_property
    def _members(self):
        return frozenset(tuple(sorted(set(clause))) for clause in self)

    def falsified(self, lits):
        """Does some clause have only literals whose negations are among
        `lits`, so that no model meets them all? This is unit propagation's
        first step, asked as one lookup per nonempty subset of the negated
        literals: 2^len(lits) - 1 of them, so meant for a few literals."""
        negated = sorted({-lit for lit in lits})
        members = self._members
        for size in range(1, len(negated) + 1):
            for sub in itertools.combinations(negated, size):
                if sub in members:
                    return True
        return False


def admissibility_clauses(rules, u: SentenceUniverse, depth: int):
    """CNF clauses (signed 1-based universe indices) whose models are exactly
    the admissible total valuations on the universe, as a `ClauseSet`.

    Compiled once per set of rules and depth; the universe keeps the result,
    so rule order and repetition do not matter. Within a compile the prover
    asks each distinct vE disjunct about every sentence once and caches each
    closure, over a search space (with the cut's masks) the universe builds
    once for all its compiles. A question the cut answers is not asked;
    every other one goes through `Prover.proves`."""
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
                        follows[a] = {
                            c for c in prover.open_goals(gamma, u.sentences)
                            if prover.proves(gamma, c, depth)}
                for c in follows[f.left] & follows[f.right]:
                    add([-idx[f], idx[c]])

    if "negI" in rules:
        for f in u.sentences:
            if isinstance(f, Not):
                gamma = frozenset((f.body,))
                if prover.open_goals(gamma, (BOT,)) and \
                        prover.proves(gamma, BOT, depth):
                    add([idx[f]])

    # theorems of the bounded calculus must be true
    for s in prover.open_goals(empty, u.sentences):
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

    A clause of two literals is kept as two implications: `implied[a]` lists
    the literals that must be true once a is false (Aspvall, Plass and Tarjan
    1979). Each longer clause watches its first two literals (Moskewicz et
    al. 2001, "Chaff"), so propagation visits only the clauses watching a
    literal that just became false, and backtracking leaves the watches as
    they are. A decision whose false literal has no implication and no watch
    propagates nothing, and skips propagation. Unit clauses and what they
    imply stay assigned at the root between calls (Eén and Sörensson 2003,
    "An Extensible SAT-solver").

    A first-model search decides only the variables some clause mentions
    (`live`): the others constrain nothing, so the lexicographically first
    model sets each one the assumptions leave open False. The solver also
    keeps, as bitmasks, the models `determined_truth_table` has found
    (`found`); they are models of this clause set over these variables, so
    every table over it may read them."""

    def __init__(self, clauses, nvars):
        self.nvars = nvars
        self.found = []  # models found by truth tables, as `_model_mask`s
        # value[lit] is the truth of a signed literal, None while unassigned:
        # slot v holds +v and, by negative indexing, slot -v holds -v
        self.value = [None] * (2 * nvars + 1)
        self.implied = implied = [[] for _ in range(2 * nvars + 1)]
        self.watches = [[] for _ in range(2 * nvars + 1)]
        self.trail = []  # true literals, in assignment order
        self.head = 0  # trail[:head] has been propagated
        self.ok = True  # False once the root level is contradictory
        units = []
        lits = set().union(*clauses)
        self._check_range(lits)
        self.live = sorted({abs(lit) for lit in lits})  # mentioned variables
        for clause in clauses:
            if len(clause) != 2 or clause[0] in (clause[1], -clause[1]):
                members = set(clause)
                if any(-lit in members for lit in members):
                    continue  # a tautology constrains nothing
                if len(members) < len(clause):
                    clause = tuple(dict.fromkeys(clause))  # merge repeats
            if len(clause) == 2:
                a, b = clause
                implied[a].append(b)
                implied[b].append(a)
            elif len(clause) == 1:
                units.append(clause[0])
            elif clause:
                clause = list(clause)
                self.watches[clause[0]].append(clause)
                self.watches[clause[1]].append(clause)
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
        nvars = self.nvars
        if lits and (0 in lits or min(lits) < -nvars or max(lits) > nvars):
            lit = next(lit for lit in lits if not 0 < abs(lit) <= nvars)
            raise ValueError(f"literal {lit} outside variables 1..{nvars}")

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
        value, implied, watches, trail = \
            self.value, self.implied, self.watches, self.trail
        head = self.head
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            for lit in implied[false_lit]:
                b = value[lit]
                if b is None:
                    value[lit] = True
                    value[-lit] = False
                    trail.append(lit)
                elif not b:
                    self.head = head
                    return False
            watching = watches[false_lit]
            if not watching:
                continue
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
        `limit` of them; the solver is back at its root state afterwards.
        With `limit == 1` only the live variables are decided."""
        self._check_range(assumptions)
        models = []
        if not self.ok:
            return models
        value, trail, nvars = self.value, self.trail, self.nvars
        implied, watches = self.implied, self.watches
        sparse = limit == 1
        order = self.live if sparse else range(1, nvars + 1)  # to decide
        size = len(order)
        decisions = []  # (trail length before, place in order, True branch)
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
                    mark, place, _ = decisions.pop()
                    self._undo(mark)
                    decisions.append((mark, place, True))
                    lit = order[place]
                else:
                    # every variable before the last decision is assigned
                    place = decisions[-1][1] + 1 if decisions else 0
                    while place < size and value[order[place]] is not None:
                        place += 1
                    if place == size:
                        model = value[1:nvars + 1]
                        if sparse:  # an undecided variable is False
                            model = [b is True for b in model]
                        models.append(tuple(model))
                        if limit is not None and len(models) >= limit:
                            return models
                        conflict = True  # backtrack to the next model
                        continue
                    decisions.append((len(trail), place, False))
                    lit = -order[place]
                value[lit] = True
                value[-lit] = False
                trail.append(lit)
                if implied[-lit] or watches[-lit]:
                    conflict = not self._propagate()
                else:  # nothing reads -lit: no propagation to do
                    self.head += 1
                    conflict = False
        finally:
            self._undo(self.root)


def dpll(clauses, nvars, assumptions=(), limit=None):
    """All models of the clause set under the assumptions, as tuples of
    booleans, in lexicographic order (False < True). `limit` caps the number
    of models collected.

    The search is iterative: propagate with two watched literals, branch on
    the lowest unassigned variable (False first), and backtrack
    chronologically; with `limit=1` it branches only on the variables some
    clause mentions and sets the others False, which gives the same first
    model. A `ClauseSet` keeps its loaded solver, so repeated calls on it
    with the same `nvars` skip the load; any other clause list is loaded
    afresh."""
    if isinstance(clauses, ClauseSet):
        solver = clauses.solver(nvars)
    else:
        solver = _Solver(tuple(clauses), nvars)
    return solver.solve(tuple(assumptions), limit)


def satisfiable(clauses, nvars, assumptions=()):
    return bool(dpll(clauses, nvars, assumptions, limit=1))


def clauses_satisfied(v, u: SentenceUniverse, clauses) -> bool:
    assign = [bool(_truth(v, s)) for s in u.sentences]
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
    """Every two-valued assignment to the atoms, as a dict that `value_of`
    extends compositionally (⋏ reads false)."""
    for bits in itertools.product((False, True), repeat=len(atoms)):
        yield dict(zip(atoms, bits))


def is_tautology(f: Formula) -> bool:
    atoms = {g for g in nodes(f) if isinstance(g, Atom)}
    return all(_truth(v, f) for v in _atom_valuations(tuple(atoms)))


def v_top(f: Formula) -> bool:
    """The trivial valuation: every sentence true."""
    return True


def v_tautology(f: Formula) -> bool:
    """True exactly on truth-table tautologies."""
    return is_tautology(f)


def classical_valuations(u: SentenceUniverse):
    """The truth-table valuations over the atom assignments, ⋏ false."""
    return [{s: _truth(v, s) for s in u.sentences}
            for v in _atom_valuations(tuple(Atom(a) for a in u.atoms))]


# ---------------------------------------------------------------------------
# Truth-table determination


_ROWS2 = ((True, True), (True, False), (False, True), (False, False))
_BITS = bytes.maketrans(b"\0\1", b"01")


def _model_mask(model):
    """A model (a tuple of booleans) as the bitmask with bit n - v set when
    variable v is true, n the model's length."""
    return int(bytes(model).translate(_BITS), 2)


def determined_truth_table(connective, rules, u: SentenceUniverse,
                           depth: int = 6):
    """Per row: 'forced-true' | 'forced-false' | 'unforced', aggregated over
    every instantiating sentence pair of the universe.

    A row is forced when some instance realizes it with the compound on one
    side and none with the compound on the other. Each side needs one model
    of the clauses under the row's assumptions, at most three literals; a
    side already seen for the row is not asked again. Two shortcuts answer
    most queries without a solve, and neither can change an answer:
    a query that falsifies a clause outright (`ClauseSet.falsified`) has no
    model, and a model found earlier that meets a query's assumptions is
    one. Found models are kept as bitmasks on the clause set's loaded
    solver, so every table over the same clauses and universe shares them,
    and each query is two bitmasks, the variables it needs true and those
    it needs false."""
    rules = _check_rules(rules)
    clauses = admissibility_clauses(rules, u, depth)
    n = len(u)
    found = clauses.solver(n).found
    idx = {f: i + 1 for f, i in u.index.items()}
    kind = {"&": And, "|": Or, "~": Not}[connective]
    instances = []  # (the compound's variable, its parts' variables)
    for f in u.sentences:
        if isinstance(f, kind):
            parts = (f.left, f.right) if connective in "&|" else (f.body,)
            instances.append((idx[f], [idx[p] for p in parts]))

    def realizable(assume):
        if clauses.falsified(assume):
            return False
        true = false = 0
        for lit in assume:
            if lit > 0:
                true |= 1 << (n - lit)
            else:
                false |= 1 << (n + lit)
        for m in found:
            if m & true == true and not m & false:
                return True
        models = dpll(clauses, n, assume, limit=1)
        found.extend(_model_mask(m) for m in models)
        return bool(models)

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
