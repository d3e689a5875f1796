import itertools
import random
from types import SimpleNamespace

import pytest

from omegalogic import propositional
from omegalogic.syntax import (
    And, Atom, BOT, Const, Eq, Forall, Formula, Not, Or, Var, nodes,
)
from omegalogic.propositional import (
    ClauseSet, GuardError, RuleInstanceP, admissible_valuations,
    admissibility_clauses, classical_valuations, clauses_satisfied,
    conjunction_of, derivable, determined_truth_table, dpll, is_admissible,
    rule_instances, rule_sound, satisfiable, sentence_universe, v_tautology,
    v_top,
)

P, Q = Atom("p"), Atom("q")

FULL = ("&I", "&E1", "&E2", "vI1", "vI2", "vE", "vE_MC",
        "negI", "negE", "DN", "Refutation")


def test_universe_depth0():
    u = sentence_universe(["p"], 0)
    assert set(u.sentences) == {BOT, P}


def test_universe_depth1_count():
    # base 2, negations 2, conjunctions 4, disjunctions 4
    u = sentence_universe(["p"], 1)
    assert len(u) == 12
    assert Not(P) in u and And(P, P) in u and Or(P, P) in u and And(P, BOT) in u


def test_universe_two_atoms_depth1_count():
    # base 3, negations 3, binaries 2 * 9
    assert len(sentence_universe(["p", "q"], 1)) == 24


def test_universe_guard():
    with pytest.raises(GuardError):
        sentence_universe(["p", "q"], 5)


def test_universe_subformula_closed():
    u = sentence_universe(["p", "q"], 1)
    for f in u.sentences:
        for child in (getattr(f, "left", None), getattr(f, "right", None),
                      getattr(f, "body", None)):
            if child is not None:
                assert child in u


def test_derivable_conjunction_intro():
    r = derivable(["&I"], [P, Q], [And(P, Q)], 2)
    assert r.decided is True


def test_derivable_ve_mc_split():
    r = derivable(["vE_MC"], [Or(P, Q)], [P, Q], 3)
    assert r.decided is True


def test_derivable_excluded_middle():
    r = derivable(["vI1", "vI2", "negI", "negE", "DN"], [], [Or(P, Not(P))], 6)
    assert r.decided is True


def test_not_derivable_without_hypothetical_rules():
    r = derivable(["&I", "&E1", "&E2"], [P], [Q], 4)
    assert r.decided is False  # saturation complete, so a definite no


def test_undecided_at_low_depth():
    r = derivable(["vI1", "vI2", "negI", "negE", "DN"], [], [Or(P, Not(P))], 1)
    assert r.decided is None


def test_rule_sound_examples():
    u = sentence_universe(["p"], 1)
    neg_e = RuleInstanceP("negE", (P, Not(P)), (), (BOT,))
    assert rule_sound(v_top, neg_e)
    refutation = RuleInstanceP(
        "Refutation", (conjunction_of(u.sentences),), (), ())
    assert not rule_sound(v_top, refutation)
    # v^|- on a vE_MC instance whose premise is a theorem
    ve_mc = RuleInstanceP("vE_MC", (Or(P, Not(P)),), (), (P, Not(P)))
    assert not rule_sound(v_tautology, ve_mc)


def test_value_of_is_strong_kleene():
    assert propositional.value_of({Q: False}, And(P, Q)) is False
    assert propositional.value_of({P: True}, Or(Q, P)) is True
    assert propositional.value_of({P: True}, And(P, Q)) is None
    assert propositional.value_of({}, Not(Or(Q, BOT))) is None
    assert propositional.value_of({}, BOT) is False
    # an assigned compound is read as assigned, not from its parts
    assert propositional.value_of({P: False, And(P, Q): True}, And(P, Q))
    assert propositional.value_of(lambda f: None, Not(BOT)) is True


def test_two_valued_callers_raise_on_unknown():
    """A sentence the valuation leaves unknown raises KeyError in the
    two-valued callers; it never counts as false."""
    unknown = lambda f: None  # noqa: E731
    with pytest.raises(KeyError):
        rule_sound({Q: True}, RuleInstanceP("&I", (P, Q), (), (And(P, Q),)))
    with pytest.raises(KeyError):
        rule_sound(unknown, RuleInstanceP("negE", (P, Not(P)), (), (BOT,)))
    u = sentence_universe(["p"], 0)
    with pytest.raises(KeyError):
        clauses_satisfied(unknown, u, [(1, 2)])
    a = Const("a", "S")
    with pytest.raises(KeyError):  # no atom assignment values `a = a`
        propositional.is_tautology(Or(P, Eq(a, a)))
    with pytest.raises(KeyError):
        classical_valuations(SimpleNamespace(atoms=("p",),
                                             sentences=(P, Or(P, Q))))


def test_conjunction_rules_force_meet():
    u = sentence_universe(["p", "q"], 1)
    vals = admissible_valuations(["&I", "&E1", "&E2"], u)
    for v in vals:
        for f in u.sentences:
            if isinstance(f, And):
                assert v[f] == (v[f.left] and v[f.right])


def test_classical_always_admissible():
    u = sentence_universe(["p", "q"], 1)
    clauses = admissibility_clauses(FULL, u, 6)
    for v in classical_valuations(u):
        assert clauses_satisfied(v, u, clauses)


def test_v_top_admissible_without_refutation():
    u = sentence_universe(["p"], 1)
    assert is_admissible(v_top, ["negI", "negE", "DN"], u)
    assert is_admissible(
        v_top, ["&I", "&E1", "&E2", "vI1", "vI2", "vE", "negI", "negE", "DN"], u)
    assert not is_admissible(v_top, ["negI", "negE", "DN", "Refutation"], u)


def test_v_tautology_admissible_until_ve_mc():
    u = sentence_universe(["p"], 1)
    base = ["vI1", "vI2", "vE", "negI", "negE", "DN"]
    assert is_admissible(v_tautology, base, u)
    assert not is_admissible(v_tautology, base + ["vE_MC"], u)


def test_v_tautology_admissible_with_disjunction_rules_only():
    u = sentence_universe(["p", "q"], 1)
    assert is_admissible(v_tautology, ["vI1", "vI2", "vE"], u)


def test_truth_table_conjunction_forced():
    u = sentence_universe(["p", "q"], 1)
    table = determined_truth_table("&", ["&I", "&E1", "&E2"], u)
    assert table == {(True, True): "forced-true",
                     (True, False): "forced-false",
                     (False, True): "forced-false",
                     (False, False): "forced-false"}


def test_truth_table_disjunction_row4_gap():
    u = sentence_universe(["p", "q"], 1)
    table = determined_truth_table("|", ["vI1", "vI2", "vE"], u)
    assert table[(True, True)] == "forced-true"
    assert table[(True, False)] == "forced-true"
    assert table[(False, True)] == "forced-true"
    assert table[(False, False)] == "unforced"


def test_truth_table_disjunction_restored():
    u = sentence_universe(["p", "q"], 1)
    table = determined_truth_table("|", FULL, u)
    assert table[(False, False)] == "forced-false"


def test_full_rules_leave_only_classical():
    u = sentence_universe(["p", "q"], 1)
    vals = admissible_valuations(FULL, u)
    expected = classical_valuations(u)
    assert len(vals) == len(expected) == 4
    canon = {tuple(v[s] for s in u.sentences) for v in expected}
    assert {tuple(v[s] for s in u.sentences) for v in vals} == canon


def test_adding_rules_shrinks_admissible_set():
    u = sentence_universe(["p"], 1)
    small = admissible_valuations(["&I"], u)
    bigger_rules = admissible_valuations(["&I", "&E1", "&E2"], u)
    small_keys = {tuple(v[s] for s in u.sentences) for v in small}
    assert {tuple(v[s] for s in u.sentences)
            for v in bigger_rules} <= small_keys


def brute_admissible(rules, u, depth=6):
    """Reference: every one of the 2^|u| assignments, in lexicographic
    order (False < True), kept when it satisfies the admissibility
    clauses."""
    clauses = admissibility_clauses(rules, u, depth)
    out = []
    for bits in itertools.product((False, True), repeat=len(u)):
        assign = dict(zip(u.sentences, bits))
        if clauses_satisfied(assign, u, clauses):
            out.append(assign)
    return out


# the rule sets of the prop-forcing benchmark workload, no rules, and a mix
ORACLE_RULE_SETS = (("&I", "&E1", "&E2"), ("vI1", "vI2", "vE"),
                    ("negI", "negE", "DN"), FULL, (),
                    ("&I", "&E1", "&E2", "negI", "negE", "DN"))


def test_brute_and_sat_agree():
    for depth in (0, 1):
        u = sentence_universe(["p"], depth)
        for rules in ORACLE_RULE_SETS:
            assert admissible_valuations(rules, u) == \
                brute_admissible(rules, u), (depth, rules)

# ---------------------------------------------------------------------------
# SAT against a brute-force enumerator


def brute_models(clauses, nvars, assumptions=(), limit=None):
    """Reference: every assignment in lexicographic order (False < True)
    that meets the assumptions and every clause, at most `limit`."""
    def holds(bits, lit):
        return bits[abs(lit) - 1] == (lit > 0)

    out = []
    for bits in itertools.product((False, True), repeat=nvars):
        if all(holds(bits, lit) for lit in assumptions) and all(
                any(holds(bits, lit) for lit in cl) for cl in clauses):
            out.append(bits)
            if limit is not None and len(out) >= limit:
                break
    return out


def _random_literal(rng, nvars):
    return rng.choice((-1, 1)) * rng.randint(1, nvars)


def _random_cnf(rng, nvars):
    """Clauses of 0 to 4 literals, with repeats and tautologies; an empty
    clause now and then, and only empty clauses over no variables."""
    clauses = []
    for _ in range(rng.randint(0, 3 * nvars + 2)):
        size = rng.choice((0, 1, 1, 2, 2, 3, 3, 3, 4)) if rng.random() < 0.05 \
            else rng.choice((1, 2, 2, 3, 3, 3, 4))
        if nvars == 0:
            size = 0
        clauses.append(tuple(_random_literal(rng, nvars)
                             for _ in range(size)))
    return clauses


def _random_assumptions(rng, nvars):
    if nvars == 0:
        return []
    out = [_random_literal(rng, nvars) for _ in range(rng.randint(0, 3))]
    if out and rng.random() < 0.3:
        out.append(rng.choice(out))  # repeated
    if out and rng.random() < 0.2:
        out.append(-rng.choice(out))  # contradictory
    return out


def test_dpll_matches_brute_force_on_random_cnfs():
    rng = random.Random(811)
    for case in range(600):
        nvars = case % 11
        clauses = _random_cnf(rng, nvars)
        loaded = ClauseSet(sorted(set(clauses)))
        for limit in (None, 1, 2, 5):
            assume = _random_assumptions(rng, nvars)
            want = brute_models(clauses, nvars, assume, limit)
            # a fresh load, and the solver a clause set keeps across calls
            assert dpll(clauses, nvars, assume, limit) == want, \
                (clauses, nvars, assume, limit)
            assert dpll(loaded, nvars, assume, limit) == want, \
                (clauses, nvars, assume, limit)
        assert dpll(loaded, nvars) == brute_models(clauses, nvars)


def test_dpll_edge_cases():
    assert dpll([], 0) == [()]
    assert dpll([()], 3) == []
    assert dpll([(1,), (-1,)], 2) == []
    assert dpll([(1, -1)], 1) == [(False,), (True,)]
    assert dpll([(2,)], 2, assumptions=(1, 1)) == [(True, True)]
    assert dpll([], 2, assumptions=(1, -1)) == []
    assert dpll([(1, 2)], 2, limit=2) == [(False, True), (True, False)]


def test_dpll_many_variables_without_recursion():
    assert dpll([], 1200, limit=1) == [(False,) * 1200]
    chain = [(-i, i + 1) for i in range(1, 1500)]
    assert dpll(chain, 1500, assumptions=(1,)) == [(True,) * 1500]
    assert not satisfiable(chain + [(-1500,)], 1500, (1,))


def _random_binary_cnf(rng, nvars):
    """Mostly two-literal clauses, some with a repeated literal or a
    literal and its negation; a few units and three-literal clauses."""
    clauses = []
    for _ in range(rng.randint(1, 2 * nvars + 2)):
        a, b = _random_literal(rng, nvars), _random_literal(rng, nvars)
        kind = rng.random()
        if kind < 0.1:
            b = a  # repeated
        elif kind < 0.2:
            b = -a  # complementary: a tautology
        elif kind < 0.3:
            clauses.append((a,))
            continue
        elif kind < 0.4:
            clauses.append((a, b, _random_literal(rng, nvars)))
            continue
        clauses.append((a, b))
    return clauses


def test_dpll_binary_clauses_match_brute_force():
    rng = random.Random(1919)
    for case in range(500):
        nvars = 1 + case % 10
        clauses = _random_binary_cnf(rng, nvars)
        loaded = ClauseSet(sorted(set(clauses)))
        for limit in (None, 1, 3):
            assume = _random_assumptions(rng, nvars)
            want = brute_models(clauses, nvars, assume, limit)
            assert dpll(clauses, nvars, assume, limit) == want, \
                (clauses, nvars, assume, limit)
            assert dpll(loaded, nvars, assume, limit) == want, \
                (clauses, nvars, assume, limit)
        assert dpll(loaded, nvars) == brute_models(clauses, nvars)


def reference_propagation(clauses, assumptions):
    """Reference: the literals unit propagation makes true from the
    assumptions, or None on a conflict."""
    true = set()
    for lit in assumptions:
        if -lit in true:
            return None
        true.add(lit)
    changed = True
    while changed:
        changed = False
        for cl in clauses:
            if any(lit in true for lit in cl):
                continue
            left = {lit for lit in cl if -lit not in true}
            if not left:
                return None
            if len(left) == 1:
                true |= left
                changed = True
    return true


def _propagated(solver, assumptions):
    """The literals a loaded solver makes true from the assumptions by
    propagation, or None on a conflict; the solver is back at its root
    state afterwards."""
    try:
        if not solver.ok:
            return None
        for lit in assumptions:
            if solver.value[lit] is False:
                return None
            if solver.value[lit] is None:
                solver._assign(lit)
        return set(solver.trail) if solver._propagate() else None
    finally:
        solver._undo(solver.root)


def test_binary_propagation_reaches_the_unit_fixpoint():
    """Dropping one direction of a binary clause's implications loses no
    model (the other direction still meets the conflict) but leaves forced
    literals unassigned; the propagated state shows it."""
    rng = random.Random(1920)
    for case in range(500):
        nvars = 1 + case % 10
        clauses = _random_binary_cnf(rng, nvars)
        assume = _random_assumptions(rng, nvars)
        want = reference_propagation(clauses, assume)
        for load in (clauses, ClauseSet(sorted(set(clauses)))):
            solver = propositional._Solver(load, nvars)
            assert _propagated(solver, assume) == want, \
                (clauses, nvars, assume)


@pytest.mark.parametrize("bad", [0, 4, -4])
def test_dpll_rejects_literals_out_of_range(bad):
    """Literal 0 and +-(nvars + 1), in clauses of one, two and three
    literals and in assumptions, on a fresh load and a clause set's."""
    nvars = 3
    for clause in ((bad,), (1, bad), (bad, -2), (-1, 2, bad)):
        clauses = [(1, -2), clause]
        with pytest.raises(ValueError):
            dpll(clauses, nvars)
        with pytest.raises(ValueError):
            dpll(ClauseSet(sorted(clauses)), nvars)
    for assume in ((bad,), (1, bad)):
        with pytest.raises(ValueError):
            dpll([(1, -2)], nvars, assume)
        with pytest.raises(ValueError):
            dpll(ClauseSet([(1, -2)]), nvars, assume)


# ---------------------------------------------------------------------------
# Truth tables against the three-query reference


def reference_table(connective, rules, u, depth=6):
    """Reference: per instance and row, one satisfiability query for the
    row, then one for each value of the compound."""
    clauses = admissibility_clauses(rules, u, depth)
    n = len(u)
    idx = {f: i + 1 for f, i in u.index.items()}
    kind = {"&": And, "|": Or, "~": Not}[connective]
    rows = (list(itertools.product((True, False), repeat=2))
            if connective in "&|" else [(True,), (False,)])
    verdicts = {}
    for row in rows:
        can_true = can_false = False
        for f in u.sentences:
            if not isinstance(f, kind):
                continue
            parts = (f.left, f.right) if connective in "&|" else (f.body,)
            assume = [idx[p] if val else -idx[p] for p, val in zip(parts, row)]
            if not satisfiable(clauses, n, assume):
                continue
            if satisfiable(clauses, n, assume + [idx[f]]):
                can_true = True
            if satisfiable(clauses, n, assume + [-idx[f]]):
                can_false = True
            if can_true and can_false:
                break
        if can_true == can_false:
            verdicts[row] = "unforced"
        else:
            verdicts[row] = "forced-true" if can_true else "forced-false"
    return verdicts


@pytest.mark.parametrize("atoms,depth", [(["p"], 0), (["p"], 1), (["p"], 2),
                                         (["p", "q"], 1),
                                         (["p", "q", "r"], 1)])
def test_truth_tables_match_reference(atoms, depth):
    for rules in ORACLE_RULE_SETS:
        u = sentence_universe(atoms, depth)
        for connective in "&|~":
            assert determined_truth_table(connective, rules, u) == \
                reference_table(connective, rules, u), (rules, connective)


# ---------------------------------------------------------------------------
# One clause compile per universe, rule set and depth


def test_clauses_compile_once_per_universe():
    u = sentence_universe(["p"], 1)
    rules = ("&I", "&E1", "&E2")
    first = admissibility_clauses(rules, u, 6)
    assert admissibility_clauses(rules, u, 6) is first
    assert admissibility_clauses(("&E2", "&I", "&E1", "&I"), u, 6) is first
    assert first == admissibility_clauses(rules, sentence_universe(["p"], 1), 6)


def test_clauses_keyed_by_depth():
    u = sentence_universe(["p"], 1)
    shallow = admissibility_clauses(FULL, u, 1)
    deep = admissibility_clauses(FULL, u, 6)
    assert len(shallow) < len(deep)  # deeper proofs give more theorems
    fresh = sentence_universe(["p"], 1)
    assert shallow == admissibility_clauses(FULL, fresh, 1)
    assert deep == admissibility_clauses(FULL, fresh, 6)


def test_clauses_are_immutable():
    clauses = admissibility_clauses(FULL, sentence_universe(["p"], 1), 6)
    assert isinstance(clauses, tuple)
    assert all(isinstance(cl, tuple) for cl in clauses)
    with pytest.raises(TypeError):
        clauses[0] = (1,)
    with pytest.raises(AttributeError):
        clauses.append((1,))


# ---------------------------------------------------------------------------
# The clause compile against the plain one


def reference_space(seed):
    """Reference: the prover's formula space built as a set, the subformula
    closure of the seed, plus excluded-middle scaffolding, plus one and two
    negations of everything."""
    s0 = set()
    for f in seed:
        s0.update(g for g in nodes(f) if isinstance(g, Formula))
    s0.add(BOT)
    s1 = s0 | {Or(f, Not(f)) for f in s0}
    return frozenset(s1 | {Not(f) for f in s1} | {Not(Not(f)) for f in s1})


def _assert_space_matches_reference(seed):
    space = propositional._search_space(seed)
    want = reference_space(seed)
    for f in want:
        assert f in space, f
        # near misses: a disjunction with the wrong negation, its mirror
        # image, and a third negation
        assert (Or(Not(f), f) in space) == (Or(Not(f), f) in want), f
        assert (Not(Not(Not(f))) in space) == (Not(Not(Not(f))) in want), f
    closure = sorted(space.closure, key=propositional.print_formula)
    for f, g in zip(closure, closure[1:] + closure[:1]):
        if f is not g:
            assert (Or(f, Not(g)) in space) == (Or(f, Not(g)) in want), (f, g)


@pytest.mark.parametrize("atoms,depth", [(["a"], 1), (["a", "b"], 1),
                                         (["a", "b", "c"], 1),
                                         (["a", "b", "c", "d"], 1),
                                         (["a", "b", "c", "d", "e"], 1),
                                         (["p"], 2)])
def test_search_space_matches_reference_on_universes(atoms, depth):
    u = sentence_universe(atoms, depth)
    _assert_space_matches_reference(u.sentences)
    assert u._space.closure == frozenset(u.sentences)


def test_search_space_matches_reference_on_derivable_seeds():
    rng = random.Random(1919)
    atoms = [P, Q, Atom("r")]
    for _ in range(200):
        seed = [_random_formula(rng, atoms, rng.randint(0, 4))
                for _ in range(rng.randint(0, 4))]
        _assert_space_matches_reference(seed)


def test_search_space_keeps_the_subformulas_of_other_nodes():
    """A quantified formula or an equation counts as an atom to the prover,
    and its subformulas are in the space as in the reference."""
    c = Const("c", "S")
    body = Or(Atom("R", (Var("x", "S"),)), Not(Eq(c, c)))
    seed = [Forall(Var("x", "S"), body), And(P, Eq(c, c))]
    _assert_space_matches_reference(seed)
    assert body in propositional._search_space(seed)


def reference_closure(rules, gamma):
    """Reference: the forward closure under &E1, &E2, DN and negE, built
    round by round to its fixpoint, with no cache."""
    cl = set(gamma)
    while True:
        new = set()
        for f in cl:
            if isinstance(f, And):
                new |= {g for r, g in (("&E1", f.left), ("&E2", f.right))
                        if r in rules}
            elif isinstance(f, Not):
                if "DN" in rules and isinstance(f.body, Not):
                    new.add(f.body.body)
                if "negE" in rules and f.body in cl:
                    new.add(BOT)
        if new <= cl:
            return frozenset(cl)
        cl |= new


class UncutProver(propositional.Prover):
    """The prover without the classical cut: the memo, then the search."""

    def _prove(self, cl, goal, depth):
        key = (cl, goal, depth)
        if key not in self.memo:
            self.memo[key] = self._prove_inner(cl, goal, depth)
        return self.memo[key]


class UncachedProver(UncutProver):
    """The prover without the cut, with every closure worked out afresh."""

    def _closure0(self, gamma):
        return reference_closure(self.rules, gamma)


def reference_clauses(rules, u, depth):
    """Reference: the plain compile. Every rule instance is built and those
    with hypothetical premises skipped, each disjunction asks both its
    disjuncts about every sentence, and each call builds its own search
    space and an uncached prover."""
    idx = {f: i + 1 for f, i in u.index.items()}
    clauses = set()

    def add(lits):
        clauses.add(tuple(sorted(set(lits))))

    for inst in rule_instances(rules, u):
        if inst.hyps or inst.rule == "Refutation":
            continue
        add([-idx[p] for p in inst.premises] +
            [idx[c] for c in inst.conclusions])
    prover = UncachedProver(rules, propositional._search_space(u.sentences))
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
    for s in u.sentences:
        if prover.proves(empty, s, depth):
            add([idx[s]])
    if "vE_MC" in rules:
        for s in u.sentences:
            ns = Not(s)
            if ns in u and prover.proves(empty, Or(s, ns), depth):
                add([idx[s], idx[ns]])
    if "Refutation" in rules:
        add([-idx[s] for s in u.sentences])
        add([-idx[BOT]])
    return ClauseSet(sorted(clauses))


def _assert_compiles_match(rules, u, depth):
    got = admissibility_clauses(rules, u, depth)
    assert tuple(got) == tuple(reference_clauses(rules, u, depth)), \
        (rules, u.atoms, u.depth, depth)


@pytest.mark.parametrize("atoms,depth", [(["p"], 0), (["p"], 1), (["p"], 2),
                                         (["p", "q"], 1),
                                         (["p", "q", "r"], 1)])
def test_clauses_match_reference(atoms, depth):
    u = sentence_universe(atoms, depth)
    for rules in ORACLE_RULE_SETS:
        _assert_compiles_match(rules, u, 6)


# the rule sets of the prop-forcing workload, at its proof depth
BENCH_RULE_SETS = (("&I", "&E1", "&E2"), ("vI1", "vI2", "vE"),
                   ("negI", "negE", "DN"), FULL)


@pytest.mark.parametrize("atoms", [["a", "b", "c", "d"],
                                   ["a", "b", "c", "d", "e"]])
def test_clauses_match_reference_on_bench_universes(atoms):
    u = sentence_universe(atoms, 1)
    for rules in BENCH_RULE_SETS:
        _assert_compiles_match(rules, u, 6)


def test_clauses_match_reference_on_random_rule_sets():
    rng = random.Random(1212)
    universes = [sentence_universe(["p", "q"], 1),
                 sentence_universe(["p", "q", "r"], 1)]
    for trial in range(40):
        rules = tuple(r for r in propositional.RULE_CATALOGUE
                      if rng.random() < 0.5)
        u = universes[trial % 2]
        for depth in (0, 1, 3, 6):
            _assert_compiles_match(rules, u, depth)


def test_cached_closures_match_uncached():
    rng = random.Random(77)
    u = sentence_universe(["p", "q"], 1)
    space = sorted(reference_space(u.sentences),
                   key=propositional.print_formula)
    rule_sets = [("&E1", "&E2", "DN", "negE"), ("&E1",), ("DN", "negE"),
                 ("&E2", "negE"), ()]
    provers = [propositional.Prover(rules, u._space) for rules in rule_sets]
    for _ in range(300):
        gamma = set(rng.sample(space, rng.randint(0, 4)))
        gamma |= {f.body for f in list(gamma)
                  if isinstance(f, Not) and rng.random() < 0.5}
        gamma = frozenset(gamma)
        for prover, rules in zip(provers, rule_sets):
            closure = prover._closure0(gamma)
            assert closure == reference_closure(rules, gamma), (rules, gamma)
            assert prover._closure0(gamma) is closure


# ---------------------------------------------------------------------------
# The enumeration cap


def test_enumeration_cap_boundary(monkeypatch):
    u = sentence_universe(["p"], 1)
    rules = ("&I", "&E1", "&E2")
    monkeypatch.setattr(propositional, "MAX_VALUATIONS", 256)
    assert len(admissible_valuations(rules, u)) == 256
    monkeypatch.setattr(propositional, "MAX_VALUATIONS", 255)
    with pytest.raises(GuardError):
        admissible_valuations(rules, u)


# ---------------------------------------------------------------------------
# The prover's classical cut against the search without it


def _compile_with(prover_class, rules, u, depth, monkeypatch):
    """A fresh compile whose prover is of `prover_class`, and that prover."""
    made = []

    class Recorded(prover_class):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with monkeypatch.context() as m:
        m.setattr(propositional, "Prover", Recorded)
        clauses = propositional._compile_clauses(rules, u, depth)
    (prover,) = made
    return clauses, prover


def _random_rule_sets(rng, count):
    return [tuple(r for r in propositional.RULE_CATALOGUE
                  if rng.random() < 0.5) for _ in range(count)]


@pytest.mark.parametrize("atoms,depth", [(["a"], 1), (["a", "b"], 1),
                                         (["a", "b", "c"], 1),
                                         (["a", "b", "c", "d"], 1),
                                         (["a", "b", "c", "d", "e"], 1),
                                         (["p"], 2)])
def test_cut_and_uncut_provers_agree(atoms, depth, monkeypatch):
    """The same clauses, and every goal the cut prover memoized (cut or
    searched) has the answer the uncut search gives it."""
    u = sentence_universe(atoms, depth)
    rule_sets = BENCH_RULE_SETS + tuple(
        _random_rule_sets(random.Random(1800 + len(u)), 20))
    for rules in rule_sets:
        for proof_depth in (0, 1, 3, 6):
            cut, cut_prover = _compile_with(
                propositional.Prover, rules, u, proof_depth, monkeypatch)
            plain, plain_prover = _compile_with(
                UncutProver, rules, u, proof_depth, monkeypatch)
            assert cut == plain, (rules, atoms, depth, proof_depth)
            assert cut_prover.memo.items() <= plain_prover.memo.items()


def _random_formula(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms + [BOT])
    kind = rng.choice((Not, And, Or))
    if kind is Not:
        return Not(_random_formula(rng, atoms, depth - 1))
    return kind(_random_formula(rng, atoms, depth - 1),
                _random_formula(rng, atoms, depth - 1))


def test_cut_and_uncut_derivable_agree(monkeypatch):
    """300 random queries; every tenth has a premise over 14 atoms, past the
    12 that get a bit in the cut's assignments."""
    rng = random.Random(1818)
    atoms = [P, Q, Atom("r")]
    many = conjunction_of([Atom(f"a{i}") for i in range(14)])
    queries = []
    for k, rules in enumerate(_random_rule_sets(rng, 300)):
        premises = [_random_formula(rng, atoms, 2)
                    for _ in range(rng.randint(0, 3))]
        if k % 10 == 0:
            premises.append(Or(many, _random_formula(rng, atoms, 2)))
        queries.append((rules, premises,
                        [_random_formula(rng, atoms, 2)
                         for _ in range(rng.randint(0, 3))],
                        rng.randint(0, 6)))
    cut = [derivable(*q) for q in queries]
    monkeypatch.setattr(propositional, "Prover", UncutProver)
    assert [derivable(*q) for q in queries] == cut
    assert {d.decided for d in cut} == {True, False, None}


def test_every_rule_instance_is_classically_sound():
    """What the prover's cut rests on: every instance of every catalogue
    rule holds in every classical valuation. A plain rule is checked as
    written; a hypothetical premise a |- c (vE, negI) is read as v(a)
    implies v(c), and Refutation's premise, the conjunction of the whole
    universe, ⋏ among it, must be false."""
    seen = set()
    for atoms, depth in ((["p"], 2), (["p", "q"], 1)):
        u = sentence_universe(atoms, depth)
        instances = rule_instances(propositional.RULE_CATALOGUE, u)
        seen |= {inst.rule for inst in instances}
        for v in classical_valuations(u):
            def holds(a, c):
                return not v[a] or v[c]

            for inst in instances:
                assert rule_sound(v, inst, holds), (inst, v)
    assert seen == set(propositional.RULE_CATALOGUE)
