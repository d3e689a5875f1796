import itertools
import random

import pytest

from omegalogic import propositional
from omegalogic.syntax import And, Atom, BOT, Not, Or
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


class UncachedProver(propositional.Prover):
    """The prover with every closure worked out afresh."""

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
    space = sorted(sentence_universe(["p", "q"], 1)._space,
                   key=propositional.print_formula)
    rule_sets = [("&E1", "&E2", "DN", "negE"), ("&E1",), ("DN", "negE"),
                 ("&E2", "negE"), ()]
    provers = [propositional.Prover(rules, space) for rules in rule_sets]
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
