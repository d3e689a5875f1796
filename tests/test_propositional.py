import itertools

import pytest

from omegalogic.syntax import And, Atom, BOT, Not, Or
from omegalogic.propositional import (
    GuardError, RuleInstanceP, admissible_valuations, admissibility_clauses,
    classical_valuations, clauses_satisfied, conjunction_of, derivable,
    determined_truth_table, is_admissible, rule_instances, rule_sound,
    sentence_universe, v_tautology, v_top,
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
