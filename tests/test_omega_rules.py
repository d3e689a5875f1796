import itertools
import os
import random

import pytest

from omegalogic.cli import main
from omegalogic import cli
from omegalogic.syntax import (
    App, Atom, BOT, Const, ConstantFamily, Eq, FamilyMember, Forall, Not,
    SchemaConj, Var, parse_formula, parse_term, parse_vocabulary,
    print_formula, print_term, substitute,
)
from omegalogic.structures import (
    EvalError, TruthAtFuel, Valuation, all_finite_structures, eval_sentence,
    load_structure, parse_structure,
)
from omegalogic.omega_rules import (
    EXTRA_DERIVATION_RULES, SCHEMA_NAMES, SchemaError, SoundnessVerdict, Step,
    _target_eval, applicability_report, check_derivation,
    check_instance_sound, instantiate_schema, parse_derivation,
    print_derivation, refute_extension, refutation_vocabulary,
)


ASSETS = os.path.join(os.path.dirname(__file__), "..", "assets")

NAT = parse_vocabulary("sort N\nconst 0 : N\nfun S : N -> N\nrel F : N")


def omega_succ():
    voc = parse_vocabulary("sort N\nconst 0 : N\nfun S : N -> N")
    return parse_structure("structure omega\ngenerated by tau", voc)


def ext_vocab():
    return NAT.expand(ConstantFamily("E", "N", members=("d",)))


def test_instantiate_i_omega():
    voc = ext_vocab()
    x = Var("x", "N")
    d = Const("d", "N")
    inst = instantiate_schema(voc, "I_OMEGA", Not(Eq(x, d)), x,
                              params=(d,), family="tau")
    assert inst.premise_family == SchemaConj(x, Not(Eq(x, d)), "tau")
    assert inst.conclusions == (Forall(x, Not(Eq(x, d))),)


def test_i_omega_rejects_base_parameters():
    x = Var("x", "N")
    with pytest.raises(SchemaError):
        instantiate_schema(NAT, "I_OMEGA", Not(Eq(x, Const("0", "N"))), x,
                           params=(Const("0", "N"),), family="tau")


def test_instantiate_s_omega():
    x = Var("x", "N")
    inst = instantiate_schema(NAT, "S_OMEGA", Atom("F", (x,)), x, family="tau")
    assert print_formula(inst.conclusions[0]) == "forall x:N. F(x)"


def test_g_omega_requires_guard():
    voc = parse_vocabulary(
        "sort N\nsort V\nrel N : N\nrel V : V\nrel R1 : N V\n"
        "family c_1 : N countable")
    x = Var("x", "N")
    with pytest.raises(SchemaError):
        instantiate_schema(voc, "G_OMEGA", Atom("R1", (x, x)), x, family="c_1")


def test_schema_regeneration():
    voc = ext_vocab()
    x = Var("x", "N")
    d = Const("d", "N")
    inst = instantiate_schema(voc, "I_OMEGA", Not(Eq(x, d)), x,
                              params=(d,), family="tau")
    again = instantiate_schema(voc, inst.schema, inst.body, inst.hole,
                               inst.params, inst.family)
    assert again == inst


def test_i_omega_sound_on_omega():
    s = omega_succ()
    x = Var("x", "N")
    body = parse_formula("S(x) != x", s.vocab, bound=[("x", "N")])
    inst = instantiate_schema(s.vocab, "I_OMEGA", body, x, family="tau")
    verdict = check_instance_sound(s, inst, fuel=10)
    assert verdict.status == "sound"


def test_s_omega_unsound_on_gapped_valuation():
    # all F(c) true while the universal is false
    x = Var("x", "N")
    voc = parse_vocabulary("sort N\nconst 0 : N\nrel F : N")
    inst = instantiate_schema(voc, "S_OMEGA", Atom("F", (x,)), x, family="tau")
    assignment = {Atom("F", (Const("0", "N"),)): True,
                  Forall(x, Atom("F", (x,))): False}
    v = Valuation(voc, assignment=assignment)
    assert check_instance_sound(v, inst, fuel=5).status == "unsound"


def test_eq_rules():
    t = Const("0", "N")
    inst = instantiate_schema(NAT, "eqI", params=(t,))
    assert inst.conclusions == (Eq(t, t),)


def test_refute_extension_checks():
    s = omega_succ()
    root = refute_extension(s, "d")
    voc = refutation_vocabulary(s, "d")
    result = check_derivation(root, [], ("I_OMEGA", "I_FORALL_E", "eqI", "negE"),
                              voc, assumed_families=("tau",))
    assert result.valid, result.reason
    assert root.conclusion == BOT


def test_refute_extension_not_fresh():
    s = omega_succ()
    with pytest.raises(SchemaError):
        refute_extension(s, "S")


def test_refutation_derivation_roundtrip():
    s = omega_succ()
    root = refute_extension(s, "d")
    voc = refutation_vocabulary(s, "d")
    text = print_derivation(root)
    again = parse_derivation(text, voc)
    assert again == root


def test_check_derivation_rejects_wrong_instance():
    s = omega_succ()
    root = refute_extension(s, "d")
    voc = refutation_vocabulary(s, "d")
    # corrupt the eqI step: conclude d = 0 instead of d = d
    bad_eq = Step("eqI", Eq(Const("d", "N"), Const("0", "N")),
                  params=(Const("d", "N"),))
    bad = Step("negE", BOT, (root.children[0], bad_eq))
    result = check_derivation(bad, [], ("I_OMEGA", "I_FORALL_E", "eqI", "negE"),
                              voc, assumed_families=("tau",))
    assert not result.valid


def test_eqi_single_step_valid():
    t = Const("0", "N")
    step = Step("eqI", Eq(t, t), params=(t,))
    assert check_derivation(step, [], ("eqI",), NAT).valid


def test_eigenvariable_violation():
    # forallI whose eigenconstant occurs in an open assumption
    voc = ext_vocab()
    x = Var("x", "N")
    d = Const("d", "N")
    assumption = Step("assumption", Atom("F", (d,)))
    prem = Step("negE", BOT,
                (assumption, Step("assumption", Not(Atom("F", (d,))))))
    # a cheap stand-in: forallI from F(d) under the open assumption F(d)
    body = Atom("F", (x,))
    inner = Step("assumption", Atom("F", (d,)))
    gen = Step("forallI", Forall(x, body), (inner,), params=(d,))
    result = check_derivation(gen, [], ("forallI",), voc)
    assert not result.valid
    assert "assumption" in result.reason or "eigen" in result.reason


def test_forall_i_eigenconstant_stays_out_of_the_leaves():
    # forall x:N. F(x) does not follow from the one instance F(0) that the
    # theory asserts: 0 occurs in the axiom leaf under the premise
    x, zero = Var("x", "N"), Const("0", "N")
    f0 = Atom("F", (zero,))
    gen = Step("forallI", Forall(x, Atom("F", (x,))), (Step("axiom", f0),),
               params=(zero,))
    result = check_derivation(gen, [f0], ("forallI",), NAT)
    assert not result.valid
    assert result.reason == "eigenconstant 0 occurs in the axiom F(0)"
    # a fresh eigenconstant over a closed premise generalizes
    d = Const("d", "N")
    refl = Step("forallI", Forall(x, Eq(x, x)),
                (Step("eqI", Eq(d, d), params=(d,)),), params=(d,))
    assert check_derivation(refl, [], ("forallI", "eqI"), ext_vocab()).valid
    # an eigenconstant is a constant, never a compound term
    with pytest.raises(SchemaError, match="is not a constant"):
        instantiate_schema(NAT, "forallI", Atom("F", (x,)), x,
                           params=(App("S", (zero,), "N"),))


def test_soundness_witness_text():
    x = Var("x", "N")
    voc = parse_vocabulary("sort N\nconst 0 : N\nrel F : N")
    inst = instantiate_schema(voc, "S_OMEGA", Atom("F", (x,)), x, family="tau")
    f0, every = Atom("F", (Const("0", "N"),)), Forall(x, Atom("F", (x,)))
    verdicts = [check_instance_sound(
        Valuation(voc, assignment={f0: a, every: b}), inst, fuel=5)
        for a, b in ((True, False), (False, False), (True, True))]
    assert [(v.status, v.witness) for v in verdicts] == [
        ("unsound", "premise true: /\\{ F(x) : x in tau }; "
                    "conclusion false: forall x:N. F(x)"),
        ("sound", "premise false: /\\{ F(x) : x in tau }"),
        ("sound", None)]


def test_dangling_assumption_rejected():
    step = Step("assumption", Atom("F", (Const("0", "N"),)))
    result = check_derivation(step, [], ("eqI",), NAT)
    assert not result.valid


def test_applicability_pure_equality():
    voc = parse_vocabulary("sort S")
    report = applicability_report([], voc, "I_OMEGA")
    assert report["count"] == 0
    assert "no constants" in report["blockers"]


def test_applicability_dense_order():
    voc = parse_vocabulary("sort S\nrel < : S S")
    report = applicability_report([], voc, "I_OMEGA")
    assert report["count"] == 0
    assert "no constants" in report["blockers"]


def test_applicability_named_constants():
    voc = parse_vocabulary("sort S\nfamily C : S countable")
    report = applicability_report([], voc, "I_OMEGA")
    assert report["count"] >= 1
    assert report["blockers"] == []


def test_applicability_g_omega_needs_n_sort():
    voc = parse_vocabulary("sort S\nfamily C : S countable")
    report = applicability_report([], voc, "G_OMEGA")
    assert "no N-sort" in report["blockers"]


# -- every instance instantiate_schema builds checks as a one-step derivation

RT_VOCAB = parse_vocabulary(
    "sort N\nconst 0 : N\nfun S : N -> N\nrel F : N\nrel N : N\n"
    "family E : N = { d }\nfamily c : N countable")
RT_BODIES = ("F(x)", "~F(x)", "exists y:N. (S(y) = x)", "F(x) | x = 0")
RT_PARAMS = (Const("0", "N"), App("S", (Const("0", "N"),), "N"),
             Const("d", "N"), FamilyMember("c", (1,), "N"))
RT_GUARD = parse_formula("forall x:N. N(x)", RT_VOCAB)
OMEGA_SCHEMAS = ("S_OMEGA", "I_OMEGA", "G_OMEGA")
INSTANTIABLE = tuple(n for n in SCHEMA_NAMES
                     if n not in ("existsE", "S_EXISTS_E", "I_EXISTS_E"))


def _instances(schema):
    x = Var("x", "N")
    bodies = [parse_formula(b, RT_VOCAB, bound=[("x", "N")])
              for b in RT_BODIES]
    if schema == "eqE":
        params = [(p, q) for p in RT_PARAMS for q in RT_PARAMS]
    else:
        params = [(p,) for p in RT_PARAMS]
    families = ("tau", "c") if schema in OMEGA_SCHEMAS else (None,)
    for body in bodies:
        for ps in params:
            for fam in families:
                try:
                    yield instantiate_schema(RT_VOCAB, schema, body, x, ps,
                                             fam, guard=RT_GUARD)
                except SchemaError:
                    pass  # a side condition rules this instance out


def _one_step(inst):
    leaves = tuple(Step("family", p, family=p.family, tag="schema-assumed")
                   if isinstance(p, SchemaConj) else Step("axiom", p)
                   for p in inst.all_premises)
    return Step(inst.schema, inst.conclusions[0], leaves, inst.params,
                inst.family)


@pytest.mark.parametrize("schema", INSTANTIABLE)
def test_every_instance_checks_as_a_derivation(schema):
    insts = list(_instances(schema))
    assert insts
    for inst in insts:
        theory = [p for p in inst.all_premises
                  if not isinstance(p, SchemaConj)]
        step = _one_step(inst)
        result = check_derivation(step, theory, (schema,), RT_VOCAB,
                                  assumed_families=("tau", "c"))
        if schema == "forallI":  # its axiom leaf names the eigenconstant
            assert not result.valid and result.reason.startswith(
                f"eigenconstant {print_term(inst.params[0])} occurs in the "
                "axiom"), print_derivation(step)
        else:
            assert result.valid, (print_derivation(step), result.reason)


# -- derivation steps the schemas do not build

def _check(text, theory=(), vocab=RT_VOCAB, rules=SCHEMA_NAMES, assumed=()):
    axioms = [parse_formula(a, vocab) for a in theory]
    return check_derivation(parse_derivation(text, vocab), axioms, rules,
                            vocab, assumed_families=assumed)


def test_eqe_conclusion_must_be_the_rewritten_premise():
    assert not _check("eqE[0, 0]: (0 = S(0))\n  axiom: (0 = 0)\n"
                      "  axiom: F(0)\n", ["0 = 0", "F(0)"]).valid
    assert not _check("eqE[0, S(0)]: F(S(S(0)))\n  axiom: (0 = S(0))\n"
                      "  axiom: F(0)\n", ["0 = S(0)", "F(0)"]).valid
    assert _check("eqE[0, S(0)]: F(S(0))\n  axiom: (0 = S(0))\n"
                  "  axiom: F(0)\n", ["0 = S(0)", "F(0)"]).valid
    assert _check("eqE[0, S(0)]: F(S(0))\n  axiom: F(0)\n"
                  "  axiom: (0 = S(0))\n", ["0 = S(0)", "F(0)"]).valid
    # the equation must be the one the parameters name
    assert not _check("eqE[0, S(0)]: F(S(0))\n  axiom: (0 = 0)\n"
                      "  axiom: F(0)\n", ["0 = 0", "F(0)"]).valid


def test_eqe_may_rewrite_some_occurrences():
    theory = ["0 = S(0)", "F(0) | ~F(0)"]
    for concl in ("F(S(0)) | ~F(0)", "F(0) | ~F(S(0))",
                  "F(S(0)) | ~F(S(0))", "F(0) | ~F(0)"):
        text = (f"eqE[0, S(0)]: {concl}\n  axiom: (0 = S(0))\n"
                "  axiom: F(0) | ~F(0)\n")
        assert _check(text, theory).valid, concl


def test_exists_i_premise_is_the_body_at_the_witness():
    assert not _check("existsI[0]: exists x:N. F(x)\n  axiom: F(S(0))\n",
                      ["F(S(0))"]).valid


def test_eqi_concludes_at_its_parameter():
    assert not _check("eqI[d]: (0 = 0)\n").valid
    assert _check("eqI[d]: (d = d)\n").valid


def test_s_exists_i_witness_is_a_base_constant():
    result = _check("S_EXISTS_I[d]: exists x:N. F(x)\n  axiom: F(d)\n",
                    ["F(d)"])
    assert not result.valid
    assert "base constant" in result.reason
    assert _check("S_EXISTS_I[S(0)]: exists x:N. F(x)\n  axiom: F(S(0))\n",
                  ["F(S(0))"]).valid


def test_g_forall_e_keeps_the_sort_guard():
    # N(0) and F(0) both false satisfies the axiom and falsifies F(0)
    theory = ["forall x:N. (~N(x) | F(x))"]
    prem = "\n  axiom: forall x:N. (~N(x) | F(x))\n"
    assert not _check("G_FORALL_E[0]: F(0)" + prem, theory).valid
    assert _check("G_FORALL_E[0]: (~N(0) | F(0))" + prem, theory).valid


def test_g_omega_premises_in_either_order():
    guard = "forall x:N. N(x)"
    fam = "  family /\\{ F(x) : x in c } tag=schema-assumed\n"
    concl = "G_OMEGA: family=c forall x:N. (~N(x) | F(x))\n"
    for kids in (f"  axiom: {guard}\n" + fam, fam + f"  axiom: {guard}\n"):
        text = concl + kids
        result = check_derivation(parse_derivation(text, RT_VOCAB),
                                  [parse_formula(guard, RT_VOCAB)],
                                  ("G_OMEGA",), RT_VOCAB,
                                  assumed_families=("c",))
        assert result.valid, (text, result.reason)


def test_g_omega_takes_only_the_sort_guard_form():
    """The guard must say that N holds on the whole sort of the hole;
    `forall x:N. (x = x)` says nothing about the family covering N."""
    x = Var("x", "N")
    body = parse_formula("F(x)", RT_VOCAB, bound=[("x", "N")])
    for text in ("forall x:N. (x = x)", "forall y:N. N(y)", "N(0)",
                 "forall x:N. (N(x) & N(x))", "forall x:N. F(x)"):
        guard = parse_formula(text, RT_VOCAB)
        if text == "forall y:N. N(y)":  # any bound variable will do
            assert instantiate_schema(RT_VOCAB, "G_OMEGA", body, x,
                                      family="c", guard=guard)
            continue
        with pytest.raises(SchemaError, match="sort guard must read"):
            instantiate_schema(RT_VOCAB, "G_OMEGA", body, x, family="c",
                               guard=guard)
    y = Var("y", "B")  # a guard over another sort than the hole's
    with pytest.raises(SchemaError, match="sort guard must read"):
        instantiate_schema(RT_VOCAB, "G_OMEGA", body, x, family="c",
                           guard=Forall(y, Atom("N", (y,))))
    text = ("G_OMEGA: family=c forall x:N. (~N(x) | F(x))\n"
            "  axiom: forall x:N. (x = x)\n"
            "  family /\\{ F(x) : x in c } tag=schema-assumed\n")
    result = check_derivation(parse_derivation(text, RT_VOCAB),
                              [parse_formula("forall x:N. (x = x)",
                                             RT_VOCAB)],
                              ("G_OMEGA",), RT_VOCAB,
                              assumed_families=("c",))
    assert not result.valid and "sort guard must read" in result.reason


TWO_SORTS = parse_vocabulary("sort N\nsort B\nconst 0 : N\nconst b : B\n"
                             "rel F : N\nfamily c : N countable")


def test_malformed_steps_are_invalid_not_errors():
    for text in ("eqI: (0 = 0)\n",                            # no parameter
                 "I_FORALL_E[0]: F(0)\n  axiom: F(0)\n",      # not universal
                 "eqE[0]: F(0)\n  axiom: (0 = 0)\n  axiom: F(0)\n",
                 "existsE: F(0)\n  axiom: F(0)\n",
                 "negI: ~F(0)\n  axiom: F(0)\n",
                 "S_OMEGA: family=nosuch forall x:N. F(x)\n"
                 "  family /\\{ F(x) : x in c } tag=schema-assumed\n",
                 "I_FORALL_E[b]: F(0)\n  axiom: forall x:N. F(x)\n"):
        result = _check(text, ["F(0)", "0 = 0", "forall x:N. F(x)"],
                        vocab=TWO_SORTS, assumed=("c",),
                        rules=SCHEMA_NAMES + EXTRA_DERIVATION_RULES)
        assert not result.valid and result.reason, text
    result = _check("existsE: F(0)\n  axiom: F(0)\n", ["F(0)"])
    assert "discharges an assumption" in result.reason


# -- soundness spot-checks stop at the deciding fact

def _eager_target_eval(target, f, fuel):
    """`eval_sentence` with bounded-fragment semantics on a structure;
    on a valuation `_target_eval`, with every member of a schema family
    evaluated before any is tested."""
    if hasattr(target, "kind"):
        return eval_sentence(target, f, fuel, fragment=True)
    if not isinstance(f, SchemaConj):
        return _target_eval(target, f, fuel)
    vocab, sort = target.vocab, f.hole.sort
    if f.family != "tau":
        members, _ = vocab.family(f.family).range_at(fuel)
    else:
        members = itertools.islice(vocab.tau_stream(sort), max(
            fuel, len(vocab.constants(sort))))
    vals = [target.value(substitute(f.body, f.hole.name, m))
            for m in members]
    if any(v is False for v in vals):
        return TruthAtFuel("false", fuel)
    if all(v is True for v in vals):
        return TruthAtFuel("true", fuel)
    return TruthAtFuel("unknown", fuel)


def _eager_sound(target, inst, fuel=8):
    """The reference: every premise and every conclusion is evaluated
    before any of them is looked at."""
    premises = inst.all_premises
    prem_vals = [_eager_target_eval(target, p, fuel) for p in premises]
    concl_vals = [_eager_target_eval(target, c, fuel)
                  for c in inst.conclusions]
    for p, v in zip(premises, prem_vals):
        if v.value == "false":
            return SoundnessVerdict("sound", fuel, (("premise false", p),))
    if any(v.value == "true" for v in concl_vals):
        return SoundnessVerdict("sound", fuel)
    if all(v.value == "true" for v in prem_vals) and all(
            v.value == "false" for v in concl_vals):
        facts = [("premise true", p) for p in premises]
        facts += [("conclusion false", c) for c in inst.conclusions]
        if not inst.conclusions:
            facts.append(("empty conclusion set is always false", None))
        return SoundnessVerdict("unsound", fuel, tuple(facts))
    return SoundnessVerdict("unknown", fuel)


# the finite-models benchmark's omega vocabulary
PQ_VOCAB = parse_vocabulary(
    "sort S\nrel P : S\nrel Q : S\nconst a : S\nconst b : S")
PQ_STRUCTURES = [s for n in (1, 2, 3)
                 for s in all_finite_structures(PQ_VOCAB, n)]


def _random_body(rng, depth=2):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["P(x)", "Q(x)", "x = a", "x = b", "P(a)"])
    op = rng.choice(["~", "&", "|"])
    if op == "~":
        return f"~({_random_body(rng, depth - 1)})"
    return f"({_random_body(rng, depth - 1)} {op} {_random_body(rng, depth - 1)})"


def _pq_instances(seed, n_bodies=6):
    rng = random.Random(seed)
    x = Var("x", "S")
    a, b = Const("a", "S"), Const("b", "S")
    for _ in range(n_bodies):
        body = parse_formula(_random_body(rng), PQ_VOCAB, bound=[("x", "S")])
        for schema in ("I_OMEGA", "S_OMEGA"):
            yield instantiate_schema(PQ_VOCAB, schema, body, x, family="tau")
        for schema in ("I_FORALL_E", "S_FORALL_E", "existsI", "forallE"):
            for t in (a, b):
                yield instantiate_schema(PQ_VOCAB, schema, body, x, (t,),
                                         "tau")
        for ts in itertools.product((a, b), repeat=2):
            yield instantiate_schema(PQ_VOCAB, "eqE", body, x, ts)


def _partial_valuation(rng, insts):
    """A valuation that calls each sentence of `insts` (each family member
    too) true, false or nothing, at random."""
    sentences = set()
    for inst in insts:
        for f in inst.all_premises + inst.conclusions:
            if isinstance(f, SchemaConj):
                sentences.update(substitute(f.body, f.hole.name, Const(c, "S"))
                                 for c in ("a", "b"))
            else:
                sentences.add(f)
    choice = (True, False, None)
    return Valuation(PQ_VOCAB, assignment={
        f: v for f in sorted(sentences, key=print_formula)
        if (v := rng.choice(choice)) is not None})


# the two presentations of the assets, with the literals and parameters
# their random rule bodies are built from, and the premise family
PRESENTATIONS = [
    ("omega-succ.struct", ["x = 0", "S(x) = S(S(0))", "S(x) != x",
                           "exists y:N. S(y) = x", "forall y:N. y != S(x)"],
     ["0", "S(S(0))"], "tau"),
    ("integers.struct", ["x < 0", "0 < x", "x = 0", "exists y:Z. y < x",
                         "forall y:Z. (y < x | x < y | x = y)"],
     ["0", "D_2", "D_5"], "D"),
]


def _presentation_instances(rng, s, literals, params, family, n_bodies=6):
    """I_OMEGA and S_OMEGA over `family`, and the forall-eliminations,
    existsI and eqE at `params`, for random bodies over `literals`."""
    sort = s.vocab.sorts[0]
    x = Var("x", sort)
    terms = [parse_term(t, s.vocab) for t in params]

    def body(depth=2):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(literals)
        op = rng.choice(["~", "&", "|"])
        if op == "~":
            return f"~({body(depth - 1)})"
        return f"({body(depth - 1)} {op} {body(depth - 1)})"

    for _ in range(n_bodies):
        f = parse_formula(body(), s.vocab, bound=[("x", sort)])
        for schema in ("I_OMEGA", "S_OMEGA"):
            yield instantiate_schema(s.vocab, schema, f, x, family=family)
        for schema in ("I_FORALL_E", "forallE", "existsI"):
            for t in terms:
                yield instantiate_schema(s.vocab, schema, f, x, (t,), "tau")
        yield instantiate_schema(s.vocab, "eqE", f, x, terms[:2])


@pytest.mark.parametrize("seed", (1, 2))
def test_lazy_soundness_matches_the_eager_reference(seed):
    insts = list(_pq_instances(seed))
    rng = random.Random(seed)
    targets = PQ_STRUCTURES + [Valuation(PQ_VOCAB, structure=s)
                               for s in PQ_STRUCTURES[:20]]
    targets += [_partial_valuation(rng, insts) for _ in range(20)]
    statuses = set()
    for target in targets:
        for inst in insts:
            got = check_instance_sound(target, inst)
            assert got == _eager_sound(target, inst), (
                inst.schema, print_formula(inst.conclusions[0]))
            statuses.add(got.status)
    assert statuses == {"sound", "unsound", "unknown"}
    # presentations, at fuels that cut their ranges short and that do not
    statuses = set()
    for name, literals, params, family in PRESENTATIONS:
        s = load_structure(os.path.join(ASSETS, name))
        for inst in _presentation_instances(rng, s, literals, params,
                                            family):
            for fuel in (1, 2, 4, 8):
                got = check_instance_sound(s, inst, fuel)
                assert got == _eager_sound(s, inst, fuel), (
                    name, fuel, inst.schema,
                    print_formula(inst.conclusions[0]))
                statuses.add(got.status)
    assert statuses == {"sound", "unsound"}  # the fragment always decides


@pytest.mark.parametrize("name,literals,params,family", PRESENTATIONS)
def test_no_fuel_on_a_presentation_raises_as_eval_sentence(
        name, literals, params, family):
    s = load_structure(os.path.join(ASSETS, name))
    x = Var("x", s.vocab.sorts[0])
    body = parse_formula(literals[0], s.vocab, bound=[("x", x.sort)])
    inst = instantiate_schema(s.vocab, "I_OMEGA", body, x, family=family)
    with pytest.raises(EvalError) as want:
        eval_sentence(s, inst.premise_family, 0, fragment=True)
    for fuel in (0, -1):
        with pytest.raises(EvalError) as got:
            check_instance_sound(s, inst, fuel)
        assert str(got.value) == str(want.value)
    # an unquantified premise is read at fuel 0 and can decide the check
    t = parse_term(params[-1], s.vocab)
    inst = instantiate_schema(s.vocab, "eqE", body, x, (t, t))
    assert check_instance_sound(s, inst, 0) == _eager_sound(s, inst, 0)


def test_an_error_after_the_deciding_premise_does_not_surface():
    # R has neither an extent nor a decider, so evaluating R(t) raises
    voc = parse_vocabulary("sort N\nconst 0 : N\nfun S : N -> N\nrel R : N")
    s = parse_structure("structure s\ngenerated by tau", voc)
    x, zero = Var("x", "N"), Const("0", "N")
    inst = instantiate_schema(voc, "eqE", Atom("R", (x,)), x,
                              (zero, App("S", (zero,), "N")))
    with pytest.raises(EvalError, match="no decision rule"):
        eval_sentence(s, inst.conclusions[0])
    with pytest.raises(EvalError):  # the eager reference reads on and raises
        _eager_sound(s, inst)
    verdict = check_instance_sound(s, inst)
    assert verdict.status == "sound"
    assert verdict.facts == (("premise false", inst.premises[0]),)


class _CountingValuation(Valuation):
    def __init__(self, vocab, assignment):
        super().__init__(vocab, assignment=assignment)
        self.read = []

    def value(self, sentence):
        self.read.append(sentence)
        return super().value(sentence)


class _ReadLog(dict):
    """A relation map that records each relation name looked up."""

    def __init__(self, relations, log):
        super().__init__(relations)
        self.log = log

    def __getitem__(self, name):
        self.log.append(name)
        return super().__getitem__(name)


def test_nothing_is_evaluated_after_the_deciding_fact(monkeypatch):
    x, a, b = Var("x", "S"), Const("a", "S"), Const("b", "S")
    px, pa, pb = Atom("P", (x,)), Atom("P", (a,)), Atom("P", (b,))
    # a false family member ends the family, and the check, at once
    inst = instantiate_schema(PQ_VOCAB, "S_OMEGA", px, x, family="tau")
    v = _CountingValuation(PQ_VOCAB, {pa: False, pb: False})
    assert check_instance_sound(v, inst).status == "sound"
    assert len(v.read) == 1
    # a true conclusion is the last sentence read
    inst = instantiate_schema(PQ_VOCAB, "forallE", px, x, (a,))
    v = _CountingValuation(PQ_VOCAB, {pa: True})
    assert check_instance_sound(v, inst).status == "sound"
    assert v.read == [Forall(x, px), pa]
    # the first false premise is the only sentence read
    inst = instantiate_schema(PQ_VOCAB, "eqE", px, x, (a, b))
    v = _CountingValuation(PQ_VOCAB, {Eq(a, b): False, pa: True, pb: True})
    assert check_instance_sound(v, inst).status == "sound"
    assert v.read == [Eq(a, b)]
    # on a structure where a != b: only the equation's two constants are
    # read, and neither P(a) nor the conclusion P(b) looks P up
    m = next(s for s in PQ_STRUCTURES
             if s.constants["a"] != s.constants["b"])
    read = []

    def element_of(t, extra=None):
        read.append(t)
        return type(m).element_of(m, t, extra)

    monkeypatch.setattr(m, "element_of", element_of)
    monkeypatch.setattr(m, "relations", _ReadLog(m.relations, read))
    assert check_instance_sound(m, inst).status == "sound"
    assert read == [a, b]
    # where a = b and P(a) holds, everything is read, premises first
    m = next(s for s in PQ_STRUCTURES
             if s.constants["a"] == s.constants["b"]
             and (s.constants["a"],) in s.relations["P"])
    read = []
    monkeypatch.setattr(m, "element_of", element_of)
    monkeypatch.setattr(m, "relations", _ReadLog(m.relations, read))
    assert check_instance_sound(m, inst).status == "sound"
    assert read == [a, b, a, "P", b, "P"]


def test_equal_evaluations_share_one_truth_value():
    m = PQ_STRUCTURES[-1]
    f = parse_formula("exists x:S. P(x)", PQ_VOCAB)
    first, again = eval_sentence(m, f, 5), eval_sentence(m, f, 5)
    assert first is again
    assert first == TruthAtFuel(first.value, 5)
    other = eval_sentence(m, f, 6)
    assert other is not first and other.fuel_used == 6
    with pytest.raises(TypeError):
        bool(first)


def test_the_parser_is_built_once(capsys):
    cli.build_parser.cache_clear()
    texts = []
    for _ in range(2):
        assert main(["--help"]) == 0
        texts.append(capsys.readouterr().out)
    built = cli.build_parser.cache_info()
    assert (built.misses, built.hits) == (1, 1)
    assert texts[0] == texts[1] and texts[0].startswith("usage: omega")
