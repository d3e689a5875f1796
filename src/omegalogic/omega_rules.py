"""Quantifier and omega-rule schemas: instantiation, fuel-bounded soundness
checking, syntactic derivation checking with symbolic premise families, the
proper-extension refutation engine, and applicability analysis.

Symbolic infinite premise families are never enumerated: derivations justify
them with tags, and soundness mode spot-checks them at bounded fuel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .syntax import (
    Absurd, And, App, Atom, BOT, Const, ConstantFamily, Eq, Exists,
    FamilyMember, Forall, Formula, Not, Or, SchemaConj, SyntaxError_, Term,
    Var, Vocabulary, constants_in, implies, parse_formula, parse_term,
    print_formula, print_term, substitute, term_is_ground,
)
from .structures import EvalError, TruthAtFuel, eval_sentence


SCHEMA_NAMES = (
    "forallI", "forallE", "existsI", "existsE", "eqI", "eqE",
    "S_OMEGA", "S_FORALL_E", "S_EXISTS_I", "S_EXISTS_E",
    "I_OMEGA", "I_FORALL_E", "I_EXISTS_I", "I_EXISTS_E",
    "G_OMEGA", "G_FORALL_E",
)

# rules that may additionally appear in derivations
EXTRA_DERIVATION_RULES = ("negE", "negI")


class SchemaError(Exception):
    pass


@dataclass(frozen=True)
class RuleInstanceQ:
    schema: str
    body: Optional[Formula] = None   # formula with the designated hole free
    hole: Optional[Var] = None
    params: tuple = ()
    family: Optional[str] = None
    premises: tuple = ()             # finite premises
    premise_family: Optional[SchemaConj] = None
    extra_premises: tuple = ()       # e.g. the G-omega sort guard
    conclusions: tuple = ()


def _is_base_constant_term(t: Term, vocab: Vocabulary) -> bool:
    """Ground term built from base constants and functions only."""
    if isinstance(t, Const):
        return t.name in vocab.symbols
    if isinstance(t, FamilyMember):
        return False
    if isinstance(t, App):
        return all(_is_base_constant_term(a, vocab) for a in t.args)
    return False


def instantiate_schema(vocab: Vocabulary, schema: str, body=None, hole=None,
                       params=(), family=None, guard=None) -> RuleInstanceQ:
    """Build a rule instance from its schema, checking side conditions."""
    if schema not in SCHEMA_NAMES:
        raise SchemaError(f"unknown schema {schema!r}")
    params = tuple(params)
    for t in params:
        if not term_is_ground(t):
            raise SchemaError(f"parameter {print_term(t)} is not ground")

    def sub(t):
        return substitute(body, hole.name, t)

    if schema in ("S_OMEGA", "I_OMEGA", "G_OMEGA"):
        if family is None:
            raise SchemaError(f"{schema} requires a premise family")
        if family != "tau":
            vocab.family(family)
        fam_conj = SchemaConj(hole, body, family)
        if schema == "S_OMEGA":
            if any(not _is_base_constant_term(p, vocab) for p in params):
                raise SchemaError("S_OMEGA takes no auxiliary parameters")
            return RuleInstanceQ(schema, body, hole, params, family,
                                 premise_family=fam_conj,
                                 conclusions=(Forall(hole, body),))
        if schema == "I_OMEGA":
            for p in params:
                if _is_base_constant_term(p, vocab):
                    raise SchemaError(
                        f"I_OMEGA parameter {print_term(p)} must come from "
                        "Const(tau(C)) - Const(tau)")
            return RuleInstanceQ(schema, body, hole, params, family,
                                 premise_family=fam_conj,
                                 conclusions=(Forall(hole, body),))
        # G_OMEGA
        if guard is None:
            raise SchemaError("G_OMEGA requires the sort-guard premise")
        n_pred = Atom("N", (hole,))
        concl = Forall(hole, implies(n_pred, body))
        return RuleInstanceQ(schema, body, hole, params, family,
                             premise_family=fam_conj,
                             extra_premises=(guard,),
                             conclusions=(concl,))

    if schema in ("forallE", "S_FORALL_E", "I_FORALL_E", "G_FORALL_E"):
        (t,) = params
        if schema == "S_FORALL_E" and not _is_base_constant_term(t, vocab):
            raise SchemaError("S_FORALL_E instantiates at base constant terms")
        prem = Forall(hole, body)
        if schema == "G_FORALL_E":
            prem = Forall(hole, implies(Atom("N", (hole,)), body))
        return RuleInstanceQ(schema, body, hole, params, family,
                             premises=(prem,), conclusions=(sub(t),))

    if schema in ("existsI", "S_EXISTS_I", "I_EXISTS_I"):
        (t,) = params
        if schema == "S_EXISTS_I" and not _is_base_constant_term(t, vocab):
            raise SchemaError("S_EXISTS_I instantiates at base constant terms")
        return RuleInstanceQ(schema, body, hole, params, family,
                             premises=(sub(t),),
                             conclusions=(Exists(hole, body),))

    if schema == "forallI":
        (c,) = params
        if any(c == k for k in constants_in(body)):
            raise SchemaError("eigenconstant occurs in the conclusion body")
        return RuleInstanceQ(schema, body, hole, params, family,
                             premises=(sub(c),),
                             conclusions=(Forall(hole, body),))

    if schema in ("existsE", "S_EXISTS_E", "I_EXISTS_E"):
        raise SchemaError(f"{schema} is checked structurally in derivations, "
                          "not instantiated standalone")

    if schema == "eqI":
        (t,) = params
        return RuleInstanceQ(schema, params=params,
                             conclusions=(Eq(t, t),))

    if schema == "eqE":
        t1, t2 = params
        return RuleInstanceQ(schema, body, hole, params, family,
                             premises=(Eq(t1, t2), sub(t1)),
                             conclusions=(sub(t2),))

    raise SchemaError(f"unhandled schema {schema!r}")


# ---------------------------------------------------------------------------
# Fuel-bounded soundness


@dataclass(frozen=True)
class SoundnessVerdict:
    status: str  # 'sound' | 'unsound' | 'unknown'
    fuel: int
    witness: Optional[str] = None


def _target_eval(target, f, fuel):
    if hasattr(target, "kind"):  # a structure
        return eval_sentence(target, f, fuel, fragment=True)
    # a valuation: look sentences up; spot-check schema families memberwise
    if isinstance(f, SchemaConj):
        fam = target.vocab.family(f.family) if f.family != "tau" else None
        members = (fam.enumerate_terms(fuel) if fam is not None
                   else [Const(d.name, d.result_sort)
                         for d in target.vocab.constants()])
        vals = [target.value(substitute(f.body, f.hole.name, m))
                for m in members]
        if any(v is False for v in vals):
            return TruthAtFuel("false", fuel)
        if all(v is True for v in vals):
            return TruthAtFuel("true", fuel)
        return TruthAtFuel("unknown", fuel)
    v = target.value(f)
    if v is None:
        return TruthAtFuel("unknown", fuel)
    return TruthAtFuel("true" if v else "false", fuel)


def check_instance_sound(target, inst: RuleInstanceQ,
                         fuel: int = 8) -> SoundnessVerdict:
    """Unsound iff every premise (including the symbolic family, spot-checked
    at fuel, with bounded-fragment quantifier semantics) is true and every
    conclusion false."""
    premises = list(inst.premises) + list(inst.extra_premises)
    if inst.premise_family is not None:
        premises.append(inst.premise_family)
    prem_vals = [_target_eval(target, p, fuel) for p in premises]
    concl_vals = [_target_eval(target, c, fuel) for c in inst.conclusions]
    for p, v in zip(premises, prem_vals):
        if v.value == "false":
            return SoundnessVerdict("sound", fuel,
                                    f"premise false: {print_formula(p)}")
    if any(v.value == "true" for v in concl_vals):
        return SoundnessVerdict("sound", fuel)
    if all(v.value == "true" for v in prem_vals) and all(
            v.value == "false" for v in concl_vals):
        lines = [f"premise true: {print_formula(p)}" for p in premises]
        lines += [f"conclusion false: {print_formula(c)}"
                  for c in inst.conclusions]
        if not inst.conclusions:
            lines.append("empty conclusion set is always false")
        return SoundnessVerdict("unsound", fuel, "; ".join(lines))
    return SoundnessVerdict("unknown", fuel)


# ---------------------------------------------------------------------------
# Derivations


@dataclass(frozen=True)
class Step:
    rule: str                  # schema name, 'negE', 'axiom', 'assumption', 'family'
    conclusion: Formula
    children: tuple = ()
    params: tuple = ()
    family: Optional[str] = None
    tag: Optional[str] = None  # family justification tag


FAMILY_TAGS = ("axiom-of-theory", "schema-assumed", "discharged-by-containing-step")


@dataclass(frozen=True)
class CheckResult:
    valid: bool
    step: Optional[Step] = None
    reason: Optional[str] = None

    def __bool__(self):
        return self.valid


def check_derivation(root: Step, theory, rules, vocab: Vocabulary,
                     assumed_families=()) -> CheckResult:
    """Purely syntactic derivation checking: every step re-derives from its
    schema, side conditions hold, and all leaves are justified."""
    theory = tuple(theory)
    rules = tuple(rules)
    assumed = tuple(assumed_families)

    def fail(step, reason):
        return CheckResult(False, step, reason)

    def check(step: Step, open_assumptions):
        if step.rule == "axiom":
            if step.conclusion not in theory:
                return fail(step, "axiom not in theory")
            return CheckResult(True)
        if step.rule == "assumption":
            return CheckResult(True)  # openness handled by the caller
        if step.rule == "family":
            if not isinstance(step.conclusion, SchemaConj):
                return fail(step, "family step must conclude a schema-conjunction")
            if step.tag not in FAMILY_TAGS:
                return fail(step, "family tag unjustified")
            if step.tag == "axiom-of-theory" and step.conclusion not in theory:
                return fail(step, "family tagged axiom-of-theory is not an axiom")
            if step.tag == "schema-assumed" and step.conclusion.family not in assumed:
                return fail(step, f"family {step.conclusion.family!r} not "
                            "declared schema-assumed")
            return CheckResult(True)

        if step.rule not in rules:
            return fail(step, f"rule {step.rule!r} not allowed")

        sub_assumptions = list(open_assumptions)
        for child in step.children:
            if child.rule == "assumption":
                sub_assumptions.append(child.conclusion)
        for child in step.children:
            r = check(child, tuple(sub_assumptions))
            if not r.valid:
                return r
        kids = tuple(c.conclusion for c in step.children)

        ok, reason = _step_shape_ok(step, kids, vocab, tuple(sub_assumptions))
        if not ok:
            return fail(step, reason)
        return CheckResult(True)

    if root.rule == "assumption":
        return CheckResult(False, root, "dangling assumption")
    result = check(root, ())
    if not result.valid:
        return result
    dangling = _open_assumptions(root)
    if dangling:
        return CheckResult(False, root,
                           f"dangling assumption {print_formula(dangling[0])}")
    return CheckResult(True)


def _open_assumptions(step: Step):
    # no discharging rules are used in the shipped templates; any assumption
    # leaf therefore stays open
    out = []
    if step.rule == "assumption":
        out.append(step.conclusion)
    for c in step.children:
        out.extend(_open_assumptions(c))
    return out


def _step_shape_ok(step: Step, kids, vocab, open_assumptions):
    c = step.conclusion
    if step.rule in ("I_OMEGA", "S_OMEGA"):
        if not isinstance(c, Forall):
            return False, "omega-rule conclusion must be universal"
        want = SchemaConj(c.var, c.body, step.family)
        if len(kids) != 1 or kids[0] != want:
            return False, "premise family does not match the conclusion"
        try:
            instantiate_schema(vocab, step.rule, c.body, c.var,
                               step.params, step.family)
        except SchemaError as e:
            return False, str(e)
        return True, None
    if step.rule == "G_OMEGA":
        if len(kids) != 2:
            return False, "G_OMEGA needs the premise family and the sort guard"
        if not isinstance(c, Forall):
            return False, "G_OMEGA conclusion must be universal"
        # conclusion: forall x. (~N(x) | body)
        if not (isinstance(c.body, Or) and isinstance(c.body.left, Not)
                and c.body.left.body == Atom("N", (c.var,))):
            return False, "G_OMEGA conclusion must be relativized to N"
        body = c.body.right
        fam_step = next((k for k in kids if isinstance(k, SchemaConj)), None)
        if fam_step != SchemaConj(c.var, body, step.family):
            return False, "premise family does not match the conclusion"
        return True, None
    if step.rule in ("forallE", "S_FORALL_E", "I_FORALL_E", "G_FORALL_E"):
        if len(kids) != 1 or not isinstance(kids[0], Forall):
            return False, "forall-elimination premise must be universal"
        prem = kids[0]
        (t,) = step.params
        target = prem.body
        if step.rule == "G_FORALL_E":
            if not (isinstance(target, Or) and isinstance(target.left, Not)):
                return False, "G_FORALL_E premise must be N-relativized"
        if substitute(target, prem.var.name, t) != c:
            return False, "conclusion is not the premise instantiated at the parameter"
        if step.rule == "S_FORALL_E" and not _is_base_constant_term(t, vocab):
            return False, "S_FORALL_E instantiates at base constant terms"
        return True, None
    if step.rule in ("existsI", "S_EXISTS_I", "I_EXISTS_I"):
        if not isinstance(c, Exists):
            return False, "exists-introduction conclusion must be existential"
        (t,) = step.params
        if len(kids) != 1 or substitute(c.body, c.var.name, t) != kids[0]:
            return False, "premise is not the conclusion body at the witness"
        return True, None
    if step.rule == "forallI":
        if not isinstance(c, Forall):
            return False, "forallI conclusion must be universal"
        (eig,) = step.params
        if len(kids) != 1 or substitute(c.body, c.var.name, eig) != kids[0]:
            return False, "premise is not the body at the eigenconstant"
        if any(eig == k for k in constants_in(c.body)):
            return False, "eigenvariable: eigenconstant occurs in the conclusion"
        for a in open_assumptions:
            if any(eig == k for k in constants_in(a)):
                return False, "eigenvariable: eigenconstant occurs in an open assumption"
        return True, None
    if step.rule == "eqI":
        if not (isinstance(c, Eq) and c.left == c.right and not kids):
            return False, "eqI concludes t = t from nothing"
        return True, None
    if step.rule == "eqE":
        if len(kids) != 2 or not isinstance(kids[0], Eq):
            return False, "eqE needs an equation and a premise formula"
        return True, None
    if step.rule == "negE":
        if not isinstance(c, Absurd):
            return False, "negE concludes absurdity"
        if len(kids) != 2:
            return False, "negE needs a sentence and its negation"
        a, b = kids
        if Not(a) != b and Not(b) != a:
            return False, "negE premises must be a sentence and its negation"
        return True, None
    return False, f"no checker for rule {step.rule!r}"


# ---------------------------------------------------------------------------
# The proper-extension refutation engine


REFUTATION_RULES = ("I_OMEGA", "I_FORALL_E", "eqI", "negE")


def refute_extension(presentation, theory, extension: str) -> Step:
    """The Theorem-style refutation of a proper extension: assuming a fresh
    element d distinct from every named element, derive absurdity."""
    vocab = presentation.vocab
    if presentation.kind != "term-generated":
        raise SchemaError("presentation must name every element "
                          "(term-generated, all elements named)")
    if extension in vocab.symbols or extension in vocab.families:
        raise SchemaError(f"extension constant {extension!r} is not fresh")
    naming = presentation.generated_by  # 'tau' or a generator family
    if naming == "tau" and not vocab.constants():
        raise SchemaError("no named elements: the omega-rule is powerless here")

    sort = (vocab.sorts[0] if naming == "tau"
            else vocab.family(naming).sort)
    d = Const(extension, sort)
    hole = Var("x", sort)
    body = Not(Eq(hole, d))

    family_step = Step("family", SchemaConj(hole, body, naming),
                       family=naming, tag="schema-assumed")
    omega_step = Step("I_OMEGA", Forall(hole, body), (family_step,),
                      family=naming)
    inst_step = Step("I_FORALL_E", Not(Eq(d, d)), (omega_step,), params=(d,))
    eq_step = Step("eqI", Eq(d, d), params=(d,))
    return Step("negE", BOT, (inst_step, eq_step))


def refutation_vocabulary(presentation, extension: str) -> Vocabulary:
    """The expanded vocabulary tau(C) carrying the fresh constant."""
    vocab = presentation.vocab
    sort = (vocab.sorts[0] if presentation.generated_by == "tau"
            else vocab.family(presentation.generated_by).sort)
    return vocab.expand(ConstantFamily("_ext", sort, members=(extension,)))


# ---------------------------------------------------------------------------
# Derivation files


def print_derivation(root: Step) -> str:
    lines = []

    def walk(step, depth):
        indent = "  " * depth
        if step.rule == "family":
            lines.append(f"{indent}family {print_formula(step.conclusion)} "
                         f"tag={step.tag}")
        else:
            params = ""
            if step.params:
                params = "[" + ", ".join(print_term(t) for t in step.params) + "]"
            fam = f" family={step.family}" if step.family else ""
            lines.append(f"{indent}{step.rule}{params}:{fam} "
                         f"{print_formula(step.conclusion)}")
        for child in step.children:
            walk(child, depth + 1)

    walk(root, 0)
    return "\n".join(lines) + "\n"


def parse_derivation(text: str, vocab: Vocabulary) -> Step:
    """Inverse of print_derivation: one step per line, two-space indentation
    for children."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip())
        if indent % 2:
            raise SyntaxError_("odd indentation in derivation", lineno, 1)
        entries.append((indent // 2, stripped.strip(), lineno))

    def build(pos, depth):
        level, line, lineno = entries[pos]
        if level != depth:
            raise SyntaxError_("bad derivation nesting", lineno, 1)
        step, pos = _parse_step_line(line, lineno, vocab), pos + 1
        children = []
        while pos < len(entries) and entries[pos][0] == depth + 1:
            child, pos = build(pos, depth + 1)
            children.append(child)
        return Step(step.rule, step.conclusion, tuple(children),
                    step.params, step.family, step.tag), pos

    if not entries:
        raise SyntaxError_("empty derivation")
    root, pos = build(0, 0)
    if pos != len(entries):
        raise SyntaxError_("multiple roots in derivation file")
    return root


def _parse_step_line(line, lineno, vocab):
    if line.startswith("family "):
        rest = line[len("family "):]
        if " tag=" not in rest:
            raise SyntaxError_("family step missing tag", lineno, 1)
        formula_txt, tag = rest.rsplit(" tag=", 1)
        f = parse_formula(formula_txt.strip(), vocab)
        if not isinstance(f, SchemaConj):
            raise SyntaxError_("family step needs a schema-conjunction", lineno, 1)
        return Step("family", f, family=f.family, tag=tag.strip())
    head, _, formula_txt = line.partition(":")
    head = head.strip()
    family = None
    if formula_txt.lstrip().startswith("family="):
        fam_txt, _, formula_txt = formula_txt.lstrip().partition(" ")
        family = fam_txt[len("family="):]
    params = ()
    if "[" in head:
        rule, bracket = head.split("[", 1)
        if not bracket.endswith("]"):
            raise SyntaxError_("unterminated parameter list", lineno, 1)
        params = tuple(parse_term(p.strip(), vocab)
                       for p in bracket[:-1].split(","))
    else:
        rule = head
    return Step(rule.strip(), parse_formula(formula_txt.strip(), vocab),
                params=params, family=family)


# ---------------------------------------------------------------------------
# Applicability analysis


def applicability_report(theory, vocab: Vocabulary, schema: str) -> dict:
    """Which premise families could feed the given omega-rule schema, and
    what blocks it when none can."""
    if schema not in ("S_OMEGA", "I_OMEGA", "G_OMEGA"):
        raise SchemaError(f"applicability analysis covers omega schemas, "
                          f"not {schema!r}")
    usable = []
    blockers = []
    countable = [f for f in vocab.families.values() if f.countable]
    if schema == "G_OMEGA":
        if "N" not in vocab.sorts:
            blockers.append("no N-sort")
        else:
            usable = [f.name for f in countable if f.sort == "N"]
            if not usable:
                blockers.append("no countable N-sort constant family")
        return {"schema": schema, "usable_families": usable,
                "count": len(usable), "blockers": blockers,
                "axioms": len(tuple(theory))}

    usable = [f.name for f in countable]
    if vocab.constants():
        if vocab.functions():
            usable.insert(0, "tau")  # infinitely many constant terms
        elif not usable:
            blockers.append("only finitely many constant terms "
                            "(dcl(empty) finite)")
    elif not usable:
        blockers.append("no constants")
    return {"schema": schema, "usable_families": usable,
            "count": len(usable), "blockers": blockers,
            "axioms": len(tuple(theory))}
