"""Quantifier and omega-rule schemas: instantiation, fuel-bounded soundness
checking, syntactic derivation checking with symbolic premise families, the
proper-extension refutation engine, and applicability analysis.

Symbolic infinite premise families are never enumerated: derivations justify
them with tags, and soundness mode spot-checks them at bounded fuel.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional

from .syntax import (
    App, Atom, BOT, Const, ConstantFamily, Eq, Exists,
    FamilyMember, Forall, Formula, Not, Or, SchemaConj, SyntaxError_, Term,
    Var, Vocabulary, constants_in, implies, nodes, parse_formula, parse_term,
    print_formula, print_term, substitute, term_is_ground,
)
from .structures import TruthAtFuel, _family_terms, eval_sentence


SCHEMA_NAMES = (
    "forallI", "forallE", "existsI", "existsE", "eqI", "eqE",
    "S_OMEGA", "S_FORALL_E", "S_EXISTS_I", "S_EXISTS_E",
    "I_OMEGA", "I_FORALL_E", "I_EXISTS_I", "I_EXISTS_E",
    "G_OMEGA", "G_FORALL_E",
)

# rules that may additionally appear in derivations
EXTRA_DERIVATION_RULES = ("negE",)


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

    @property
    def all_premises(self) -> tuple:
        """The finite premises, the extra premises, then the family."""
        family = () if self.premise_family is None else (self.premise_family,)
        return self.premises + self.extra_premises + family


def _is_base_constant_term(t: Term, vocab: Vocabulary) -> bool:
    """Ground term built from base constants and functions only."""
    return all(isinstance(n, App) or isinstance(n, Const)
               and n.name in vocab.symbols for n in nodes(t))


def instantiate_schema(vocab: Vocabulary, schema: str, body=None, hole=None,
                       params=(), family=None, guard=None) -> RuleInstanceQ:
    """Build a rule instance from its schema, checking side conditions.

    This is the one definition of each rule: `check_derivation` rebuilds
    every schema step with it, and `check_instance_sound` spot-checks what
    it builds.  `body` is the formula with `hole` free; the omega rules take
    a premise `family` ('tau' or a family name) and G_OMEGA its sort
    `guard`.  G_OMEGA concludes forall x. (N(x) -> body) and G_FORALL_E
    eliminates that to N(t) -> body(t) at its parameter t.  The existsE
    schemas discharge an assumption and have no standalone instance.  A
    malformed request (an unknown family, a parameter of the wrong sort)
    raises SchemaError."""
    if schema not in SCHEMA_NAMES:
        raise SchemaError(f"unknown schema {schema!r}")
    if schema in ("existsE", "S_EXISTS_E", "I_EXISTS_E"):
        raise SchemaError(f"{schema} discharges an assumption, which no "
                          "checked rule does; it has no standalone instance")
    params = tuple(params)
    for t in params:
        if not term_is_ground(t):
            raise SchemaError(f"parameter {print_term(t)} is not ground")
    if schema != "eqI" and (body is None or hole is None):
        raise SchemaError(f"{schema} needs a body and its hole")

    def arity(n):
        if len(params) != n:
            raise SchemaError(f"{schema} takes {n} parameter(s), "
                              f"not {len(params)}")
        return params

    def sub(t):
        try:
            return substitute(body, hole.name, t)
        except ValueError as e:
            raise SchemaError(str(e)) from None

    if schema in ("S_OMEGA", "I_OMEGA", "G_OMEGA"):
        if family is None:
            raise SchemaError(f"{schema} requires a premise family")
        if family != "tau" and family not in vocab.families:
            raise SchemaError(f"unknown constant family {family!r}")
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
        (t,) = arity(1)
        if schema == "S_FORALL_E" and not _is_base_constant_term(t, vocab):
            raise SchemaError("S_FORALL_E instantiates at base constant terms")
        prem, concl = body, sub(t)
        if schema == "G_FORALL_E":
            prem = implies(Atom("N", (hole,)), body)
            concl = implies(Atom("N", (t,)), concl)
        return RuleInstanceQ(schema, body, hole, params, family,
                             premises=(Forall(hole, prem),),
                             conclusions=(concl,))

    if schema in ("existsI", "S_EXISTS_I", "I_EXISTS_I"):
        (t,) = arity(1)
        if schema == "S_EXISTS_I" and not _is_base_constant_term(t, vocab):
            raise SchemaError("S_EXISTS_I instantiates at base constant terms")
        return RuleInstanceQ(schema, body, hole, params, family,
                             premises=(sub(t),),
                             conclusions=(Exists(hole, body),))

    if schema == "forallI":
        (c,) = arity(1)
        if not isinstance(c, (Const, FamilyMember)):
            raise SchemaError(f"eigenconstant {print_term(c)} is not a "
                              "constant")
        if c in constants_in(body):
            raise SchemaError("eigenconstant occurs in the conclusion body")
        return RuleInstanceQ(schema, body, hole, params, family,
                             premises=(sub(c),),
                             conclusions=(Forall(hole, body),))

    if schema == "eqI":
        (t,) = arity(1)
        return RuleInstanceQ(schema, params=params,
                             conclusions=(Eq(t, t),))

    if schema == "eqE":
        t1, t2 = arity(2)
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
    facts: tuple = ()  # (label, formula or None) pairs behind the witness

    @property
    def witness(self) -> Optional[str]:
        """The facts as text, formatted only when read; None for none."""
        return "; ".join(label if f is None else f"{label}: {print_formula(f)}"
                         for label, f in self.facts) or None


def _target_eval(target, f, fuel):
    if hasattr(target, "kind"):  # a structure
        return eval_sentence(target, f, fuel, fragment=True)
    # a valuation: look sentences up; spot-check schema families memberwise
    if isinstance(f, SchemaConj):
        members, _ = _family_terms(target.vocab, f.family, fuel,
                                   f.hole.sort)
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
    premises = inst.all_premises
    prem_vals = [_target_eval(target, p, fuel) for p in premises]
    concl_vals = [_target_eval(target, c, fuel) for c in inst.conclusions]
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
    """Purely syntactic derivation checking.  Each step is rebuilt from its
    schema by `instantiate_schema`, with the body, hole and guard the step
    shows (see `_shown_instance`): the step is valid when its children
    conclude the instance's premises, in any order, and it concludes the
    instance's conclusion.  `negE` is not a schema and is checked on its
    own.  Axiom leaves must be in the theory, family leaves must carry a
    justified tag, and assumption leaves never check, since no rule
    discharges one.  Children are reported before their step."""
    theory = tuple(theory)
    rules = tuple(rules)
    assumed = tuple(assumed_families)

    def fail(step, reason):
        return CheckResult(False, step, reason)

    def check(step: Step):
        if step.rule == "axiom":
            if step.conclusion not in theory:
                return fail(step, "axiom not in theory")
            return CheckResult(True)
        if step.rule == "assumption":
            return fail(step, "dangling assumption "
                        f"{print_formula(step.conclusion)}")
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
        for child in step.children:
            r = check(child)
            if not r.valid:
                return r
        kids = tuple(c.conclusion for c in step.children)

        if step.rule == "negE":
            if step.conclusion != BOT or len(kids) != 2 or (
                    Not(kids[0]) != kids[1] and Not(kids[1]) != kids[0]):
                return fail(step, "negE concludes absurdity from a sentence "
                            "and its negation")
            return CheckResult(True)
        try:
            inst = _shown_instance(step, kids, vocab)
        except SchemaError as e:
            return fail(step, str(e))
        if Counter(kids) != Counter(inst.all_premises):
            return fail(step, f"premises are not those of the {step.rule} "
                        "instance: " + "; ".join(
                            print_formula(p) for p in inst.all_premises))
        if (step.conclusion,) != inst.conclusions:
            return fail(step, f"conclusion is not that of the {step.rule} "
                        f"instance: {print_formula(inst.conclusions[0])}")
        if step.rule == "forallI":  # no leaf under it may name its constant
            c, todo = inst.params[0], list(step.children)
            while todo:
                s = todo.pop()
                todo += s.children
                if s.rule in ("axiom", "family", "assumption") and \
                        c in constants_in(s.conclusion):
                    return fail(step, f"eigenconstant {print_term(c)} occurs "
                                f"in the {s.rule} {print_formula(s.conclusion)}")
        return CheckResult(True)

    return check(root)


def _shown_instance(step: Step, kids, vocab) -> RuleInstanceQ:
    """The instance of the step's schema at the body, hole and guard the step
    shows: a forall-elimination shows them in its premise, eqE in its two
    formulas (its premise is the one that is not the equation), every other
    schema in its conclusion, and G_OMEGA shows its guard as its premise
    that is not the family."""
    if step.rule == "eqE":
        if len(kids) != 2 or len(step.params) != 2:
            raise SchemaError("eqE rewrites a premise by an equation t1 = t2 "
                              "given as its parameters [t1, t2]")
        t1, t2 = step.params
        hole = Var(_EQE_HOLE, t1.sort)
        prem = kids[1] if kids[0] == Eq(t1, t2) else kids[0]
        body = _hole_between(prem, step.conclusion, t1, t2, hole)
        if body is _NO_HOLE:
            raise SchemaError("conclusion is not the premise with some "
                              f"{print_term(t1)} rewritten to {print_term(t2)}")
        return instantiate_schema(vocab, "eqE", body, hole, step.params)
    elim = step.rule in ("forallE", "S_FORALL_E", "I_FORALL_E", "G_FORALL_E")
    shown = (kids[0] if kids else None) if elim else step.conclusion
    hole = body = None
    if isinstance(shown, (Forall, Exists)):
        hole, body = shown.var, shown.body
        if (step.rule.startswith("G_") and isinstance(body, Or)
                and body.left == Not(Atom("N", (hole,)))):
            body = body.right
    # only G_OMEGA reads a guard: its premise that is not the family
    guard = next((k for k in kids if not isinstance(k, SchemaConj)), None)
    return instantiate_schema(vocab, step.rule, body, hole, step.params,
                              step.family, guard)


# '#' starts a comment in every input format, so no parsed variable has this
# name and the hole read by eqE is never captured by a quantifier
_EQE_HOLE = "#"
_NO_HOLE = object()


def _hole_between(p, c, t1, t2, hole):
    """The formula (or term) that shows `hole` wherever `p` shows t1 and `c`
    shows t2, and agrees with both everywhere else; _NO_HOLE if none does."""
    if p == c:
        return p
    if p == t1 and c == t2:
        return hole
    if isinstance(p, tuple) and isinstance(c, tuple) and len(p) == len(c):
        parts = tuple(_hole_between(a, b, t1, t2, hole) for a, b in zip(p, c))
    elif type(p) is type(c) and is_dataclass(p):
        parts = tuple(_hole_between(getattr(p, f.name), getattr(c, f.name),
                                    t1, t2, hole) for f in fields(p))
    else:
        return _NO_HOLE
    if any(part is _NO_HOLE for part in parts):
        return _NO_HOLE
    return parts if isinstance(p, tuple) else type(p)(*parts)


# ---------------------------------------------------------------------------
# The proper-extension refutation engine


REFUTATION_RULES = ("I_OMEGA", "I_FORALL_E", "eqI", "negE")


def refute_extension(presentation, extension: str) -> Step:
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
        step = _parse_step_line(line, lineno, 2 * depth + 1, vocab)
        pos += 1
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


def _parse_step_line(line, lineno, col, vocab):
    """One step; `line` starts at column `col` of file line `lineno`."""

    def parse(parse_fn, text, start):  # text starts at line[start:]
        try:
            return parse_fn(text.strip(), vocab)
        except SyntaxError_ as e:
            pad = len(text) - len(text.lstrip())
            raise e.at(lineno, col + start + pad) from None

    if line.startswith("family "):
        rest = line[len("family "):]
        if " tag=" not in rest:
            raise SyntaxError_("family step missing tag", lineno, 1)
        formula_txt, tag = rest.rsplit(" tag=", 1)
        f = parse(parse_formula, formula_txt, len("family "))
        if not isinstance(f, SchemaConj):
            raise SyntaxError_("family step needs a schema-conjunction", lineno, 1)
        return Step("family", f, family=f.family, tag=tag.strip())
    head, _, formula_txt = line.partition(":")
    family = None
    if formula_txt.lstrip().startswith("family="):
        fam_txt, _, formula_txt = formula_txt.lstrip().partition(" ")
        family = fam_txt[len("family="):]
    params = ()
    if "[" in head:
        rule, bracket = head.split("[", 1)
        if not bracket.rstrip().endswith("]"):
            raise SyntaxError_("unterminated parameter list", lineno, 1)
        start = len(rule) + 1
        for p in bracket.rstrip()[:-1].split(","):
            params += (parse(parse_term, p, start),)
            start += len(p) + 1
    else:
        rule = head
    conclusion = parse(parse_formula, formula_txt, len(line) - len(formula_txt))
    return Step(rule.strip(), conclusion, params=params, family=family)


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
