"""Quantifier and omega-rule schemas: instantiation, fuel-bounded soundness
checking, syntactic derivation checking with symbolic premise families, the
proper-extension refutation engine, and applicability analysis.

Symbolic infinite premise families are never enumerated: derivations justify
them with tags, and soundness mode spot-checks them at bounded fuel.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Optional

from .syntax import (
    App, Atom, BOT, Const, ConstantFamily, Eq, Exists,
    FamilyMember, Forall, Formula, Not, Or, SchemaConj, SyntaxError_, Term,
    Var, Vocabulary, constants_in, implies, nodes, parse_at, parse_formula,
    parse_term, print_formula, print_term, read_lines, substitute,
    term_is_ground,
)
from .evaluation import Sentences, eval_sentences
from .structures import TruthAtFuel


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

    # What `check_instance_sound` keeps on the instance, made on first use:
    # the premises then the conclusions as one `Sentences`, compiled once
    # per kind of structure, with the number of premises; and its
    # verdicts, one per (fuel, outcome).  Neither is a field, so neither
    # enters equality.

    @functools.cached_property
    def _facts(self) -> tuple:
        premises = self.all_premises
        return Sentences(premises + self.conclusions), len(premises)

    @functools.cached_property
    def _verdicts(self) -> dict:
        return {}


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
    `guard`, which must read `forall v:S. N(v)` with S the sort of the
    hole.  G_OMEGA concludes forall x. (N(x) -> body) and G_FORALL_E
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
        # G_OMEGA: the guard says that N holds on the hole's whole sort
        if guard is None:
            raise SchemaError("G_OMEGA requires the sort-guard premise")
        if not (isinstance(guard, Forall) and guard.var.sort == hole.sort
                and guard.body is Atom("N", (guard.var,))):
            raise SchemaError(f"G_OMEGA's sort guard must read forall v:"
                              f"{hole.sort}. N(v), not "
                              f"{print_formula(guard)}")
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
    """The truth of `f` in the valuation `target`: sentences are looked up,
    and schema families spot-checked memberwise, in range order, stopping
    at the first false member."""
    if isinstance(f, SchemaConj):
        vocab, sort = target.vocab, f.hole.sort
        if f.family != "tau":
            members, _ = vocab.family(f.family).range_at(fuel)
        else:  # the first `fuel` closed terms, and every constant
            members = itertools.islice(vocab.tau_stream(sort), max(
                fuel, len(vocab.constants(sort))))
        value = "true"
        for m in members:
            v = target.value(substitute(f.body, f.hole.name, m))
            if v is False:
                return TruthAtFuel("false", fuel)
            if v is not True:
                value = "unknown"
        return TruthAtFuel(value, fuel)
    v = target.value(f)
    if v is None:
        return TruthAtFuel("unknown", fuel)
    return TruthAtFuel("true" if v else "false", fuel)


# a valuation's `TruthAtFuel` values as the truth values of `eval_sentences`
_TRUTH = {"true": True, "false": False, "unknown": None}


def check_instance_sound(target, inst: RuleInstanceQ,
                         fuel: int = 8) -> SoundnessVerdict:
    """Spot-check one rule instance on `target`, a structure or a valuation.

    The instance is unsound iff every premise (the symbolic family too,
    spot-checked at `fuel`, with bounded-fragment quantifier semantics) is
    true and every conclusion false.  The premises are read in
    `inst.all_premises` order: the first false one makes the instance
    sound, with that premise as its fact.  Then the conclusions are read in
    order, and the first true one makes it sound, with no fact.  The
    verdict is unsound, with every premise and conclusion as facts, only
    when every premise read true and every conclusion false; otherwise it
    is unknown.  Nothing is evaluated after the deciding premise or
    conclusion, so an error that a later one would raise does not surface,
    as with `eval_sentence`, which stops at the first false conjunct.

    On a structure the premises and then the conclusions are read through
    one plan (`eval_sentences`), compiled once per instance and kind of
    structure and kept on the instance, in one evaluation frame, so each
    sort and premise family is listed once per check; each fact's value,
    and the error it raises, are those of `eval_sentence` with
    bounded-fragment semantics.  A valuation reads each fact by
    `_target_eval`.  Each verdict is made once per instance, fuel and
    outcome, and shared, as verdicts are frozen (`_verdict`)."""
    facts, n = inst._facts
    if hasattr(target, "kind"):  # a structure
        values = eval_sentences(target, facts, fuel, fragment=True)
    else:
        values = (_TRUTH[_target_eval(target, f, fuel).value]
                  for f in facts.formulas)
    all_as_unsound = True
    for i, v in enumerate(values):
        if i < n:
            if v is False:
                return _verdict(inst, fuel, i)
            all_as_unsound = all_as_unsound and v is True
        elif v is True:
            return _verdict(inst, fuel, i)
        else:
            all_as_unsound = all_as_unsound and v is False
    return _verdict(inst, fuel, "unsound" if all_as_unsound else "unknown")


def _verdict(inst, fuel, outcome):
    """The verdict of `inst` at `fuel` for `outcome`, made once per
    instance, fuel and outcome: for the index of the deciding fact in
    `inst._facts`, "sound", with the premise if it is a false premise and
    no fact for a true conclusion; "unknown", with no fact; or "unsound",
    with every premise and conclusion."""
    key = (fuel, outcome)
    verdict = inst._verdicts.get(key)
    if verdict is None:
        sentences, n = inst._facts
        premises, conclusions = sentences.formulas[:n], sentences.formulas[n:]
        if outcome == "unknown":
            verdict = SoundnessVerdict("unknown", fuel)
        elif outcome == "unsound":
            facts = [("premise true", p) for p in premises]
            facts += [("conclusion false", c) for c in conclusions]
            if not conclusions:
                facts.append(("empty conclusion set is always false", None))
            verdict = SoundnessVerdict("unsound", fuel, tuple(facts))
        else:
            facts = ((("premise false", premises[outcome]),)
                     if outcome < n else ())
            verdict = SoundnessVerdict("sound", fuel, facts)
        inst._verdicts[key] = verdict
    return verdict


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

    d = Const(extension, _refuted_sort(presentation))
    hole = Var("x", d.sort)
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
    return presentation.vocab.expand(ConstantFamily(
        "_ext", _refuted_sort(presentation), members=(extension,)))


def _refuted_sort(presentation):
    """The sort of the fresh element: the generating family's, or the
    first sort for `tau` (ROADMAP item 1)."""
    naming = presentation.generated_by
    if naming == "tau":
        return presentation.vocab.sorts[0]
    return presentation.vocab.family(naming).sort


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
    path = []  # the open steps from the root down, each with its children

    def close(depth):
        """Finish the open steps below `depth`; the last one finished."""
        step = None
        while len(path) > depth:
            step, children = path.pop()
            step = replace(step, children=tuple(children))
            if path:
                path[-1][1].append(step)
        return step

    def read(line):
        depth, odd = divmod(line[2] - 1, 2)
        if odd:
            raise SyntaxError_("odd indentation in derivation")
        if depth == 0 and path:
            raise SyntaxError_("multiple roots in derivation file")
        if depth > len(path):
            raise SyntaxError_("bad derivation nesting")
        close(depth)
        path.append((_parse_step(line, vocab), []))

    read_lines(text, "derivation", read)
    if not path:
        raise SyntaxError_("empty derivation")
    return close(0)


def _parse_step(line, vocab):
    """The step on `line`, as `read_lines` gives it."""
    code = line[0]
    if code.startswith("family "):
        tag = code.rfind(" tag=")
        if tag < 0:
            raise SyntaxError_("family step missing tag")
        f = parse_at(parse_formula, line, len("family "), vocab, tag)
        if not isinstance(f, SchemaConj):
            raise SyntaxError_("family step needs a schema-conjunction")
        return Step("family", f, family=f.family,
                    tag=code[tag + len(" tag="):].strip())
    head, _, formula_txt = code.partition(":")
    family = None
    if formula_txt.lstrip().startswith("family="):
        fam_txt, _, formula_txt = formula_txt.lstrip().partition(" ")
        family = fam_txt[len("family="):]
    params = ()
    if "[" in head:
        rule, bracket = head.split("[", 1)
        if not bracket.rstrip().endswith("]"):
            raise SyntaxError_("unterminated parameter list")
        start = len(rule) + 1
        for p in bracket.rstrip()[:-1].split(","):
            params += (parse_at(parse_term, line, start, vocab,
                                start + len(p)),)
            start += len(p) + 1
    else:
        rule = head
    conclusion = parse_at(parse_formula, line, len(code) - len(formula_txt),
                          vocab)
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
