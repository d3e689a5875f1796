"""Morley coding: compile a Chang bundle (base theory plus an enumeration of
principal types with generating formulas) into the two-sorted theory that
codes every declared type by a standard constant, and verify candidate
finite two-sorted structures against it.

The emitted theory file is a deterministic, byte-stable artifact: identical
bundles produce identical bytes.
"""

import itertools
import re
from dataclasses import dataclass, replace

from .syntax import (
    Formula, SyntaxError_, Vocabulary, free_variables, map_children,
    parse_at, parse_axiom, parse_formula, parse_vocabulary, print_formula,
    read_lines,
)
from .structures import EvalError, eval_sentence


class BundleError(SyntaxError_):
    """A Chang bundle that does not parse or cannot be coded."""


@dataclass
class ChangBundle:
    """Base theory plus an injective enumeration of principal types."""

    vocab: Vocabulary
    axioms: tuple  # of Formula (sentences over the base vocabulary)
    types: dict  # arity -> tuple of generating formulas, index order
    note: str = "unnamed"


@dataclass
class MorleyTheory:
    vocab: Vocabulary
    axioms: tuple  # of (label, Formula)
    schema: tuple  # ("G_OMEGA", family name)
    text: str
    note: str = "unnamed"


@dataclass
class MorleyVerdict:
    status: str  # 'pass' | 'violation'
    trace: tuple = ()

    def __bool__(self):
        return self.status == "pass"


# ---------------------------------------------------------------------------
# Bundle loading


_TYPE_RE = re.compile(r"type\s+n=(\d+)\s+i=(\d+)\s*:\s*(.*)")


def chang_bundle_load(text: str) -> ChangBundle:
    """Parse the bundle grammar:

        note <label>
        base-vocab {
          sort Z
          rel < : Z Z
        }
        axiom <sentence>
        type n=<arity> i=<index> : <formula in v0..>
    """
    note = "unnamed"
    vocab = None
    block = None  # the open base-vocab line and the lines below it
    axioms = []
    types = {}

    def read(line):
        nonlocal note, vocab, block
        code = line[0]
        if block is not None:
            if code == "}":
                vocab = parse_vocabulary(block[1:])
                block = None
            else:
                block.append(line)
        elif code.startswith("note"):
            note = code[len("note"):].strip()
        elif code.startswith("base-vocab"):
            block = [line]
        elif vocab is None and code.startswith(("axiom", "type")):
            raise BundleError(f"{code.split()[0]} before base-vocab")
        elif code.startswith("axiom"):
            axioms.append(parse_axiom(line, vocab))
        elif code.startswith("type"):
            m = _TYPE_RE.fullmatch(code)
            if not m:
                raise BundleError(f"malformed type line: {code!r}")
            n, i = int(m.group(1)), int(m.group(2))
            sort = vocab.sorts[0]
            f = parse_at(parse_formula, line, m.start(3), vocab,
                         bound=[(f"v{k}", sort) for k in range(n)])
            want = {f"v{k}" for k in range(n)}
            if set(free_variables(f)) != want:
                raise BundleError(
                    f"type n={n} i={i}: free variables "
                    f"{sorted(free_variables(f))} do not match arity")
            got = types.setdefault(n, [])
            if i != len(got):
                raise BundleError(
                    f"type n={n}: index i={i} out of order (expected "
                    f"{len(got)})")
            if f in got:
                raise BundleError(
                    f"type n={n} i={i}: duplicate generating formula")
            got.append(f)
        else:
            raise BundleError(f"unknown bundle line: {code!r}")

    read_lines(text, "bundle", read)
    if block is not None:
        raise BundleError("base-vocab block is not closed", block[0][1], 1)
    if vocab is None:
        raise BundleError("bundle declares no base-vocab")
    if len(vocab.sorts) != 1:
        raise BundleError("base vocabulary must have exactly one sort")
    return ChangBundle(vocab, tuple(axioms),
                       {n: tuple(fs) for n, fs in sorted(types.items())},
                       note)


def load_bundle(path) -> ChangBundle:
    with open(path) as fh:
        return chang_bundle_load(fh.read())


# ---------------------------------------------------------------------------
# Compilation


def _retype(f: Formula, sort_map) -> Formula:
    """Rebuild a formula with sorts renamed (relativization to V)."""
    g = map_children(f, lambda c: _retype(c, sort_map))
    sort = getattr(g, "sort", None)
    return replace(g, sort=sort_map[sort]) if sort in sort_map else g


def _strip_outer(printed: str) -> str:
    """Drop one pair of enclosing parentheses when they span the string."""
    if not (printed.startswith("(") and printed.endswith(")")):
        return printed
    depth = 0
    for i, ch in enumerate(printed):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0 and i != len(printed) - 1:
                return printed
    return printed[1:-1]


def morley_code(b: ChangBundle) -> MorleyTheory:
    """Emit the two-sorted coding theory per the fixed template."""
    base_sort = b.vocab.sorts[0]
    sort_map = {base_sort: "V"}
    for d in b.vocab.symbols.values():
        if d.name in ("N", "V") or any(
                f"R{n}" == d.name for n in b.types):
            raise BundleError(f"base symbol {d.name!r} clashes with the "
                              "coding vocabulary")

    members = [f"c_{n}_{i}" for n in b.types for i in range(len(b.types[n]))]
    decl_lines = ["sort N", "sort V", "rel N : N", "rel V : V"]
    for n in b.types:
        decl_lines.append(f"rel R{n} : N {' '.join(['V'] * n)}")
    for d in b.vocab.symbols.values():
        if d.kind == "rel":
            decl_lines.append(f"rel {d.name} : {' '.join(['V'] * d.arity)}")
        elif d.kind == "const":
            decl_lines.append(f"const {d.name} : V")
        else:
            decl_lines.append(
                f"fun {d.name} : {' '.join(['V'] * d.arity)} -> V")
    decl_lines.append(f"family c : N = {{ {' '.join(members)} }}")

    axiom_lines = []
    axiom_lines.append(("sort-predicate", "forall x0:N. N(x0)"))
    axiom_lines.append(("sort-predicate", "forall v0:V. V(v0)"))
    for ax in b.axioms:
        axiom_lines.append(
            ("relativized", _strip_outer(print_formula(_retype(ax,
                                                               sort_map)))))
    for a in range(len(members)):
        for bb in range(a + 1, len(members)):
            axiom_lines.append(
                ("distinctness", f"{members[a]} != {members[bb]}"))
    for n, gens in b.types.items():
        vs = ", ".join(f"v{k}" for k in range(n))
        prefix = " ".join(f"forall v{k}:V." for k in range(n))
        for i, g in enumerate(gens):
            body = _strip_outer(print_formula(_retype(g, sort_map)))
            axiom_lines.append(
                ("coding",
                 f"{prefix} (R{n}(c_{n}_{i}, {vs}) <-> {body})"))
    for n in b.types:
        prefix = " ".join(f"forall v{k}:V." for k in range(n))
        vs = ", ".join(f"v{k}" for k in range(n))
        axiom_lines.append(
            ("totality", f"{prefix} exists v{n}:N. R{n}(v{n}, {vs})"))

    lines = [f"# Morley coding of {b.note}"]
    lines += decl_lines
    lines.append("schema G_OMEGA over c")
    lines.append("")
    for _label, ax in axiom_lines:
        lines.append(f"axiom {ax}")
    text = "\n".join(lines) + "\n"

    vocab = parse_vocabulary("\n".join(decl_lines))
    axioms = tuple((label, parse_formula(ax, vocab, require_sentence=True))
                   for label, ax in axiom_lines)
    return MorleyTheory(vocab, axioms, ("G_OMEGA", "c"), text, b.note)


# ---------------------------------------------------------------------------
# Theory files


def parse_theory(text: str) -> MorleyTheory:
    """Re-read an emitted theory file."""
    note = re.search(r"^[ \t]*# Morley coding of(.*)", text, re.M)
    schema = [("G_OMEGA", "c")]

    def read_schema(line):
        if line[0].startswith("schema"):
            parts = line[0].split()
            if len(parts) != 4 or parts[2] != "over":
                raise SyntaxError_(f"malformed schema line: {line[0]!r}")
            schema.append((parts[1], parts[3]))

    lines = read_lines(text, "theory", read_schema)
    # every other line declares the vocabulary
    vocab = parse_vocabulary([line for line in lines
                              if not line[0].startswith(("axiom", "schema"))])
    axioms = tuple(("axiom", parse_axiom(line, vocab)) for line in lines
                   if line[0].startswith("axiom"))
    return MorleyTheory(vocab, axioms, schema[-1], text,
                        note.group(1).strip() if note else "unnamed")


def load_theory(path) -> MorleyTheory:
    with open(path) as fh:
        return parse_theory(fh.read())


# ---------------------------------------------------------------------------
# G-omega model verification


_MEMBER_RE = re.compile(r"c_(\d+)_(\d+)")


def verify_omega_model(t: MorleyTheory, candidate, fuel: int = 8) -> MorleyVerdict:
    """Pass iff all axioms hold and every V-tuple is coded by a flagged
    standard constant; otherwise a violation trace through the totality
    axiom, mirroring the refutation of the uncoded tuple."""
    if fuel <= 0:
        raise EvalError("fuel must be positive")
    if candidate.kind != "finite":
        raise EvalError("verify_omega_model requires a finite candidate")
    for sort in ("N", "V"):
        if sort not in candidate.vocab.sorts or not candidate.domains.get(sort):
            raise EvalError(f"candidate is missing sort {sort}")
    fam = t.vocab.family(t.schema[1])
    flagged = {}
    for m in fam.members:
        if m not in candidate.constants:
            raise EvalError(f"missing flagged constant {m}")
        flagged[m] = candidate.constants[m]

    for label, ax in t.axioms:
        tv = eval_sentence(candidate, ax, fuel)
        if tv.value != "true":
            return MorleyVerdict("violation", (
                f"{label} axiom fails in {candidate.name}:",
                f"  {print_formula(ax)}"))

    by_arity = {}
    for m in fam.members:
        g = _MEMBER_RE.fullmatch(m)
        if g:
            by_arity.setdefault(int(g.group(1)), []).append(m)
    for n, names in sorted(by_arity.items()):
        rel = f"R{n}"
        for tup in itertools.product(candidate.domains["V"], repeat=n):
            if any((flagged[m],) + tup in candidate.relations[rel]
                   for m in names):
                continue
            ds = ", ".join(tup)
            trace = [
                f"uncoded tuple ({ds}) of sort V^{n}:",
                f"  premise family: ~{rel}(c, {ds}) holds for every "
                f"flagged constant c in {{{', '.join(names)}}}",
                f"  G_OMEGA concludes: forall x:N. (~N(x) | ~{rel}(x, "
                f"{ds}))",
                f"  clash: totality axiom forall v:V. exists x:N. "
                f"{rel}(x, v...) requires a coder for ({ds})",
            ]
            extra = [e for e in candidate.domains["N"]
                     if (e,) + tup in candidate.relations[rel]]
            if extra:
                trace.append(
                    f"  the only coders are nonstandard: {', '.join(extra)}")
            return MorleyVerdict("violation", tuple(trace))
    return MorleyVerdict("pass")
