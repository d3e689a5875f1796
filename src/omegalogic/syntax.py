"""Multi-sorted vocabularies, terms and formulas, with a concrete text syntax.

Formulas are finitary first-order plus schema-conjunctions/disjunctions: a
body with one designated hole variable ranging over a named constant family.
Schema nodes are premise-family notation, kept intensional (never expanded
into an infinite list).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Optional


class SyntaxError_(Exception):
    """Parse or well-formedness error, with optional line/column info."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{message} (line {line}, col {col})"
        super().__init__(message)
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Vocabularies


@dataclass(frozen=True)
class SymbolDecl:
    name: str
    kind: str  # 'rel' | 'fun' | 'const'
    arg_sorts: tuple
    result_sort: Optional[str]  # None for relations

    @property
    def arity(self):
        return len(self.arg_sorts)


@dataclass(frozen=True)
class ConstantFamily:
    """A named family of constants of one sort.

    Either a finite explicit member list, or countable with generated member
    names ``<name>_<i>`` (index arity 1) / ``<name>_<i>_<j>`` (arity 2).
    ``scheme`` picks the enumeration order for countable families:
    'naturals' (0,1,2,...), 'integers' (0,1,-1,2,-2,...) or 'rationals'
    (reduced pairs (n,m), m > 0, by |n|+m, then m, then n).
    """

    name: str
    sort: str
    members: Optional[tuple] = None  # explicit member names, or None
    index_arity: int = 1
    scheme: str = "naturals"

    @property
    def countable(self):
        return self.members is None

    def member_term(self, indices):
        indices = tuple(indices)
        if len(indices) != self.index_arity:
            raise ValueError(f"family {self.name} takes {self.index_arity} indices")
        return FamilyMember(self.name, indices, self.sort)

    def enumerate_indices(self) -> Iterator[tuple]:
        if not self.countable:
            raise ValueError(f"family {self.name} is finite; enumerate members")
        if self.scheme == "naturals":
            i = 0
            while True:
                yield (i,)
                i += 1
        elif self.scheme == "integers":
            yield (0,)
            i = 1
            while True:
                yield (i,)
                yield (-i,)
                i += 1
        elif self.scheme == "rationals":
            from math import gcd

            total = 1
            while True:
                for m in range(1, total + 1):
                    for n in sorted({total - m, -(total - m)}):
                        if gcd(abs(n), m) == 1 or (n == 0 and m == 1):
                            yield (n, m)
                total += 1
        else:
            raise ValueError(f"unknown enumeration scheme {self.scheme}")

    def enumerate_terms(self, limit) -> list:
        """First `limit` member terms in enumeration order."""
        if self.members is not None:
            return [Const(m, self.sort) for m in self.members[:limit]]
        out = []
        for idx in self.enumerate_indices():
            if len(out) >= limit:
                break
            out.append(FamilyMember(self.name, idx, self.sort))
        return out


class Vocabulary:
    """A finite multi-sorted signature plus auxiliary constant families.

    Immutable by convention; `expand` returns a new vocabulary.
    """

    def __init__(self, sorts, symbols, families=()):
        self.sorts = tuple(sorts)
        self.symbols = {}
        for decl in symbols:
            if decl.name in self.symbols:
                raise SyntaxError_(f"duplicate symbol {decl.name!r}")
            for s in decl.arg_sorts:
                if s not in self.sorts:
                    raise SyntaxError_(f"unknown sort {s!r} in {decl.name!r}")
            if decl.result_sort is not None and decl.result_sort not in self.sorts:
                raise SyntaxError_(f"unknown sort {decl.result_sort!r} in {decl.name!r}")
            self.symbols[decl.name] = decl
        self.families = {}
        for fam in families:
            if fam.name in self.symbols or fam.name in self.families:
                raise SyntaxError_(f"family name {fam.name!r} clashes with existing symbol")
            if fam.sort not in self.sorts:
                raise SyntaxError_(f"unknown sort {fam.sort!r} in family {fam.name!r}")
            if fam.members is not None:
                for m in fam.members:
                    if m in self.symbols:
                        raise SyntaxError_(f"family member {m!r} clashes with symbol")
                self.families[fam.name] = fam
            else:
                self.families[fam.name] = fam

    def constants(self, sort=None):
        return [d for d in self.symbols.values()
                if d.kind == "const" and (sort is None or d.result_sort == sort)]

    def relations(self):
        return [d for d in self.symbols.values() if d.kind == "rel"]

    def functions(self):
        return [d for d in self.symbols.values() if d.kind == "fun" and d.arity > 0]

    def family(self, name):
        if name not in self.families:
            raise SyntaxError_(f"unknown constant family {name!r}")
        return self.families[name]

    def expand(self, fam: ConstantFamily) -> "Vocabulary":
        """Extend by a fresh constant family (tau_M / tau(C) construction)."""
        return Vocabulary(self.sorts, self.symbols.values(),
                          tuple(self.families.values()) + (fam,))

    def lookup_member(self, name):
        """Resolve an identifier as a finite-family member or an indexed
        member name like c_1_0; returns a term or None."""
        for fam in self.families.values():
            if fam.members is not None and name in fam.members:
                return Const(name, fam.sort)
        m = re.fullmatch(r"([A-Za-z][A-Za-z0-9]*)((?:_-?\d+)+)", name)
        if m and m.group(1) in self.families:
            fam = self.families[m.group(1)]
            idx = tuple(int(p) for p in m.group(2).split("_")[1:])
            if fam.countable and len(idx) == fam.index_arity:
                return FamilyMember(fam.name, idx, fam.sort)
        return None


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str
    sort: Optional[str] = None


@dataclass(frozen=True)
class Const(Term):
    name: str
    sort: str


@dataclass(frozen=True)
class FamilyMember(Term):
    family: str
    indices: tuple
    sort: str


@dataclass(frozen=True)
class App(Term):
    func: str
    args: tuple
    sort: str


def term_is_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    if isinstance(t, App):
        return all(term_is_ground(a) for a in t.args)
    return True


def term_depth(t: Term) -> int:
    if isinstance(t, App):
        return 1 + max((term_depth(a) for a in t.args), default=0)
    return 0


def subterms(t: Term):
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Atom(Formula):
    rel: str
    args: tuple = ()


@dataclass(frozen=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Absurd(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: Var
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: Var
    body: Formula


@dataclass(frozen=True)
class SchemaConj(Formula):
    """Conjunction of {body[hole := c] : c in family}; family is a name."""

    hole: Var
    body: Formula
    family: str


@dataclass(frozen=True)
class SchemaDisj(Formula):
    hole: Var
    body: Formula
    family: str


BOT = Absurd()


def implies(a: Formula, b: Formula) -> Formula:
    # implication is sugar; normalized before any rule checking
    return Or(Not(a), b)


def iff(a: Formula, b: Formula) -> Formula:
    return And(implies(a, b), implies(b, a))


def free_variables(f: Formula) -> frozenset:
    """Free variable names; schema holes are binder-like and excluded."""

    def term_vars(t):
        if isinstance(t, Var):
            return {t.name}
        if isinstance(t, App):
            out = set()
            for a in t.args:
                out |= term_vars(a)
            return out
        return set()

    if isinstance(f, Atom):
        out = set()
        for a in f.args:
            out |= term_vars(a)
        return frozenset(out)
    if isinstance(f, Eq):
        return frozenset(term_vars(f.left) | term_vars(f.right))
    if isinstance(f, Absurd):
        return frozenset()
    if isinstance(f, Not):
        return free_variables(f.body)
    if isinstance(f, (And, Or)):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, (Forall, Exists)):
        return free_variables(f.body) - {f.var.name}
    if isinstance(f, (SchemaConj, SchemaDisj)):
        return free_variables(f.body) - {f.hole.name}
    raise TypeError(f"not a formula: {f!r}")


def is_sentence(f: Formula) -> bool:
    return not free_variables(f)


def quantifier_rank(f: Formula) -> int:
    """Standard rank; schema nodes contribute the rank of their body."""
    if isinstance(f, (Atom, Eq, Absurd)):
        return 0
    if isinstance(f, Not):
        return quantifier_rank(f.body)
    if isinstance(f, (And, Or)):
        return max(quantifier_rank(f.left), quantifier_rank(f.right))
    if isinstance(f, (Forall, Exists)):
        return 1 + quantifier_rank(f.body)
    if isinstance(f, (SchemaConj, SchemaDisj)):
        return quantifier_rank(f.body)
    raise TypeError(f"not a formula: {f!r}")


def substitute(f: Formula, var: str, t: Term) -> Formula:
    """Replace all free occurrences of `var` by the closed term `t`."""
    if not term_is_ground(t):
        raise ValueError("substitution term must be closed")

    def sub_term(u):
        if isinstance(u, Var):
            if u.name == var:
                if u.sort is not None and t.sort is not None and u.sort != t.sort:
                    raise ValueError(
                        f"sort mismatch substituting {var}: {u.sort} vs {t.sort}")
                return t
            return u
        if isinstance(u, App):
            return App(u.func, tuple(sub_term(a) for a in u.args), u.sort)
        return u

    if isinstance(f, Atom):
        return Atom(f.rel, tuple(sub_term(a) for a in f.args))
    if isinstance(f, Eq):
        return Eq(sub_term(f.left), sub_term(f.right))
    if isinstance(f, Absurd):
        return f
    if isinstance(f, Not):
        return Not(substitute(f.body, var, t))
    if isinstance(f, And):
        return And(substitute(f.left, var, t), substitute(f.right, var, t))
    if isinstance(f, Or):
        return Or(substitute(f.left, var, t), substitute(f.right, var, t))
    if isinstance(f, (Forall, Exists)):
        if f.var.name == var:
            return f
        cls = type(f)
        return cls(f.var, substitute(f.body, var, t))
    if isinstance(f, (SchemaConj, SchemaDisj)):
        if f.hole.name == var:
            return f
        cls = type(f)
        return cls(f.hole, substitute(f.body, var, t), f.family)
    raise TypeError(f"not a formula: {f!r}")


def constants_in(f: Formula):
    """All Const / FamilyMember leaves occurring in f."""
    out = []

    def walk_term(t):
        if isinstance(t, (Const, FamilyMember)):
            out.append(t)
        elif isinstance(t, App):
            for a in t.args:
                walk_term(a)

    def walk(g):
        if isinstance(g, Atom):
            for a in g.args:
                walk_term(a)
        elif isinstance(g, Eq):
            walk_term(g.left)
            walk_term(g.right)
        elif isinstance(g, Not):
            walk(g.body)
        elif isinstance(g, (And, Or)):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, (Forall, Exists)):
            walk(g.body)
        elif isinstance(g, (SchemaConj, SchemaDisj)):
            walk(g.body)

    walk(f)
    return out


# ---------------------------------------------------------------------------
# Printing


def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.name
    if isinstance(t, FamilyMember):
        if all(i >= 0 for i in t.indices):
            return t.family + "".join(f"_{i}" for i in t.indices)
        return t.family + "[" + ",".join(str(i) for i in t.indices) + "]"
    if isinstance(t, App):
        return f"{t.func}({', '.join(print_term(a) for a in t.args)})"
    raise TypeError(f"not a term: {t!r}")


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


def print_formula(f: Formula) -> str:
    if isinstance(f, Atom):
        if not f.args:
            return f.rel
        if len(f.args) == 2 and not _IDENT_RE.match(f.rel):
            return f"({print_term(f.args[0])} {f.rel} {print_term(f.args[1])})"
        return f"{f.rel}({', '.join(print_term(a) for a in f.args)})"
    if isinstance(f, Eq):
        return f"({print_term(f.left)} = {print_term(f.right)})"
    if isinstance(f, Absurd):
        return "_|_"
    if isinstance(f, Not):
        if isinstance(f.body, Eq):
            return f"({print_term(f.body.left)} != {print_term(f.body.right)})"
        return f"~{_wrap(f.body)}"
    if isinstance(f, And):
        return f"({print_formula(f.left)} & {print_formula(f.right)})"
    if isinstance(f, Or):
        return f"({print_formula(f.left)} | {print_formula(f.right)})"
    if isinstance(f, Forall):
        return f"forall {f.var.name}:{f.var.sort}. {print_formula(f.body)}"
    if isinstance(f, Exists):
        return f"exists {f.var.name}:{f.var.sort}. {print_formula(f.body)}"
    if isinstance(f, SchemaConj):
        return "/\\{ " + print_formula(f.body) + f" : {f.hole.name} in {f.family}" + " }"
    if isinstance(f, SchemaDisj):
        return "\\/{ " + print_formula(f.body) + f" : {f.hole.name} in {f.family}" + " }"
    raise TypeError(f"not a formula: {f!r}")


def _wrap(f: Formula) -> str:
    s = print_formula(f)
    if isinstance(f, (Atom, Eq, Absurd, Not)) and not s.startswith("("):
        return s if isinstance(f, (Atom, Absurd)) or s.startswith("~") else f"({s})"
    if s.startswith("("):
        return s
    return f"({s})"


# ---------------------------------------------------------------------------
# Tokenizer


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<schemaconj>/\\\{)
  | (?P<schemadisj>\\/\{)
  | (?P<bot>_\|_)
  | (?P<arrow2><->)
  | (?P<arrow>->)
  | (?P<neq>!=)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<int>-?\d+)
  | (?P<punct>[().,:{}\[\]~&|=<>+*/-])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise SyntaxError_(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, tok, line, col))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    return tokens


# ---------------------------------------------------------------------------
# Vocabulary parsing

def parse_vocabulary(text: str) -> Vocabulary:
    """Parse the line-oriented declaration grammar:

        sort N
        rel < : N N
        fun S : N -> N
        const 0 : N
        family D : N countable [scheme integers]
        family Names : S = { a b c }
    """
    sorts = []
    symbols = []
    families = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(":", " : ").split()
        head = parts[0]
        try:
            if head == "sort":
                (name,) = parts[1:]
                if name in sorts:
                    raise SyntaxError_(f"duplicate sort {name!r}", lineno, 1)
                sorts.append(name)
            elif head == "rel":
                name = parts[1]
                if parts[2] != ":":
                    raise SyntaxError_("expected ':'", lineno, 1)
                symbols.append(SymbolDecl(name, "rel", tuple(parts[3:]), None))
            elif head == "fun":
                name = parts[1]
                if parts[2] != ":":
                    raise SyntaxError_("expected ':'", lineno, 1)
                rest = parts[3:]
                if "->" not in rest:
                    raise SyntaxError_("expected '->' in fun declaration", lineno, 1)
                arrow = rest.index("->")
                args, (result,) = rest[:arrow], rest[arrow + 1:]
                symbols.append(SymbolDecl(name, "fun", tuple(args), result))
            elif head == "const":
                name = parts[1]
                if parts[2] != ":":
                    raise SyntaxError_("expected ':'", lineno, 1)
                (sort,) = parts[3:]
                symbols.append(SymbolDecl(name, "const", (), sort))
            elif head == "family":
                name = parts[1]
                if parts[2] != ":":
                    raise SyntaxError_("expected ':'", lineno, 1)
                sort = parts[3]
                rest = parts[4:]
                if rest and rest[0] == "countable":
                    scheme = "naturals"
                    arity = 1
                    if len(rest) >= 3 and rest[1] == "scheme":
                        scheme = rest[2]
                        arity = 2 if scheme == "rationals" else 1
                    families.append(ConstantFamily(name, sort, None, arity, scheme))
                elif rest and rest[0] == "=":
                    if rest[1] != "{" or rest[-1] != "}":
                        raise SyntaxError_("expected '{ members }'", lineno, 1)
                    families.append(ConstantFamily(name, sort, tuple(rest[2:-1])))
                else:
                    raise SyntaxError_("expected 'countable' or '= { ... }'", lineno, 1)
            else:
                raise SyntaxError_(f"unknown declaration {head!r}", lineno, 1)
        except (IndexError, ValueError):
            raise SyntaxError_(f"malformed declaration: {line!r}", lineno, 1)
    return Vocabulary(sorts, symbols, families)


def print_vocabulary(vocab: Vocabulary) -> str:
    lines = [f"sort {s}" for s in vocab.sorts]
    for d in vocab.symbols.values():
        if d.kind == "rel":
            lines.append(f"rel {d.name} : {' '.join(d.arg_sorts)}")
        elif d.kind == "const":
            lines.append(f"const {d.name} : {d.result_sort}")
        else:
            lines.append(f"fun {d.name} : {' '.join(d.arg_sorts)} -> {d.result_sort}")
    for fam in vocab.families.values():
        if fam.countable:
            extra = "" if fam.scheme == "naturals" else f" scheme {fam.scheme}"
            lines.append(f"family {fam.name} : {fam.sort} countable{extra}")
        else:
            lines.append(f"family {fam.name} : {fam.sort} = {{ {' '.join(fam.members)} }}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Formula parsing


class _FormulaParser:
    """Recursive descent over the infix formula grammar.

    Precedence (loosest first): -> and <-> (sugar), |, &, ~; quantifier and
    schema bodies extend as far right as possible.
    """

    def __init__(self, tokens, vocab: Vocabulary, bound=()):
        self.toks = tokens
        self.pos = 0
        self.vocab = vocab
        self.bound = list(bound)  # stack of (name, sort)

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise SyntaxError_("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, text):
        tok = self.next()
        if tok.text != text:
            raise SyntaxError_(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def at(self, *texts):
        tok = self.peek()
        return tok is not None and tok.text in texts

    # -- formulas ----------------------------------------------------------

    def formula(self) -> Formula:
        left = self.disjunct()
        if self.at("->"):
            self.next()
            return implies(left, self.formula())
        if self.at("<->"):
            self.next()
            return iff(left, self.formula())
        return left

    def disjunct(self) -> Formula:
        left = self.conjunct()
        while self.at("|"):
            self.next()
            left = Or(left, self.conjunct())
        return left

    def conjunct(self) -> Formula:
        left = self.unary()
        while self.at("&"):
            self.next()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise SyntaxError_("unexpected end of formula")
        if tok.text == "~":
            self.next()
            return Not(self.unary())
        if tok.text in ("forall", "exists"):
            self.next()
            name = self.next()
            if name.kind != "ident":
                raise SyntaxError_("expected variable name", name.line, name.col)
            self.expect(":")
            sort = self.next().text
            if sort not in self.vocab.sorts:
                raise SyntaxError_(f"unknown sort {sort!r}", name.line, name.col)
            self.expect(".")
            var = Var(name.text, sort)
            self.bound.append((name.text, sort))
            body = self.formula()
            self.bound.pop()
            return (Forall if tok.text == "forall" else Exists)(var, body)
        if tok.kind in ("schemaconj", "schemadisj"):
            return self.schema(tok.kind == "schemaconj")
        if tok.text == "_|_" or tok.kind == "bot":
            self.next()
            return BOT
        if tok.text == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        return self.atomic()

    def schema(self, conj: bool) -> Formula:
        opener = self.next()
        # pre-scan for the descriptor to learn the hole's sort
        depth = 1
        i = self.pos
        colon = None
        while i < len(self.toks):
            t = self.toks[i]
            if t.kind in ("schemaconj", "schemadisj") or t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
                if depth == 0:
                    break
            elif t.text == ":" and depth == 1:
                colon = i
            i += 1
        if depth != 0 or colon is None:
            raise SyntaxError_("malformed schema node", opener.line, opener.col)
        hole_name = self.toks[colon + 1].text
        if self.toks[colon + 2].text != "in":
            raise SyntaxError_("expected 'in' in schema descriptor",
                               opener.line, opener.col)
        fam_name = self.toks[colon + 3].text
        if fam_name == "tau":
            # pseudo-family: the base vocabulary's constant terms
            hole_sort = self.vocab.sorts[0]
        else:
            hole_sort = self.vocab.family(fam_name).sort
        hole = Var(hole_name, hole_sort)
        self.bound.append((hole_name, hole_sort))
        body = self.formula()
        self.bound.pop()
        if self.pos != colon:
            tok = self.peek()
            raise SyntaxError_("junk before ':' in schema node", tok.line, tok.col)
        self.pos = colon + 4
        self.expect("}")
        return (SchemaConj if conj else SchemaDisj)(hole, body, fam_name)

    def atomic(self) -> Formula:
        tok = self.peek()
        decl = self.vocab.symbols.get(tok.text)
        if decl is not None and decl.kind == "rel" and decl.arity == 0:
            self.next()
            return Atom(decl.name)
        if decl is not None and decl.kind == "rel" and self._lookahead_is("(", 1):
            self.next()
            args = self.term_list()
            self._check_profile(decl, args, tok)
            return Atom(decl.name, tuple(args))
        left = self.term()
        nxt = self.peek()
        if nxt is not None and nxt.text in ("=", "!="):
            self.next()
            right = self.term()
            if left.sort != right.sort:
                raise SyntaxError_(
                    f"equality between sorts {left.sort} and {right.sort}",
                    nxt.line, nxt.col)
            eq = Eq(left, right)
            return eq if nxt.text == "=" else Not(eq)
        if nxt is not None:
            decl = self.vocab.symbols.get(nxt.text)
            if decl is not None and decl.kind == "rel" and decl.arity == 2:
                self.next()
                right = self.term()
                self._check_profile(decl, [left, right], nxt)
                return Atom(decl.name, (left, right))
        raise SyntaxError_(
            f"expected relation or equality after term",
            tok.line, tok.col)

    def _lookahead_is(self, text, offset):
        i = self.pos + offset
        return i < len(self.toks) and self.toks[i].text == text

    def _check_profile(self, decl, args, tok):
        if len(args) != decl.arity:
            raise SyntaxError_(f"{decl.name!r} expects {decl.arity} arguments",
                               tok.line, tok.col)
        for a, s in zip(args, decl.arg_sorts):
            if a.sort != s:
                raise SyntaxError_(
                    f"argument of sort {a.sort} where {s} required for {decl.name!r}",
                    tok.line, tok.col)

    # -- terms -------------------------------------------------------------

    def term_list(self):
        self.expect("(")
        args = [self.term()]
        while self.at(","):
            self.next()
            args.append(self.term())
        self.expect(")")
        return args

    def term(self) -> Term:
        tok = self.next()
        name = tok.text
        decl = self.vocab.symbols.get(name)
        if decl is not None and decl.kind == "fun" and decl.arity > 0:
            args = self.term_list()
            if len(args) != decl.arity:
                raise SyntaxError_(f"{name!r} expects {decl.arity} arguments",
                                   tok.line, tok.col)
            for a, s in zip(args, decl.arg_sorts):
                if a.sort != s:
                    raise SyntaxError_(
                        f"argument of sort {a.sort} where {s} required",
                        tok.line, tok.col)
            return App(name, tuple(args), decl.result_sort)
        if decl is not None and decl.kind == "const":
            return Const(name, decl.result_sort)
        if name in self.vocab.families and self.at("["):
            self.next()
            idx = [int(self.next().text)]
            while self.at(","):
                self.next()
                idx.append(int(self.next().text))
            self.expect("]")
            return self.vocab.family(name).member_term(idx)
        for bname, bsort in reversed(self.bound):
            if bname == name:
                return Var(name, bsort)
        member = self.vocab.lookup_member(name)
        if member is not None:
            return member
        raise SyntaxError_(f"unknown symbol or unbound variable {name!r}",
                           tok.line, tok.col)


def parse_formula(text: str, vocab: Vocabulary, require_sentence=False,
                  bound=()) -> Formula:
    parser = _FormulaParser(tokenize(text), vocab, bound)
    f = parser.formula()
    tok = parser.peek()
    if tok is not None:
        raise SyntaxError_(f"junk after formula: {tok.text!r}", tok.line, tok.col)
    if require_sentence:
        fv = free_variables(f)
        if fv:
            raise SyntaxError_(f"unbound variable(s) in sentence: {sorted(fv)}")
    return f


def parse_term(text: str, vocab: Vocabulary, bound=()) -> Term:
    parser = _FormulaParser(tokenize(text), vocab, bound)
    t = parser.term()
    if parser.peek() is not None:
        raise SyntaxError_("junk after term")
    return t
