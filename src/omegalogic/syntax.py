"""Multi-sorted vocabularies, terms and formulas, with a concrete text syntax.

Formulas are finitary first-order plus schema-conjunctions/disjunctions: a
body with one designated hole variable ranging over a named constant family.
Schema nodes are premise-family notation, kept intensional (never expanded
into an infinite list).
"""

from __future__ import annotations

import inspect
import itertools
import re
import weakref
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from typing import Iterator, Optional


class SyntaxError_(Exception):
    """Parse or well-formedness error, with optional line/column info, and
    the name of the file the line is in when that is not the file parsed
    (a vocabulary a structure file names)."""

    def __init__(self, message, line=None, col=None, file=None):
        self.message = message  # without the location
        if line is not None:
            where = f"{file} line" if file else "line"
            message = f"{message} ({where} {line}, col {col})"
        super().__init__(message)
        self.line = line
        self.col = col
        self.file = file

    def at(self, line, col=1):
        """This error, raised parsing one line's text, placed in its file:
        the text starts at column `col` of file line `line`."""
        return type(self)(self.message, line, col + (self.col or 1) - 1)


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

    def terms(self) -> Iterator[Term]:
        """The member terms in enumeration order, endless when countable."""
        if self.members is not None:
            return (Const(m, self.sort) for m in self.members)
        return (FamilyMember(self.name, idx, self.sort)
                for idx in self.enumerate_indices())

    def enumerate_terms(self, limit) -> list:
        """First `limit` member terms in enumeration order."""
        return list(itertools.islice(self.terms(), max(limit, 0)))

    def range_at(self, fuel):
        """The members a schema over the family ranges over at `fuel`, and
        whether they are all of them: every member of a finite family, the
        first `fuel` members of a countable one."""
        if self.countable:
            return self.enumerate_terms(fuel), False
        return list(self.terms()), True


class Vocabulary:
    """A finite multi-sorted signature plus auxiliary constant families.

    Immutable by convention; `expand` returns a new vocabulary.
    """

    def __init__(self, sorts, symbols, families=()):
        self.sorts = tuple(sorts)
        self.symbols = {}
        self.families = {}
        self._constant_terms = None  # the constants as terms, once built
        self._tau_starts = {}  # sort or None -> `tau_stream`'s start
        for decl in symbols:
            self._add_symbol(decl)
        for fam in families:
            self._add_family(fam)

    def _add_symbol(self, decl):
        if decl.name in self.symbols:
            raise SyntaxError_(f"duplicate symbol {decl.name!r}")
        for s in decl.arg_sorts:
            if s not in self.sorts:
                raise SyntaxError_(f"unknown sort {s!r} in {decl.name!r}")
        if decl.result_sort is not None and decl.result_sort not in self.sorts:
            raise SyntaxError_(f"unknown sort {decl.result_sort!r} in {decl.name!r}")
        self.symbols[decl.name] = decl
        self._constant_terms = None
        self._tau_starts.clear()

    def _add_family(self, fam):
        if fam.name in self.symbols or fam.name in self.families:
            raise SyntaxError_(f"family name {fam.name!r} clashes with existing symbol")
        if fam.sort not in self.sorts:
            raise SyntaxError_(f"unknown sort {fam.sort!r} in family {fam.name!r}")
        for m in fam.members or ():
            if m in self.symbols:
                raise SyntaxError_(f"family member {m!r} clashes with symbol")
        self.families[fam.name] = fam

    def constants(self, sort=None):
        return [d for d in self.symbols.values()
                if d.kind == "const" and (sort is None or d.result_sort == sort)]

    def constant_terms(self) -> tuple:
        """`constants()` as terms, in the same order, built once."""
        if self._constant_terms is None:
            self._constant_terms = tuple(
                Const(d.name, d.result_sort) for d in self.constants())
        return self._constant_terms

    def tau_stream(self, sort=None, name=None):
        """Each value that a closed term of `sort` (of every sort when None)
        names, once: the constants, then the functions applied to the values
        found so far, one layer at a time, each layer in shortlex order of
        the printed terms.  `name(t, named)` is the value of `t`, where
        `named` maps the terms found so far to theirs (a structure's
        `element_of`: a normal form or an element); by default it is `t`
        itself.  A value that is no term enters later layers as the first
        term naming it.  Only the sorts feeding `sort` are built, so the
        stream ends once no layer adds a value.

        A layer holds only the applications with an argument new in the
        last one, as a semi-naive join: the others were in a layer before."""
        start = self._tau_starts.get(sort)
        if start is None:  # the functions feeding `sort`, its first layer
            sorts = _feeding_sorts(self, sort)
            start = self._tau_starts[sort] = (
                [d for d in self.functions() if d.result_sort in sorts],
                sorted((c for c in self.constant_terms() if c.sort in sorts),
                       key=lambda c: (len(c.name), c.name)))
        funs, layer = start
        named, found, text = {}, set(), {}  # `text`: see `_shortlex`
        pools = {}  # sort -> the terms of `named` of that sort, in order
        while layer:
            old = {s: len(p) for s, p in pools.items()}
            for t in layer:
                v = t if name is None else name(t, named)
                if v not in found:
                    found.add(v)
                    key = v if isinstance(v, Term) else t
                    named[key] = v
                    pools.setdefault(key.sort, []).append(key)
                    if sort is None or t.sort == sort:
                        yield v
            # with no function there is no next layer, and building it
            # empty doubles the cost of a function-free range
            if not funs:
                break
            # each tuple with a new argument once: at its first new
            # position i, old arguments before i and any after it
            layer = []
            for d in funs:
                for i in range(d.arity):
                    args = []
                    for j, s in enumerate(d.arg_sorts):
                        p, k = pools.get(s, []), old.get(s, 0)
                        args.append(p[:k] if j < i else p[k:] if j == i
                                    else p)
                    layer += [App(d.name, a, d.result_sort)
                              for a in itertools.product(*args)]
            layer.sort(key=lambda a: _shortlex(a, text))

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


def _feeding_sorts(vocab, sort):
    """The sorts whose ground terms can occur in a ground term of `sort`,
    `sort` included (every sort when it is None): the argument sorts,
    taken transitively, of the functions into them whose argument sorts all
    have ground terms."""
    if sort is None:
        return set(vocab.sorts)
    inhabited = {d.result_sort for d in vocab.constants()}
    while True:
        live = [d for d in vocab.functions()
                if inhabited.issuperset(d.arg_sorts)]
        grown = inhabited.union(d.result_sort for d in live)
        if grown == inhabited:
            break
        inhabited = grown
    sorts, todo = {sort}, [sort]
    while todo:
        target = todo.pop()
        for d in live:
            if d.result_sort == target:
                todo += [a for a in d.arg_sorts if a not in sorts]
                sorts.update(d.arg_sorts)
    return sorts


def _shortlex(t, text):
    """The shortlex key of `print_term(t)`.  `text` keeps the printed
    terms: an application's is built from its arguments' kept ones, so a
    term of the stream costs one step, not one per node."""
    p = text.get(t)
    if p is None:
        if isinstance(t, App):
            args = ", ".join(_shortlex(a, text)[1] for a in t.args)
            p = f"{t.func}({args})"
        else:
            p = print_term(t)
        text[t] = p
    return len(p), p


# ---------------------------------------------------------------------------
# Interned nodes


_EMPTY = frozenset()
_SET = object.__setattr__


class _Ref(weakref.ref):
    """A table entry: a weak reference that knows its key."""

    __slots__ = ("key",)


class _Node:
    """A term or formula node, hash-consed: each class keeps a table from
    field tuples (defaults filled in) to the live node with those fields,
    so building a node equal to a live one returns that node, and equality
    and hashing are by identity.  A node leaves its table when it is no
    longer referenced.  `_summary` holds its free variable names and
    quantifier rank, worked out from its children's when it is built;
    `_plans` is the evaluator's store of compiled plans."""

    __slots__ = ("_summary", "_plans", "__weakref__")

    def __new__(cls, *key, **kwargs):
        if kwargs or len(key) != cls._width:
            bound = cls._signature.bind(*key, **kwargs)
            bound.apply_defaults()
            key = tuple(bound.arguments.values())
        ref = cls._table.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = object.__new__(cls)
        for name, value in zip(cls._names, key):
            _SET(node, name, value)
        _SET(node, "_summary", node._summarize())
        ref = cls._table[key] = _Ref(node, cls._forget)
        ref.key = key
        return node

    def _parts(self):
        return tuple(getattr(self, n) for n in self._names)

    def __reduce__(self):  # copies and pickles are built, so interned
        return type(self), self._parts()

    def _summarize(self):
        return _EMPTY, 0

    def _frozen(self, name, *value):
        what = "assign to" if value else "delete"
        raise FrozenInstanceError(f"cannot {what} field {name!r}")

    __setattr__ = __delattr__ = _frozen


def _interned(cls):
    """Make the node class `cls` a frozen dataclass whose constructor
    interns (see `_Node`)."""
    cls = dataclass(frozen=True, eq=False, init=False, slots=True)(cls)
    # the generated pair calls super() with the class from before the slots
    # rebuild, a TypeError for any name that is not a field: use _Node's
    del cls.__setattr__, cls.__delattr__
    cls._names = tuple(f.name for f in fields(cls))
    cls._width = len(cls._names)
    cls._signature = inspect.Signature([inspect.Parameter(
        f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
        default=inspect.Parameter.empty if f.default is MISSING else f.default)
        for f in fields(cls)])
    table = cls._table = {}

    def forget(ref):
        if table.get(ref.key) is ref:
            del table[ref.key]
    cls._forget = staticmethod(forget)
    return cls


def _union(nodes):
    """The free variables of `nodes`, sharing a child's set where it holds
    them all."""
    out = _EMPTY
    for n in nodes:
        fv = n._summary[0]
        if not fv <= out:
            out = fv if out <= fv else out | fv
    return out


# ---------------------------------------------------------------------------
# Terms


class Term(_Node):
    __slots__ = ()


@_interned
class Var(Term):
    name: str
    sort: Optional[str] = None

    def _summarize(self):
        return frozenset((self.name,)), 0


@_interned
class Const(Term):
    name: str
    sort: str


@_interned
class FamilyMember(Term):
    family: str
    indices: tuple
    sort: str


@_interned
class App(Term):
    func: str
    args: tuple
    sort: str

    def _summarize(self):
        return _union(self.args), 0


def term_is_ground(t: Term) -> bool:
    return not t._summary[0]


def nodes(f):
    """Every node of the term or formula `f`, in preorder, left to right,
    found without recursion."""
    todo = [f]
    while todo:
        g = todo.pop()
        yield g
        for v in reversed(g._parts()):
            if isinstance(v, _Node):
                todo.append(v)
            elif type(v) is tuple:  # arguments; a family member's indices
                todo += [a for a in reversed(v) if isinstance(a, _Node)]


def arg_tuples(decl: SymbolDecl, terms):
    """The argument tuples for `decl` from the list `terms`, sort by sort."""
    return itertools.product(*([t for t in terms if t.sort == s]
                               for s in decl.arg_sorts))


def applications(decls, terms) -> list:
    """The functions `decls` applied to every argument tuple from `terms`."""
    return [App(d.name, args, d.result_sort)
            for d in decls for args in arg_tuples(d, terms)]


# ---------------------------------------------------------------------------
# Formulas


class Formula(_Node):
    __slots__ = ()


@_interned
class Atom(Formula):
    rel: str
    args: tuple = ()

    _summarize = App._summarize


@_interned
class Eq(Formula):
    left: Term
    right: Term

    def _summarize(self):  # of And and Or as well
        return (_union((self.left, self.right)),
                max(self.left._summary[1], self.right._summary[1]))


@_interned
class Absurd(Formula):
    pass


@_interned
class Not(Formula):
    body: Formula

    def _summarize(self):
        return self.body._summary


@_interned
class And(Formula):
    left: Formula
    right: Formula

    _summarize = Eq._summarize


@_interned
class Or(Formula):
    left: Formula
    right: Formula

    _summarize = Eq._summarize


@_interned
class Forall(Formula):
    var: Var
    body: Formula

    def _summarize(self):
        fv, rank = self.body._summary
        return fv - {self.var.name}, rank + 1


@_interned
class Exists(Formula):
    var: Var
    body: Formula

    _summarize = Forall._summarize


@_interned
class SchemaConj(Formula):
    """Conjunction of {body[hole := c] : c in family}; family is a name."""

    hole: Var
    body: Formula
    family: str

    def _summarize(self):
        fv, rank = self.body._summary
        return fv - {self.hole.name}, rank


@_interned
class SchemaDisj(Formula):
    hole: Var
    body: Formula
    family: str

    _summarize = SchemaConj._summarize


BOT = Absurd()


def implies(a: Formula, b: Formula) -> Formula:
    # implication is sugar; normalized before any rule checking
    return Or(Not(a), b)


def iff(a: Formula, b: Formula) -> Formula:
    return And(implies(a, b), implies(b, a))


def free_variables(f: Formula) -> frozenset:
    """Free variable names; schema holes are binder-like and excluded."""
    return f._summary[0]


def juncts(f: Formula, kinds) -> list:
    """The maximal subformulas of `f` that are not of `kinds` (And, Or or
    both), left to right, found without recursion: a Scott sentence is a
    conjunction thousands of nodes deep."""
    out, todo = [], [f]
    while todo:
        g = todo.pop()
        if isinstance(g, kinds):
            todo += (g.right, g.left)
        else:
            out.append(g)
    return out


def is_sentence(f: Formula) -> bool:
    return not free_variables(f)


def quantifier_rank(f: Formula) -> int:
    """Standard rank; schema nodes contribute the rank of their body."""
    return f._summary[1]


def substitute(f: Formula, var: str, t: Term) -> Formula:
    """Replace all free occurrences of `var` by the closed term `t`."""
    if not term_is_ground(t):
        raise ValueError("substitution term must be closed")

    def sub(g):
        if var not in g._summary[0]:
            return g  # `var` is not free here
        if isinstance(g, Var):
            if g.sort is not None and t.sort is not None and g.sort != t.sort:
                raise ValueError(
                    f"sort mismatch substituting {var}: {g.sort} vs {t.sort}")
            return t
        return map_children(g, sub)

    return sub(f)


def map_children(g, fn):
    """The node `g` rebuilt with `fn(c)` for each child node `c`, whether a
    field or in a tuple of arguments."""
    return type(g)(*(fn(v) if isinstance(v, _Node) else
                     tuple(fn(a) if isinstance(a, _Node) else a for a in v)
                     if type(v) is tuple else v for v in g._parts()))


def constants_in(f: Formula):
    """All Const / FamilyMember leaves occurring in f."""
    return [t for t in nodes(f) if isinstance(t, (Const, FamilyMember))]


# ---------------------------------------------------------------------------
# Printing


def print_term(t: Term) -> str:
    if not isinstance(t, Term):
        raise TypeError(f"not a term: {t!r}")
    return _print(t)


def print_formula(f: Formula) -> str:
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    return _print(f)


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


def _print(node) -> str:
    """The text of the term or formula `node`, by one loop over a stack of
    nodes to print and text to put out, last first, so that no depth
    recurses.  `~` puts parentheses around a quantifier or schema body;
    every other node's text starts with its name, `(`, `~` or `_|_`."""
    out = []
    todo = [node]
    put, pop = out.append, todo.pop
    while todo:
        g = pop()
        k = type(g)
        if k is str:
            put(g)
        elif k is Var or k is Const:
            put(g.name)
        elif k is And or k is Or:
            put("(")
            todo += (")", g.right, " & " if k is And else " | ", g.left)
        elif k is Not:
            b = g.body
            if type(b) is Eq:
                put("(")
                todo += (")", b.right, " != ", b.left)
            elif isinstance(b, (Forall, Exists, SchemaConj, SchemaDisj)):
                put("~(")
                todo += (")", b)
            else:
                put("~")
                todo.append(b)
        elif k is Eq:
            put("(")
            todo += (")", g.right, " = ", g.left)
        elif k is Atom and not g.args:
            put(g.rel)
        elif k is Atom and len(g.args) == 2 and not _IDENT_RE.match(g.rel):
            put("(")
            todo += (")", g.args[1], f" {g.rel} ", g.args[0])
        elif k is Atom or k is App:
            put((g.rel if k is Atom else g.func) + "(")
            todo.append(")")
            for a in reversed(g.args[1:]):
                todo += (a, ", ")
            todo += g.args[:1]
        elif k is Forall or k is Exists:
            q = "forall" if k is Forall else "exists"
            put(f"{q} {g.var.name}:{g.var.sort}. ")
            todo.append(g.body)
        elif k is SchemaConj or k is SchemaDisj:
            put("/\\{ " if k is SchemaConj else "\\/{ ")
            todo += (f" : {g.hole.name} in {g.family} }}", g.body)
        elif k is FamilyMember:
            if all(i >= 0 for i in g.indices):
                put(g.family + "".join(f"_{i}" for i in g.indices))
            else:
                put(f"{g.family}[{','.join(map(str, g.indices))}]")
        elif k is Absurd:
            put("_|_")
        else:
            raise TypeError(f"not a term or formula: {g!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Tokenizer


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
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
        if kind != "ws":
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
# Input files


def read_lines(text, what, handle):
    """The one reader of every file format: call `handle((code, number,
    col))` on each line of `text` that holds more than space and a `#`
    comment, `code` being the line without them, `number` its file line and
    `col` the column `code` starts at, and return these lines.  `text` may
    be lines read before, tuples that start with these three, and `handle`
    gets each whole.  An IndexError or ValueError a line raises
    becomes "malformed <what> line", and a SyntaxError_ with no location is
    placed at column 1 of its line."""
    if isinstance(text, str):
        lines = []
        for number, raw in enumerate(text.splitlines(), start=1):
            code = raw.split("#", 1)[0]
            stripped = code.lstrip()
            if stripped:
                lines.append((stripped.rstrip(), number,
                              len(code) - len(stripped) + 1))
        text = lines
    line = None
    try:
        for line in text:
            handle(line)
    except (IndexError, ValueError):
        raise SyntaxError_(f"malformed {what} line: {line[0]!r}",
                           line[1], 1) from None
    except SyntaxError_ as e:
        if e.line is None:
            raise e.at(line[1]) from None
        raise
    return text


def parse_vocabulary(text) -> Vocabulary:
    """Parse the line-oriented declaration grammar:

        sort N
        rel < : N N
        fun S : N -> N
        const 0 : N
        family D : N countable [scheme integers]
        family Names : S = { a b c }

    `text` may be lines read before (see `read_lines`).  Sorts may be
    declared below their first use, so the symbols, then the families, are
    added once every line is read, as the constructor adds them."""
    sorts, symbols, families = [], [], []

    def declare(line):
        head, *parts = line[0].replace(":", " : ").split()
        if head not in ("sort", "rel", "fun", "const", "family"):
            raise SyntaxError_(f"unknown declaration {head!r}")
        if head == "sort":
            (name,) = parts
            if name in sorts:
                raise SyntaxError_(f"duplicate sort {name!r}")
            sorts.append(name)
            return
        name, colon, *rest = parts
        if colon != ":":
            raise SyntaxError_("expected ':'")
        if head == "rel":
            symbols.append(line + (SymbolDecl(name, "rel", tuple(rest), None),))
        elif head == "fun":
            arrow = rest.index("->")
            (result,) = rest[arrow + 1:]
            symbols.append(line + (SymbolDecl(name, "fun", tuple(rest[:arrow]),
                                              result),))
        elif head == "const":
            (sort,) = rest
            symbols.append(line + (SymbolDecl(name, "const", (), sort),))
        elif rest[1:2] == ["countable"]:
            scheme = rest[3] if rest[2:3] == ["scheme"] else "naturals"
            if rest[2:] not in ([], ["scheme", scheme]):
                raise SyntaxError_("expected 'countable [scheme <name>]'")
            if scheme not in ("naturals", "integers", "rationals"):
                raise SyntaxError_(f"unknown enumeration scheme {scheme!r}")
            arity = 2 if scheme == "rationals" else 1
            families.append(line + (ConstantFamily(name, rest[0], None, arity,
                                                   scheme),))
        elif rest[1:3] == ["=", "{"] and rest[-1] == "}":
            families.append(line + (ConstantFamily(name, rest[0],
                                                   tuple(rest[3:-1])),))
        else:
            raise SyntaxError_("expected 'countable' or '= { ... }'")

    read_lines(text, "declaration", declare)
    vocab = Vocabulary(sorts, ())
    read_lines(symbols, "declaration", lambda line: vocab._add_symbol(line[3]))
    read_lines(families, "declaration", lambda line: vocab._add_family(line[3]))
    return vocab


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

    def __init__(self, tokens, vocab: Vocabulary, bound=(), patterns=None):
        self.toks = tokens
        self.pos = 0
        self.vocab = vocab
        self.bound = list(bound)  # stack of (name, sort)
        self.patterns = patterns  # pattern variable -> sort, or None

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _end(self, message):
        """`message` placed just past the last token, if there is one."""
        if not self.toks:
            return SyntaxError_(message)
        last = self.toks[-1]
        return SyntaxError_(message, last.line, last.col + len(last.text))

    def next(self):
        tok = self.peek()
        if tok is None:
            raise self._end("unexpected end of input")
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
            raise self._end("unexpected end of formula")
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

    def term_list(self, sorts=()):
        """A parenthesised argument list; `sorts` are the sorts its
        positions expect, for typing pattern variables."""
        expected = iter(sorts)
        self.expect("(")
        args = [self.term(next(expected, None))]
        while self.at(","):
            self.next()
            args.append(self.term(next(expected, None)))
        self.expect(")")
        return args

    def term(self, sort=None) -> Term:
        """A term; `sort` is the sort its position expects, if known."""
        tok = self.next()
        name = tok.text
        decl = self.vocab.symbols.get(name)
        if decl is not None and decl.kind == "fun" and decl.arity > 0:
            args = self.term_list(decl.arg_sorts)
            self._check_profile(decl, args, tok)
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
        if (self.patterns is not None and tok.kind == "ident"
                and decl is None and name not in self.vocab.families):
            known = self.patterns.setdefault(name, sort)
            if known != sort:
                raise SyntaxError_(f"pattern variable {name!r} used at sorts "
                                   f"{known} and {sort}", tok.line, tok.col)
            return Var(name, sort)
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


def parse_term(text: str, vocab: Vocabulary, bound=(), patterns=None) -> Term:
    """Parse one term.  With a dict `patterns`, every identifier that is
    no symbol, family, member or bound variable is a pattern variable of the
    sort its argument position expects (None at the root); the dict records
    each one's sort, and one used at two sorts raises SyntaxError_."""
    parser = _FormulaParser(tokenize(text), vocab, bound, patterns)
    t = parser.term()
    tok = parser.peek()
    if tok is not None:
        raise SyntaxError_(f"junk after term: {tok.text!r}", tok.line, tok.col)
    return t


def parse_at(parse, line, start, vocab, stop=None, **kw):
    """`parse` of the piece `code[start:stop]` of a `line` (code, number,
    col) that `read_lines` gives, with a SyntaxError_ placed at its file
    line and column."""
    code, number, col = line
    text = code[start:stop]
    try:
        return parse(text.strip(), vocab, **kw)
    except SyntaxError_ as e:
        start += len(text) - len(text.lstrip())
        raise e.at(number, col + start) from None


def parse_axiom(line, vocab) -> Formula:
    """The sentence of `line`, `axiom <sentence>` as `read_lines` gives it."""
    return parse_at(parse_formula, line, len("axiom"), vocab,
                    require_sentence=True)
