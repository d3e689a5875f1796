"""A recursive printer of terms and formulas, written apart from
`syntax`'s loop and kept as the reference its text is checked against.  It
recurses once per node, so it serves formulas of a few hundred nodes'
depth."""

import re

from omegalogic.syntax import (
    Absurd, And, App, Atom, Const, Eq, Exists, FamilyMember, Forall, Not, Or,
    SchemaConj, SchemaDisj, Var,
)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


def reference_print(f):
    if isinstance(f, (Var, Const)):
        return f.name
    if isinstance(f, FamilyMember):
        if all(i >= 0 for i in f.indices):
            return f.family + "".join(f"_{i}" for i in f.indices)
        return f.family + "[" + ",".join(str(i) for i in f.indices) + "]"
    if isinstance(f, App):
        return f"{f.func}({', '.join(map(reference_print, f.args))})"
    if isinstance(f, Atom):
        if not f.args:
            return f.rel
        if len(f.args) == 2 and not _IDENT.match(f.rel):
            a, b = map(reference_print, f.args)
            return f"({a} {f.rel} {b})"
        return f"{f.rel}({', '.join(map(reference_print, f.args))})"
    if isinstance(f, Eq):
        return f"({reference_print(f.left)} = {reference_print(f.right)})"
    if isinstance(f, Absurd):
        return "_|_"
    if isinstance(f, Not):
        if isinstance(f.body, Eq):
            return (f"({reference_print(f.body.left)} != "
                    f"{reference_print(f.body.right)})")
        inner = reference_print(f.body)
        if isinstance(f.body, (Forall, Exists, SchemaConj, SchemaDisj)):
            return f"~({inner})"
        return "~" + inner
    if isinstance(f, (And, Or)):
        op = "&" if isinstance(f, And) else "|"
        return f"({reference_print(f.left)} {op} {reference_print(f.right)})"
    if isinstance(f, (Forall, Exists)):
        q = "forall" if isinstance(f, Forall) else "exists"
        return f"{q} {f.var.name}:{f.var.sort}. {reference_print(f.body)}"
    if isinstance(f, (SchemaConj, SchemaDisj)):
        op = "/\\{ " if isinstance(f, SchemaConj) else "\\/{ "
        return (op + reference_print(f.body)
                + f" : {f.hole.name} in {f.family} }}")
    raise TypeError(f"not a term or formula: {f!r}")
