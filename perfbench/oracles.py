"""Oracles computed apart from the program.

Nothing here calls into `omegalogic`.  Formulas the program returns are read
only through their constructor names and fields (`Atom.rel`, `Forall.var`,
...), and every verdict is recomputed by a different method: truth tables,
brute-force enumeration, canonical forms under permutation, the classical
EF theory of chains and pure sets, and index arithmetic over the
enumeration schemes of the presentations.
"""

import itertools
from fractions import Fraction
from math import gcd


# ---------------------------------------------------------------------------
# Propositional: truth tables


def classical(f, env):
    """Truth-table value of a program formula under an atom assignment."""
    k = type(f).__name__
    if k == "Absurd":
        return False
    if k == "Atom":
        return env[f.rel]
    if k == "Not":
        return not classical(f.body, env)
    if k == "And":
        return classical(f.left, env) and classical(f.right, env)
    if k == "Or":
        return classical(f.left, env) or classical(f.right, env)
    raise TypeError(f"not a propositional formula: {k}")


def atom_assignments(atoms):
    for bits in itertools.product((False, True), repeat=len(atoms)):
        yield dict(zip(atoms, bits))


def classical_vectors(sentences, atoms):
    """The truth vectors of the classical valuations over the sentences."""
    return {tuple(classical(s, env) for s in sentences)
            for env in atom_assignments(atoms)}


_CLASSICAL_ROWS = {
    "&": {(True, True): True, (True, False): False, (False, True): False,
          (False, False): False},
    "|": {(True, True): True, (True, False): True, (False, True): True,
          (False, False): False},
    "~": {(True,): False, (False,): True},
}


def _forced(value):
    return "forced-true" if value else "forced-false"


def expected_table(rule_set, connective):
    """The determined truth table the paper's results give.

    - `and` (&I, &E1, &E2) forces the whole & table.
    - `or` (vI1, vI2, vE) forces rows TT, TF, FT of | to true and leaves FF
      open (v-taut is admissible and makes p | q false with p, q false).
    - `neg` (negI, negE, DN) forces no row of ~: v-top makes ~p true with p
      true, v-taut makes ~p false with p false.
    - the full catalogue admits exactly the classical valuations, so every
      row is forced to its classical value.
    - a connective no rule of the set mentions is unconstrained: its
      sentences occur in no clause except as parts, so no row is forced.
    """
    rows = _CLASSICAL_ROWS[connective]
    if rule_set == "full" or (rule_set, connective) == ("and", "&"):
        return {r: _forced(v) for r, v in rows.items()}
    if (rule_set, connective) == ("or", "|"):
        return {r: ("unforced" if r == (False, False) else "forced-true")
                for r in rows}
    return {r: "unforced" for r in rows}


def check_table(table, rule_set, connective):
    """Every forced row must agree with the classical value (all catalogue
    rules are classically sound), and the table must be the expected one."""
    rows = _CLASSICAL_ROWS[connective]
    for row, verdict in table.items():
        if verdict != "unforced" and verdict != _forced(rows[row]):
            return f"row {row} {verdict} against the classical value"
    want = expected_table(rule_set, connective)
    if dict(table) != want:
        return f"table {dict(table)} is not {want}"
    return None


def conjunction_respecting(sentences):
    """All truth vectors over the sentences in which every conjunction is
    the truth-table conjunction of its parts, by brute force."""
    pos = {s: i for i, s in enumerate(sentences)}
    ands = [(pos[s], pos[s.left], pos[s.right]) for s in sentences
            if type(s).__name__ == "And"]
    out = set()
    for bits in itertools.product((False, True), repeat=len(sentences)):
        if all(bits[f] == (bits[a] and bits[b]) for f, a, b in ands):
            out.add(bits)
    return out


def hypothesis_free_sound(bits, sentences, rules):
    """Whether a truth vector respects every rule instance that needs no
    hypothetical premise (vI1, vI2, negE, DN, &-rules)."""
    pos = {s: i for i, s in enumerate(sentences)}
    bot = next((i for s, i in pos.items() if type(s).__name__ == "Absurd"),
               None)
    for s, i in pos.items():
        k = type(s).__name__
        if k == "Or":
            if "vI1" in rules and bits[pos[s.left]] and not bits[i]:
                return False
            if "vI2" in rules and bits[pos[s.right]] and not bits[i]:
                return False
        elif k == "Not":
            b = pos.get(s.body)
            if ("negE" in rules and b is not None and bits[b] and bits[i]
                    and not bits[bot]):
                return False
            if ("DN" in rules and type(s.body).__name__ == "Not"
                    and bits[i] and not bits[pos[s.body.body]]):
                return False
        elif k == "And" and "&E1" in rules:
            if bits[i] and not bits[pos[s.left]]:
                return False
    return True


# ---------------------------------------------------------------------------
# A small evaluator for program formulas over finite structures


class Finite:
    """Plain finite structure data: domains per sort, relation extents,
    function tables keyed by argument tuples, constants."""

    def __init__(self, domains, relations=None, functions=None,
                 constants=None):
        self.domains = {s: tuple(es) for s, es in domains.items()}
        self.relations = {r: {tuple(t) for t in ts}
                          for r, ts in (relations or {}).items()}
        self.functions = functions or {}
        self.constants = constants or {}
        self.elements = {e for es in self.domains.values() for e in es}

    @classmethod
    def of(cls, s):
        """Copy a program FiniteStructure's data."""
        funs = {f: {(k if isinstance(k, tuple) else (k,)): v
                    for k, v in table.items()}
                for f, table in s.functions.items()}
        return cls(s.domains, s.relations, funs, s.constants)


def _term(m, t, env):
    k = type(t).__name__
    if k == "Var":
        return env[t.name]
    if k == "Const":
        if t.name in m.constants:
            return m.constants[t.name]
        if t.name in m.elements:
            return t.name
        raise KeyError(f"constant {t.name} has no denotation")
    if k == "App":
        return m.functions[t.func][tuple(_term(m, a, env) for a in t.args)]
    raise TypeError(f"not a term: {k}")


def holds(m, f, env=None):
    """Two-valued truth of a program formula in a Finite structure."""
    env = env or {}
    k = type(f).__name__
    if k == "Absurd":
        return False
    if k == "Atom":
        return tuple(_term(m, a, env) for a in f.args) in m.relations.get(
            f.rel, ())
    if k == "Eq":
        return _term(m, f.left, env) == _term(m, f.right, env)
    if k == "Not":
        return not holds(m, f.body, env)
    if k == "And":
        return holds(m, f.left, env) and holds(m, f.right, env)
    if k == "Or":
        return holds(m, f.left, env) or holds(m, f.right, env)
    if k in ("Forall", "Exists"):
        test = all if k == "Forall" else any
        name = f.var.name
        return test(holds(m, f.body, {**env, name: e})
                    for e in m.domains[f.var.sort])
    raise TypeError(f"not a first-order formula: {k}")


def rank(f):
    k = type(f).__name__
    if k in ("Forall", "Exists"):
        return 1 + rank(f.body)
    if k == "Not":
        return rank(f.body)
    if k in ("And", "Or"):
        return max(rank(f.left), rank(f.right))
    return 0


def check_separator(f, a, b, rounds):
    """A separating sentence must have rank <= rounds, hold in a and fail
    in b."""
    if f is None:
        return "no separating sentence"
    if rank(f) > rounds:
        return f"separating sentence has rank {rank(f)} > {rounds}"
    if not holds(a, f):
        return "separating sentence is false in the first structure"
    if holds(b, f):
        return "separating sentence is true in the second structure"
    return None


# ---------------------------------------------------------------------------
# Isomorphism, embeddings and EF games on relational structures


def canonical_form(m):
    """Least relabelling of the structure over all sort-respecting
    permutations: equal forms iff isomorphic."""
    sorts = sorted(m.domains)
    best = None
    for perms in itertools.product(
            *(itertools.permutations(range(len(m.domains[s])))
              for s in sorts)):
        label = {}
        for s, perm in zip(sorts, perms):
            for e, i in zip(m.domains[s], perm):
                label[e] = (s, i)
        form = tuple(sorted((r, tuple(sorted(tuple(label[e] for e in t)
                                             for t in ts)))
                            for r, ts in m.relations.items()))
        form += tuple(sorted((c, label[e]) for c, e in m.constants.items()))
        if best is None or form < best:
            best = form
    return (tuple((s, len(m.domains[s])) for s in sorts), best)


def isomorphic(a, b):
    return canonical_form(a) == canonical_form(b)


def is_embedding(a, b, mapping):
    """Injective, sort-preserving, atomic facts preserved both ways."""
    if set(mapping) != a.elements:
        return False
    if len(set(mapping.values())) != len(mapping):
        return False
    for s, es in a.domains.items():
        if any(mapping[e] not in b.domains.get(s, ()) for e in es):
            return False
    for r in set(a.relations) | set(b.relations):
        ra, rb = a.relations.get(r, set()), b.relations.get(r, set())
        arity = len(next(iter(ra | rb), ()))
        for t in itertools.product(sorted(a.elements), repeat=arity):
            if (t in ra) != (tuple(mapping[e] for e in t) in rb):
                return False
    return True


def embeds(a, b):
    """Whether any embedding of a into b exists, by trying every
    injection (single sort)."""
    (sa,) = a.domains
    src = a.domains[sa]
    for img in itertools.permutations(b.domains.get(sa, ()), len(src)):
        if is_embedding(a, b, dict(zip(src, img))):
            return True
    return False


def _partial_iso(a, b, ta, tb):
    for i, j in itertools.product(range(len(ta)), repeat=2):
        if (ta[i] == ta[j]) != (tb[i] == tb[j]):
            return False
    for r in set(a.relations) | set(b.relations):
        ra, rb = a.relations.get(r, set()), b.relations.get(r, set())
        arity = len(next(iter(ra | rb), ()))
        for idx in itertools.product(range(len(ta)), repeat=arity):
            if (tuple(ta[i] for i in idx) in ra) != (
                    tuple(tb[i] for i in idx) in rb):
                return False
    return True


def ef_duplicator_wins(a, b, rounds):
    """Solve the r-round EF game on single-sorted relational structures
    by search over positions."""
    ea = sorted(a.elements)
    eb = sorted(b.elements)
    memo = {}

    def wins(ta, tb, r):
        key = (ta, tb, r)
        if key not in memo:
            if not _partial_iso(a, b, ta, tb):
                memo[key] = False
            elif r == 0:
                memo[key] = True
            else:
                memo[key] = (
                    all(any(wins(ta + (x,), tb + (y,), r - 1) for y in eb)
                        for x in ea)
                    and all(any(wins(ta + (x,), tb + (y,), r - 1)
                                for x in ea) for y in eb))
        return memo[key]

    return wins((), (), rounds)


def chains_equivalent(m, n, rounds):
    """Linear orders of sizes m, n agree on all sentences of rank k iff
    m = n or both are at least 2^k - 1."""
    bound = 2 ** rounds - 1
    return m == n or (m >= bound and n >= bound)


def sets_equivalent(m, n, rounds):
    """Pure sets of sizes m, n agree up to rank k iff m = n or both are at
    least k."""
    return m == n or (m >= rounds and n >= rounds)


def chain_atomic(n):
    """Atomicity of an n-element chain against the type pool of literals
    under quantifier prefixes: a pool formula in v0 says only whether v0
    has a predecessor or a successor (or nothing about v0), so no single
    member isolates the type of an element having both; such elements
    exist iff n >= 3."""
    return n <= 2


# ---------------------------------------------------------------------------
# Enumeration schemes of the presentations, by index arithmetic


def naturals(limit):
    return list(range(limit))


def integers(limit):
    """0, 1, -1, 2, -2, ..."""
    out = [0]
    i = 1
    while len(out) < limit:
        out += [i, -i]
        i += 1
    return out[:limit]


def rationals(limit):
    """Reduced fractions n/m, m > 0, by |n| + m, then m, then n."""
    out = []
    total = 1
    while len(out) < limit:
        for m in range(1, total + 1):
            a = total - m
            for n in sorted({-a, a}):
                if gcd(abs(n), m) == 1:
                    out.append(Fraction(n, m))
        total += 1
    return out[:limit]


SCHEMES = {"naturals": naturals, "integers": integers,
           "rationals": rationals}


def fuel_eval(f, domain, fragment, env=None, steps=None):
    """Fuel-bounded three-valued truth of a benchmark sentence.

    `f` is the benchmark's own tuple AST.  Quantifiers range over `domain`
    (the first `fuel` elements).  A universal that finds no counterexample
    and an existential that finds no witness stay unknown (None) unless
    `fragment` treats the range as the whole domain; unknowns propagate
    through the connectives by the strong Kleene tables.  Evaluation stops
    where the value is settled, left to right; `steps`, a one-element
    list, counts the quantifier bodies evaluated."""
    env = env or {}
    op = f[0]
    if op == "lt":
        return term_value(f[1], env) < term_value(f[2], env)
    if op == "eq":
        return term_value(f[1], env) == term_value(f[2], env)
    if op == "not":
        v = fuel_eval(f[1], domain, fragment, env, steps)
        return None if v is None else not v
    if op in ("and", "or"):
        stop = op == "or"  # the value that settles the connective
        a = fuel_eval(f[1], domain, fragment, env, steps)
        if a is stop:
            return stop
        b = fuel_eval(f[2], domain, fragment, env, steps)
        if b is stop:
            return stop
        return (not stop) if (a is not None and b is not None) else None
    if op in ("forall", "exists"):
        want = op == "exists"
        unknown = False
        for e in domain:
            if steps is not None:
                steps[0] += 1
            v = fuel_eval(f[2], domain, fragment, {**env, f[1]: e}, steps)
            if v is None:
                unknown = True
            elif v == want:
                return want
        if unknown or not fragment:
            return None
        return not want
    raise ValueError(op)


def term_value(t, env):
    if t[0] == "var":
        return env[t[1]]
    if t[0] == "zero":
        return 0
    if t[0] == "succ":
        return term_value(t[1], env) + 1
    raise ValueError(t[0])


def witness_generative(scheme, pieces, misses, bound):
    """Verdict of a piecewise affine self-map on the first `bound`
    elements: 'generative' if it is injective, fixes 0 where 0 is a
    constant, preserves < both ways and misses the certificate;
    otherwise 'unknown'.  `pieces` is a list of (threshold or None,
    slope, offset): elements below the threshold (None: every element)
    map to slope * x + offset."""
    sample = SCHEMES[scheme](bound)

    def image(x):
        for threshold, a, b in pieces:
            if threshold is None or x < threshold:
                return a * x + b
        raise ValueError("no piece covers the element")

    images = [image(x) for x in sample]
    if len(set(images)) != len(images):
        return "unknown"
    if scheme == "integers" and 0 in sample and image(0) != 0:
        return "unknown"
    for (x, ix), (y, iy) in itertools.product(zip(sample, images), repeat=2):
        if (x < y) != (ix < iy):
            return "unknown"
    if misses in images:
        return "unknown"
    return "generative"
