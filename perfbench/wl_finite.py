"""finite-models: evaluation on explicit finite structures.

Scott sentences of fresh structures are checked against every target
structure (unary predicate up to size 5, digraphs up to size 3; the
targets are built once in set-up and shared, as a user checking many
sentences against one catalogue would).  Rank-bounded types and
atomicity on chains, I_OMEGA soundness over all small structures (as in
acceptance criterion 5) for fresh rule bodies, Morley coding of fresh
bundles and G-omega verification of candidates whose verdict is planted
by construction, and the `type`, `atomic`, `scott`, `morley-code` and
`verify-omega` commands complete a round.
"""

import itertools
import os

import oracles
from harness import Op, run_cli
from wl_ef import Gen, chain, fresh_names

NAME = "finite-models"

VOCABS = {
    "unary": "sort S\nrel P : S\n",
    "digraph": "sort S\nrel R : S S\n",
    "chain": "sort S\nrel < : S S\n",
    "omega": "sort S\nrel P : S\nrel Q : S\nconst a : S\nconst b : S\n",
}
UNARY_TARGET_SIZES = (1, 2, 3, 4, 5)
DIGRAPH_TARGET_SIZES = (1, 2, 3)
OMEGA_SIZES = (1, 2, 3)
SCOTT_SLOTS = [("unary", 2), ("unary", 3), ("unary", 4), ("digraph", 2),
               ("digraph", 3)]
TYPE_SLOTS = [(3, 1), (5, 1), (4, 2), (6, 2)]
ATOMIC_SLOTS = [(2, 1), (3, 1), (5, 1), (2, 2), (4, 2), (6, 2)]
OMEGA_BODIES = 3
BUNDLES = 2
COMBOS = [(p, q) for p in (True, False) for q in (True, False)]


def make_inputs(rng, work):
    paths = {}
    for name, text in VOCABS.items():
        paths[name] = os.path.join(work, f"{name}.voc")
        with open(paths[name], "w") as fh:
            fh.write(text)
    # the benchmark's own per-run cache of the targets' canonical forms
    return {"vocab_texts": VOCABS, "vocab_paths": paths, "forms": {}}


def setup(program, inputs):
    vocabs = {k: program.syntax.parse_vocabulary(t)
              for k, t in inputs["vocab_texts"].items()}
    every = program.structures.all_finite_structures
    return {
        "vocabs": vocabs,
        "vocab_paths": inputs["vocab_paths"],
        "targets": {
            "unary": [s for n in UNARY_TARGET_SIZES
                      for s in every(vocabs["unary"], n)],
            "digraph": [s for n in DIGRAPH_TARGET_SIZES
                        for s in every(vocabs["digraph"], n)],
        },
        "omega_structures": {n: list(every(vocabs["omega"], n))
                             for n in OMEGA_SIZES},
        "forms": inputs["forms"],
    }


def _target_forms(shared, kind):
    cache = shared["forms"]
    if kind not in cache:
        cache[kind] = [oracles.canonical_form(oracles.Finite.of(t))
                       for t in shared["targets"][kind]]
    return cache[kind]


# -- operations


def _scott_op(program, shared, rng, kind, n):
    if kind == "unary":
        dom = fresh_names(rng, n)
        g = Gen("P", {"S": dom}, {(e,) for e in dom if rng.random() < 0.5})
    else:
        dom = fresh_names(rng, n)
        g = Gen("R", {"S": dom},
                {(a, b) for a in dom for b in dom if rng.random() < 0.4})
    text = g.text("source")
    vocab = shared["vocabs"][kind]
    targets = shared["targets"][kind]
    st, ta = program.structures, program.types_atomicity

    def call():
        f = ta.scott_sentence_finite(st.parse_structure(text, vocab=vocab))
        return [st.eval_sentence(t, f).value for t in targets]

    def check(values):
        form = oracles.canonical_form(g.finite)
        want = ["true" if f == form else "false"
                for f in _target_forms(shared, kind)]
        if values != want:
            bad = next(i for i, (v, w) in enumerate(zip(values, want))
                       if v != w)
            return f"target {bad}: {values[bad]}, isomorphism says {want[bad]}"
        return None

    return Op(f"scott {kind}{n}", call, check)


def _is_successor_formula(f, rank):
    """exists x<rank>. (v0 < x<rank>), a member of the type pool."""
    y = f"x{rank}"
    return (type(f).__name__ == "Exists" and f.var.name == y
            and type(f.body).__name__ == "Atom" and f.body.rel == "<"
            and [a.name for a in f.body.args] == ["v0", y])


def _check_type(formulas, g, elem, rank):
    members = set(formulas)
    for f in formulas:
        if not oracles.holds(g.finite, f, {"v0": elem}):
            return f"type member false at {elem}"
        if any(type(h).__name__ == "Not" and h.body == f for h in members):
            return "type holds a formula and its negation"
    dom = g.domains["S"]
    last = dom[-1] == elem
    if any(_is_successor_formula(f, rank) for f in formulas) == last:
        return f"successor formula {'in' if last else 'missing from'} type"
    return None


def _type_op(program, shared, rng, n, rank):
    g = chain(rng, n)
    text = g.text("chain")
    vocab = shared["vocabs"]["chain"]
    st, ta = program.structures, program.types_atomicity

    def call():
        s = st.parse_structure(text, vocab=vocab)
        return [ta.complete_type(s, (e,), rank).formulas
                for e in g.domains["S"]]

    def check(types):
        for elem, formulas in zip(g.domains["S"], types):
            err = _check_type(formulas, g, elem, rank)
            if err:
                return err
        return None

    return Op(f"type chain{n} r{rank}", call, check)


def _atomic_op(program, shared, rng, n, rank):
    text = chain(rng, n).text("chain")
    vocab = shared["vocabs"]["chain"]
    st, ta = program.structures, program.types_atomicity
    want = "atomic-at-rank" if oracles.chain_atomic(n) else \
        "not-atomic-at-rank"

    def call():
        return ta.is_atomic(st.parse_structure(text, vocab=vocab),
                            rank).status

    def check(status):
        return None if status == want else f"{status}, theory says {want}"

    return Op(f"atomic chain{n} r{rank}", call, check)


# the I_OMEGA rule bodies: quantifier-free in x over P, Q and the constants


def _random_body(rng, depth=2):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([("P",), ("Q",), ("eq", "a"), ("eq", "b")])
    op = rng.choice(["~", "&", "|"])
    if op == "~":
        return ("~", _random_body(rng, depth - 1))
    return (op, _random_body(rng, depth - 1), _random_body(rng, depth - 1))


def _body_text(f):
    if f[0] in ("P", "Q"):
        return f"{f[0]}(x)"
    if f[0] == "eq":
        return f"x = {f[1]}"
    if f[0] == "~":
        return f"~({_body_text(f[1])})"
    return f"({_body_text(f[1])} {f[0]} {_body_text(f[2])})"


def _body_value(f, m, e):
    if f[0] in ("P", "Q"):
        return (e,) in m.relations.get(f[0], ())
    if f[0] == "eq":
        return e == m.constants[f[1]]
    if f[0] == "~":
        return not _body_value(f[1], m, e)
    a, b = _body_value(f[1], m, e), _body_value(f[2], m, e)
    return (a and b) if f[0] == "&" else (a or b)


def _omega_op(program, shared, body, sizes):
    text = _body_text(body)
    vocab = shared["vocabs"]["omega"]
    structures = [s for n in sizes for s in shared["omega_structures"][n]]
    syn, omr = program.syntax, program.omega_rules

    def call():
        f = syn.parse_formula(text, vocab, bound=[("x", "S")])
        x = syn.Var("x", "S")
        insts = [omr.instantiate_schema(vocab, "I_OMEGA", f, x,
                                        family="tau")]
        insts += [omr.instantiate_schema(vocab, "I_FORALL_E", f, x,
                                         params=(syn.Const(c, "S"),),
                                         family="tau") for c in ("a", "b")]
        return [all(omr.check_instance_sound(s, i).status == "sound"
                    for i in insts) for s in structures]

    def check(sound):
        for s, got in zip(structures, sound):
            m = oracles.Finite.of(s)
            named = all(_body_value(body, m, m.constants[c])
                        for c in ("a", "b"))
            every = all(_body_value(body, m, e) for e in m.domains["S"])
            # the omega-rule is unsound exactly where every named instance
            # holds and the universal fails
            if got != (not (named and not every)):
                return f"{text}: soundness {got} on {s.domains['S']}"
        return None

    return Op(f"I_OMEGA sizes {sizes}", call, check)


# -- Morley coding


class Bundle:
    """A Chang bundle over P, Q whose unary types are conjunctions of
    P/Q literals, and the coding theory it compiles to, written here."""

    def __init__(self, rng, index, k):
        self.combos = rng.sample(COMBOS, k)
        self.note = f"bench bundle {index}-{rng.randrange(10 ** 6)}"
        self.axioms = rng.randint(0, 1)

    @staticmethod
    def literal(combo, var):
        p, q = combo
        return (f"{'' if p else '~'}P({var}) & {'' if q else '~'}Q({var})")

    def bundle_text(self):
        lines = [f"note {self.note}", "base-vocab {", "  sort S",
                 "  rel P : S", "  rel Q : S", "}"]
        lines += ["axiom forall x:S. (P(x) | ~P(x))"] * self.axioms
        lines += [f"type n=1 i={i} : {self.literal(c, 'v0')}"
                  for i, c in enumerate(self.combos)]
        return "\n".join(lines) + "\n"

    def members(self):
        return [f"c_1_{i}" for i in range(len(self.combos))]

    def axiom_count(self):
        k = len(self.combos)
        # sort predicates, base axioms, distinctness, coding, totality
        return 2 + self.axioms + k * (k - 1) // 2 + k + 1

    def theory_text(self):
        mem = self.members()
        lines = [f"# Morley coding of {self.note}", "sort N", "sort V",
                 "rel N : N", "rel V : V", "rel R1 : N V", "rel P : V",
                 "rel Q : V", f"family c : N = {{ {' '.join(mem)} }}",
                 "schema G_OMEGA over c", "",
                 "axiom forall x0:N. N(x0)", "axiom forall v0:V. V(v0)"]
        lines += ["axiom forall x:V. (P(x) | ~P(x))"] * self.axioms
        lines += [f"axiom {a} != {b}"
                  for a, b in itertools.combinations(mem, 2)]
        lines += [f"axiom forall v0:V. (R1({c}, v0) <-> "
                  f"({self.literal(combo, 'v0')}))"
                  for c, combo in zip(mem, self.combos)]
        lines.append("axiom forall v0:V. exists v1:N. R1(v1, v0)")
        return "\n".join(lines) + "\n"

    def candidate(self, rng, plant):
        """Candidate text and its planted status: 'pass', 'uncoded' (an
        element of an uncovered combination, coded only by an extra
        nonstandard N element) or 'coding' (one coding pair removed)."""
        ns = [f"n{i}" for i in range(len(self.combos))]
        vs = {f"u{i}": rng.choice(self.combos)
              for i in range(rng.randint(2, 4))}
        r1 = {(n, u) for n, combo in zip(ns, self.combos)
              for u, uc in vs.items() if uc == combo}
        if plant == "uncoded":
            missing = [c for c in COMBOS if c not in self.combos]
            vs["z"] = rng.choice(missing)
            ns.append("e")
            r1.add(("e", "z"))
        elif plant == "coding":
            r1.discard(min(r1))
        p = [u for u, (pv, _) in vs.items() if pv]
        q = [u for u, (_, qv) in vs.items() if qv]
        lines = ["structure candidate",
                 f"domain N {{ {' '.join(ns)} }}",
                 f"domain V {{ {' '.join(vs)} }}",
                 "rel N = { " + " ".join(f"({n})" for n in ns) + " }",
                 "rel V = { " + " ".join(f"({u})" for u in vs) + " }",
                 "rel P = { " + " ".join(f"({u})" for u in p) + " }",
                 "rel Q = { " + " ".join(f"({u})" for u in q) + " }",
                 "rel R1 = { " + " ".join(f"({n} {u})"
                                          for n, u in sorted(r1)) + " }"]
        lines += [f"const {m} = {n}" for m, n in zip(self.members(), ns)]
        return "\n".join(lines) + "\n"


def _check_morley_status(status, trace, plant):
    want = "pass" if plant == "pass" else "violation"
    if status != want:
        return f"{status}, planted {plant}"
    if plant == "uncoded" and not any("uncoded tuple (z)" in t
                                      for t in trace):
        return "violation trace does not name the uncoded tuple"
    if plant == "coding" and not (trace and "fails" in trace[0]):
        return "violation trace does not name the failing axiom"
    return None


def _morley_code_op(program, bundle):
    text = bundle.bundle_text()
    mo = program.morley

    def call():
        return mo.morley_code(mo.chang_bundle_load(text))

    def check(t):
        if len(t.axioms) != bundle.axiom_count():
            return f"{len(t.axioms)} axioms, the template gives " \
                   f"{bundle.axiom_count()}"
        fam = t.vocab.families.get("c")
        if fam is None or list(fam.members) != bundle.members():
            return "flagged constants are not c_1_0..c_1_{k-1}"
        if "schema G_OMEGA over c" not in t.text.splitlines():
            return "no G_OMEGA schema line"
        return None

    return Op("morley-code", call, check)


def _verify_op(program, bundle, rng, plant):
    theory, cand = bundle.theory_text(), bundle.candidate(rng, plant)
    mo, st = program.morley, program.structures

    def call():
        t = mo.parse_theory(theory)
        return mo.verify_omega_model(t, st.parse_structure(cand,
                                                           vocab=t.vocab))

    def check(v):
        return _check_morley_status(v.status, v.trace, plant)

    return Op(f"verify-omega {plant}", call, check)


# -- commands


def _write(work, name, text):
    path = os.path.join(work, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _cli_ops(program, shared, rng, index, work):
    over = os.path.basename(shared["vocab_paths"]["chain"])
    ops = []

    # type: the successor formula is a member unless the element is last
    n, rank = rng.choice(TYPE_SLOTS)
    g = chain(rng, n)
    elem = rng.choice(g.domains["S"])
    path = _write(work, f"r{index}-type.struct", g.text("chain", over))
    argv = ["type", "--structure", path, "--tuple", elem, "--rank",
            str(rank)]
    succ = f"  exists x{rank}:S. (v0 < x{rank})"
    has_succ = elem != g.domains["S"][-1]

    def check_type(result, succ=succ, has_succ=has_succ):
        code, out, _ = result
        if code != 0 or (succ in out.splitlines()) != has_succ:
            return f"exit {code}, successor formula listed: {not has_succ}"
        return None

    ops.append(Op("cli type", lambda: run_cli(program, argv), check_type))

    # atomic: exit 0 iff the chain is atomic
    n = rng.choice([2, 3, 4])
    path = _write(work, f"r{index}-atomic.struct",
                  chain(rng, n).text(f"chain{n}", over))
    argv_a = ["atomic", "--structure", path, "--rank", "1"]
    want_a = 0 if oracles.chain_atomic(n) else 1

    def check_atomic(result):
        code = result[0]
        return None if code == want_a else f"exit {code}, want {want_a}"

    ops.append(Op("cli atomic", lambda: run_cli(program, argv_a),
                  check_atomic))

    # scott: one existential per element, one closure per sort
    n = rng.randint(2, 4)
    dom = fresh_names(rng, n)
    g = Gen("P", {"S": dom}, {(e,) for e in dom if rng.random() < 0.5})
    path = _write(work, f"r{index}-scott.struct",
                  g.text("source", os.path.basename(
                      shared["vocab_paths"]["unary"])))
    argv_s = ["scott", path]

    def check_scott(result, n=n):
        code, out, _ = result
        if code != 0 or out.count("exists x") != n or \
                out.count("forall z:S.") != 1:
            return f"exit {code}, quantifiers do not match {n} elements"
        return None

    ops.append(Op("cli scott", lambda: run_cli(program, argv_s),
                  check_scott))

    # morley-code and verify-omega on a fresh bundle
    bundle = Bundle(rng, index, rng.randint(2, 3))
    bpath = _write(work, f"r{index}.chg", bundle.bundle_text())
    out_path = os.path.join(work, f"r{index}-out.thy")
    argv_m = ["morley-code", bpath, "-o", out_path]
    line = (f"wrote {out_path} ({bundle.axiom_count()} axioms, note: "
            f"{bundle.note})")

    def check_code(result):
        code, out, _ = result
        if code != 0 or out.strip() != line:
            return f"exit {code}, {out.strip()!r}"
        return None

    ops.append(Op("cli morley-code", lambda: run_cli(program, argv_m),
                  check_code))

    plant = rng.choice(["pass", "uncoded"])
    tpath = _write(work, f"r{index}.thy", bundle.theory_text())
    cpath = _write(work, f"r{index}-cand.struct",
                   bundle.candidate(rng, plant))
    argv_v = ["verify-omega", tpath, cpath]

    def check_verify(result):
        code, out, _ = result
        want = 0 if plant == "pass" else 1
        status = "pass" if code == 0 else "violation"
        err = _check_morley_status(status, out.splitlines(), plant)
        return err if code == want else f"exit {code}, planted {plant}"

    ops.append(Op("cli verify-omega", lambda: run_cli(program, argv_v),
                  check_verify))
    return ops


def make_round(program, shared, rng, index, work):
    ops = [_scott_op(program, shared, rng, kind, n)
           for kind, n in SCOTT_SLOTS]
    ops += [_type_op(program, shared, rng, n, rank)
            for n, rank in TYPE_SLOTS]
    ops += [_atomic_op(program, shared, rng, n, rank)
            for n, rank in ATOMIC_SLOTS]
    for _ in range(OMEGA_BODIES):
        body = _random_body(rng)
        ops.append(_omega_op(program, shared, body, (1, 2)))
        ops.append(_omega_op(program, shared, body, (3,)))
    for i in range(BUNDLES):
        bundle = Bundle(rng, f"{index}.{i}", rng.randint(2, 3))
        ops.append(_morley_code_op(program, bundle))
        for plant in ("pass", "uncoded", "coding"):
            ops.append(_verify_op(program, bundle, rng, plant))
    ops += _cli_ops(program, shared, rng, index, work)
    return ops
