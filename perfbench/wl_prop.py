"""prop-forcing: truth-table forcing, admissible valuations and bounded
derivability over finite sentence universes.

Each round names its atoms afresh, so no query repeats within a run, and
builds its universes in set-up.  Over each universe the round asks all
three connectives under all four rule sets: twelve verdicts share one
universe, as a user comparing rule sets would.  The |/vE and
full-catalogue tables on the 302-sentence depth-2 universe are left out
(about 21 s each), and so is the & table under &I,&E1,&E2 there (2.5 s);
the other five depth-2 tables run every round.
"""

import oracles
from harness import Op, run_cli

NAME = "prop-forcing"

RULE_SETS = {
    "and": ("&I", "&E1", "&E2"),
    "or": ("vI1", "vI2", "vE"),
    "neg": ("negI", "negE", "DN"),
    "full": ("&I", "&E1", "&E2", "vI1", "vI2", "vE", "vE_MC", "negI",
             "negE", "DN", "Refutation"),
}
CONNECTIVES = ("&", "|", "~")
DEPTH2_TABLES = (("and", "|"), ("and", "~"), ("neg", "&"), ("neg", "|"),
                 ("neg", "~"))
PROOF_DEPTH = 6
DERIVABLE_ATOMS = 3


def _atom_names(rng, count, taken):
    """Fresh atom names of one length, so that every round's universes sort
    alike."""
    out = []
    while len(out) < count:
        name = f"p{rng.randrange(1000, 10000)}"
        if name not in taken:
            taken.add(name)
            out.append(name)
    return out


def make_inputs(rng, work):
    atoms = _atom_names(rng, DERIVABLE_ATOMS, set())
    return {"atoms": atoms,
            "vocab": "".join(f"rel {a} :\n" for a in atoms)}


def round_inputs(inputs, rng):
    """The round's universes, key -> (atoms, depth), with fresh atoms."""
    taken = set(inputs["atoms"])
    specs = {f"d1a{k}": (_atom_names(rng, k, taken), 1) for k in range(1, 6)}
    specs["d2a1"] = (_atom_names(rng, 1, taken), 2)
    return {**inputs, "universes": specs, "taken": taken}


def setup(program, inputs):
    build = program.propositional.sentence_universe
    return {"atoms": inputs["atoms"], "taken": inputs["taken"],
            "vocab": program.syntax.parse_vocabulary(inputs["vocab"]),
            "universes": {key: build(atoms, depth) for key, (atoms, depth)
                          in inputs["universes"].items()}}


# -- the benchmark's own propositional formulas (for derivable queries)


def _random_formula(rng, atoms, depth, connectives):
    if depth == 0 or rng.random() < 0.25:
        return ("atom", rng.choice(atoms))
    op = rng.choice(connectives)
    if op == "~":
        return ("~", _random_formula(rng, atoms, depth - 1, connectives))
    return (op, _random_formula(rng, atoms, depth - 1, connectives),
            _random_formula(rng, atoms, depth - 1, connectives))


def _text(f):
    if f[0] == "atom":
        return f[1]
    if f[0] == "~":
        return "~" + _text(f[1])
    return f"({_text(f[1])} {f[0]} {_text(f[2])})"


def _value(f, env):
    if f[0] == "atom":
        return env[f[1]]
    if f[0] == "~":
        return not _value(f[1], env)
    a, b = _value(f[1], env), _value(f[2], env)
    return (a and b) if f[0] == "&" else (a or b)


def _valid(premises, conclusions, atoms):
    for env in oracles.atom_assignments(atoms):
        if all(_value(p, env) for p in premises) and not any(
                _value(c, env) for c in conclusions):
            return False
    return True


# -- operations


def _table_op(program, universe, key, rule_set, connective):
    def call():
        return program.propositional.determined_truth_table(
            connective, RULE_SETS[rule_set], universe, PROOF_DEPTH)

    def check(table):
        return oracles.check_table(table, rule_set, connective)

    return Op(f"table {connective} {rule_set} {key}", call, check)


def _admissible_op(program, universe, key, rule_set):
    prop = program.propositional

    def call():
        return universe, prop.admissible_valuations(
            RULE_SETS[rule_set], universe, PROOF_DEPTH)

    def check(result):
        u, vals = result
        vectors = [tuple(v[s] for s in u.sentences) for v in vals]
        if vectors != sorted(vectors) or len(set(vectors)) != len(vectors):
            return "valuations not distinct and in lexicographic order"
        got = set(vectors)
        if rule_set == "full":
            if got != oracles.classical_vectors(u.sentences, u.atoms):
                return "admissible set is not the classical set"
        elif rule_set == "and":
            if got != oracles.conjunction_respecting(u.sentences):
                return "admissible set is not the &-table-respecting set"
        else:
            if not oracles.classical_vectors(u.sentences, u.atoms) <= got:
                return "a classical valuation is missing"
            if not all(oracles.hypothesis_free_sound(b, u.sentences,
                                                     RULE_SETS[rule_set])
                       for b in got):
                return "a valuation breaks a rule instance"
        return None

    return Op(f"admissible {rule_set} {key}", call, check)


def _derivable_op(program, shared, rng, rule_set, connectives, exact):
    atoms = shared["atoms"]
    premises = [_random_formula(rng, atoms, 2, connectives)
                for _ in range(rng.randint(1, 2))]
    conclusions = [_random_formula(rng, atoms, 2, connectives)
                   for _ in range(rng.randint(1, 2))]
    texts = ([_text(f) for f in premises], [_text(f) for f in conclusions])
    valid = _valid(premises, conclusions, atoms)
    syntax, prop = program.syntax, program.propositional

    def call():
        vocab = shared["vocab"]
        return prop.derivable(
            RULE_SETS[rule_set],
            [syntax.parse_formula(t, vocab) for t in texts[0]],
            [syntax.parse_formula(t, vocab) for t in texts[1]],
            PROOF_DEPTH)

    def check(d):
        if d.decided and not valid:
            return f"{texts} derived but classically invalid"
        if exact and d.decided is not valid:
            return f"{texts} decided {d.decided}, validity is {valid}"
        return None

    return Op(f"derivable {rule_set}", call, check)


def _cli_admissible_op(program, rng, taken):
    (atom,) = _atom_names(rng, 1, taken)
    # one atom at depth 1: 2 base sentences, 2 negations, 4 conjunctions,
    # 4 disjunctions; the & rules fix each conjunction and nothing else
    want = 2 ** (12 - 4)
    argv = ["prop-admissible", "--atoms", atom, "--depth", "1",
            "--rules", "&I,&E1,&E2"]

    def check(result):
        code, out, _ = result
        line = f"admissible valuations: {want} (proof depth {PROOF_DEPTH})"
        if code != 0 or line not in out.splitlines():
            return f"exit {code}, no line {line!r}"
        return None

    return Op("cli prop-admissible", lambda: run_cli(program, argv), check)


def _cli_table_op(program, rng, taken):
    atoms = _atom_names(rng, 2, taken)
    argv = ["prop-table", "--connective", "|", "--atoms", ",".join(atoms),
            "--rules", "vI1,vI2,vE"]
    want = oracles.expected_table("or", "|")

    def check(result):
        code, out, _ = result
        lines = out.splitlines()
        if code != 0:
            return f"exit {code}"
        for row, verdict in want.items():
            key = ",".join("T" if b else "F" for b in row)
            if f"  row ({key}): {verdict}" not in lines:
                return f"exit {code}, row {key} is not {verdict}"
        return None

    return Op("cli prop-table", lambda: run_cli(program, argv), check)


def make_round(program, shared, rng, index, work):
    taken = set(shared["taken"])
    universes = shared["universes"]
    ops = []
    for key, u in universes.items():
        for rule_set in RULE_SETS:
            for connective in CONNECTIVES:
                if key == "d2a1" and (rule_set, connective) not in \
                        DEPTH2_TABLES:
                    continue
                ops.append(_table_op(program, u, key, rule_set, connective))
    for rule_set in RULE_SETS:
        ops.append(_admissible_op(program, universes["d1a1"], "d1a1",
                                  rule_set))
    ops += [_admissible_op(program, universes[key], key, "full")
            for key in ("d1a2", "d1a3")]
    for _ in range(4):
        ops.append(_derivable_op(program, shared, rng, "and", ("&",), True))
        ops.append(_derivable_op(program, shared, rng, "or", ("|",), False))
        ops.append(_derivable_op(program, shared, rng, "full",
                                 ("&", "|", "~"), False))
    ops.append(_cli_admissible_op(program, rng, taken))
    ops.append(_cli_table_op(program, rng, taken))
    return ops
