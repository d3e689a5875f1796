"""presentations: fuel-bounded evaluation over term-generated
presentations, generativity witnesses, and the omega-rule commands.

Fresh quantified sentences are evaluated on omega-succ, the integers and
the rationals (each parsed once in set-up and shared by every sentence)
at fuel 8 to 32, under both the fuel-bounded and the `fragment=True`
semantics.  Quantifier depth stays at 2 on omega-succ, where each
quantifier entry re-enumerates the ground terms and fuel 32 already costs
about a second.  Fresh witness maps are verified at bounds 12 to 40, and
`generative`, `refute`, `check-proof` and `applicability` run on fresh
inputs.
"""

import json
import os
from fractions import Fraction

import oracles
from harness import Op, run_cli

NAME = "presentations"

PRESENTATIONS = {
    "N": ("nat.voc", "sort N\nconst 0 : N\nfun S : N -> N\n",
          "structure omega-succ over nat.voc\ngenerated by tau\n",
          "naturals"),
    "Z": ("integers.voc",
          "sort Z\nrel < : Z Z\nconst 0 : Z\n"
          "family D : Z countable scheme integers\n",
          "structure integers over integers.voc\ngenerated by D\n"
          "rewrite 0 -> D_0\nrel-decide < by integer-lt\n", "integers"),
    "Q": ("rationals.voc",
          "sort Q\nrel < : Q Q\nfamily D : Q countable scheme rationals\n",
          "structure rationals over rationals.voc\ngenerated by D\n"
          "rel-decide < by rational-lt\n", "rationals"),
}
Q_AXIOMS = ("axiom forall x:N. S(x) != 0\n"
            "axiom forall x:N. forall y:N. (S(x) != S(y) | x = y)\n")

# (presentation, quantifiers, fuel); each runs under both semantics
SENTENCE_SLOTS = [("N", 1, 32), ("N", 2, 8), ("N", 2, 12), ("N", 2, 16),
                  ("Z", 2, 8), ("Z", 2, 16), ("Z", 2, 32), ("Z", 3, 8),
                  ("Z", 3, 16), ("Q", 2, 8), ("Q", 2, 16), ("Q", 2, 32),
                  ("Q", 3, 8), ("Q", 3, 16)]
# the fuel-32 blow-up on omega-succ, once per round, semantics drawn
HEAVY_SLOT = ("N", 2, 32)
WITNESS_BOUNDS = (12, 24, 40)
FULL_SCAN = 0.9


def make_inputs(rng, work):
    paths = {}
    for key, (voc_name, voc, struct, _) in PRESENTATIONS.items():
        with open(os.path.join(work, voc_name), "w") as fh:
            fh.write(voc)
        paths[key] = os.path.join(work, f"{key}.struct")
        with open(paths[key], "w") as fh:
            fh.write(struct)
    q_path = os.path.join(work, "q.thy")
    with open(q_path, "w") as fh:
        fh.write(Q_AXIOMS)
    return {"paths": paths, "q_path": q_path}


def setup(program, inputs):
    presentations = {}
    for key, (_, voc, struct, _) in PRESENTATIONS.items():
        vocab = program.syntax.parse_vocabulary(voc)
        presentations[key] = program.structures.parse_structure(
            struct, vocab=vocab)
    return {"presentations": presentations, **inputs}


# -- the benchmark's own sentences


def _term(rng, key, scope):
    choices = [("var", v) for v in scope]
    if key == "N":
        choices += [("zero",), ("succ", ("var", rng.choice(scope)))]
    elif key == "Z":
        choices.append(("zero",))
    return rng.choice(choices)


def _atom(rng, key, scope):
    op = "eq" if key == "N" or rng.random() < 0.3 else "lt"
    return (op, _term(rng, key, scope), _term(rng, key, scope))


def _matrix(rng, key, scope, depth=1):
    if depth == 0 or rng.random() < 0.4:
        return _atom(rng, key, scope)
    op = rng.choice(["not", "and", "or"])
    if op == "not":
        return ("not", _matrix(rng, key, scope, depth - 1))
    return (op, _matrix(rng, key, scope, depth - 1),
            _matrix(rng, key, scope, depth - 1))


def random_sentence(rng, key, quantifiers, scope=()):
    if quantifiers == 0:
        return _matrix(rng, key, list(scope))
    var = f"x{len(scope) + 1}"
    body = random_sentence(rng, key, quantifiers - 1, scope + (var,))
    if scope and rng.random() < 0.3:
        side = _atom(rng, key, list(scope))
        body = (rng.choice(["and", "or"]), side, body)
    return (rng.choice(["forall", "exists"]), var, body)


def _term_text(t):
    if t[0] == "var":
        return t[1]
    if t[0] == "zero":
        return "0"
    return f"S({_term_text(t[1])})"


def sentence_text(f, key):
    op = f[0]
    if op == "lt":
        return f"({_term_text(f[1])} < {_term_text(f[2])})"
    if op == "eq":
        return f"({_term_text(f[1])} = {_term_text(f[2])})"
    if op == "not":
        return f"~{sentence_text(f[1], key)}"
    if op in ("and", "or"):
        sym = "&" if op == "and" else "|"
        return (f"({sentence_text(f[1], key)} {sym} "
                f"{sentence_text(f[2], key)})")
    return f"({op} {f[1]}:{key}. {sentence_text(f[2], key)})"


_VALUE = {True: "true", False: "false", None: "unknown"}


def _sentence_op(program, shared, rng, key, quantifiers, fuel, fragment):
    # draw until the oracle's count of quantifier steps reaches FULL_SCAN
    # of a full scan, so that a slot costs about the same in every round
    domain = oracles.SCHEMES[PRESENTATIONS[key][3]](fuel)
    full = sum(fuel ** i for i in range(1, quantifiers + 1))
    for _ in range(200):
        ast = random_sentence(rng, key, quantifiers)
        steps = [0]
        want = oracles.fuel_eval(ast, domain, fragment, steps=steps)
        if steps[0] >= FULL_SCAN * full:
            break
    want = _VALUE[want]
    text = sentence_text(ast, key)
    s = shared["presentations"][key]
    syn, st = program.syntax, program.structures

    def call():
        f = syn.parse_formula(text, s.vocab, require_sentence=True)
        return st.eval_sentence(s, f, fuel, fragment=fragment).value

    def check(value):
        return None if value == want else f"{text} at fuel {fuel}: " \
            f"{value}, index arithmetic says {want}"

    sem = "fragment" if fragment else "bounded"
    return Op(f"eval {key} q{quantifiers} f{fuel} {sem}", call, check)


# -- witness maps


def _member(value):
    """The family member naming an integer or a rational."""
    if isinstance(value, Fraction):
        p, q = value.numerator, value.denominator
        return f"D_{p}_{q}" if p >= 0 else f"D[{p},{q}]"
    return f"D_{value}" if value >= 0 else f"D[{value}]"


def _witness_map(rng, key, good):
    """A fresh witness map's text and the verdict index arithmetic gives
    for it at a drawn bound."""
    bound = rng.choice(WITNESS_BOUNDS)
    if key == "Z":
        slope = rng.choice([2, 3, 4])
        pieces = [(None, slope, 0)]
        lines = [f"piece x = x : x -> affine({slope}, 0)"]
        misses = 1 if good else slope  # the image of 1
        scheme = "integers"
    else:
        threshold = rng.choice([Fraction(0), Fraction(1), Fraction(-1),
                                Fraction(1, 2)])
        shift = rng.choice([1, 2])
        pieces = [(threshold, 1, 0), (None, 1, shift)]
        t = _member(threshold)
        lines = [f"piece x < {t} : x -> x",
                 f"piece ~(x < {t}) : x -> affine(1, {shift})"]
        # the gap [t, t + shift) is missed; t + shift is the image of t
        misses = threshold + (Fraction(shift, 2) if good else shift)
        scheme = "rationals"
    text = "\n".join(lines + [f"misses {_member(misses)}"]) + "\n"
    return text, bound, oracles.witness_generative(scheme, pieces, misses,
                                                   bound)


def _witness_op(program, shared, rng, key, good):
    text, bound, want = _witness_map(rng, key, good)
    s = shared["presentations"][key]
    ta = program.types_atomicity

    def call():
        w = ta.parse_witness_map(text, s.vocab)
        return ta.generativity(s, bound=bound, witness=w).verdict

    def check(verdict):
        return None if verdict == want else f"{verdict}, want {want}"

    return Op(f"witness {key} b{bound}", call, check)


def _cli_generative_op(program, shared, rng, work, index):
    key = rng.choice(["Z", "Q"])
    text, bound, want = _witness_map(rng, key, rng.random() < 0.5)
    path = os.path.join(work, f"r{index}.map")
    with open(path, "w") as fh:
        fh.write(text)
    argv = ["generative", shared["paths"][key], "--witness", path,
            "--bound", str(bound)]

    def check(result):
        code, out, _ = result
        first = out.splitlines()[0] if out else ""
        if code != (want != "generative") or f": {want}" not in first:
            return f"exit {code}, {first!r}, want {want}"
        return None

    return Op("cli generative", lambda: run_cli(program, argv), check)


# -- commands


def _fresh(rng, prefix):
    return f"{prefix}{rng.randrange(10 ** 6)}"


def _refute_op(program, shared, rng):
    key = rng.choice(sorted(PRESENTATIONS))
    argv = ["refute", "--structure", shared["paths"][key], "--fresh",
            _fresh(rng, "d")]
    if key == "N" and rng.random() < 0.5:
        argv += ["--theory", shared["q_path"]]

    def check(result):
        code, out, _ = result
        # an all-named presentation admits no proper extension
        if code != 0 or not out.rstrip().endswith("check_derivation: valid"):
            return f"exit {code}, refutation not valid"
        return None

    return Op("cli refute", lambda: run_cli(program, argv), check)


PROOF = """negE: _|_
  I_FORALL_E[{p}]: ({e} != {e})
    I_OMEGA: family=tau forall x:N. (x != {e})
      family /\\{{ (x != {e}) : x in tau }} tag=schema-assumed
  eqI[{e}]: ({e} = {e})
"""


def _check_proof_op(program, shared, rng, work, index):
    e = _fresh(rng, "e")
    valid = rng.random() < 0.5
    # an invalid variant instantiates the universal at 0, not at e
    text = PROOF.format(e=e, p=e if valid else "0")
    voc = os.path.join(work, f"r{index}-ext.voc")
    with open(voc, "w") as fh:
        fh.write(PRESENTATIONS["N"][1] + f"family _ext : N = {{ {e} }}\n")
    prf = os.path.join(work, f"r{index}.prf")
    with open(prf, "w") as fh:
        fh.write(text)
    argv = ["check-proof", prf, "--vocab", voc, "--rules",
            "I_OMEGA,I_FORALL_E,eqI,negE", "--assume-family", "tau"]

    def check(result):
        code, out, _ = result
        word = "valid" if valid else "invalid"
        if code != (0 if valid else 1) or f": {word}" not in out:
            return f"exit {code}, planted {word}"
        return None

    return Op("cli check-proof", lambda: run_cli(program, argv), check)


def _applicability_op(program, rng, work, index):
    consts = [_fresh(rng, "k") for _ in range(rng.randint(0, 2))]
    funs = [_fresh(rng, "f") for _ in range(rng.randint(0, 1))]
    fams = [_fresh(rng, "F") for _ in range(rng.randint(0, 2))]
    lines = ["sort S"] + [f"const {c} : S" for c in consts]
    lines += [f"fun {f} : S -> S" for f in funs]
    lines += [f"family {F} : S countable" for F in fams]
    if rng.random() < 0.5:
        lines.append(f"family {_fresh(rng, 'G')} : S = {{ a b }}")
    path = os.path.join(work, f"r{index}-app.voc")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    # the omega-rule needs infinitely many names: a countable family, or
    # constants closed under a function
    usable = set(fams) | ({"tau"} if consts and funs else set())
    argv = ["--machine", "applicability", "--vocab", path, "--schema",
            "I_OMEGA"]

    def check(result):
        code, out, _ = result
        rep = json.loads(out)
        if code != 0 or set(rep["usable_families"]) != usable or \
                rep["count"] != len(usable) or \
                bool(rep["blockers"]) != (not usable):
            return f"exit {code}, usable {rep['usable_families']}, " \
                   f"want {sorted(usable)}"
        return None

    return Op("cli applicability", lambda: run_cli(program, argv), check)


def make_round(program, shared, rng, index, work):
    ops = []
    for key, quantifiers, fuel in SENTENCE_SLOTS:
        for fragment in (False, True):
            ops.append(_sentence_op(program, shared, rng, key, quantifiers,
                                    fuel, fragment))
    ops.append(_sentence_op(program, shared, rng, *HEAVY_SLOT,
                            rng.random() < 0.5))
    for key in ("Z", "Q"):
        for good in (True, False):
            ops.append(_witness_op(program, shared, rng, key, good))
    ops.append(_cli_generative_op(program, shared, rng, work, index))
    ops.append(_refute_op(program, shared, rng))
    ops.append(_check_proof_op(program, shared, rng, work, index))
    ops.append(_applicability_op(program, rng, work, index))
    return ops
