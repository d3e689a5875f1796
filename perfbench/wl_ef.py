"""ef-iso: Ehrenfeucht-Fraisse verdicts with separating sentences,
isomorphism and embedding search.

Digraph pairs are drawn afresh every round for each (size, rounds) slot,
together with a relabelled copy of one side.  Chains and pure sets come
from fixed (size, size, rounds) slots, where theory gives the verdict; the
6-vs-7 chain at 3 rounds is the one costly separating-sentence synthesis.
Every structure gets fresh element names, so no query repeats.

Two two-sorted pairs per round differ only in the size of a sort the
relation does not mention.  `ef_equivalent` answers `equivalent` for them
(it ignores sorts), so they are counted as failed operations, the same
number in every round.  Only that answer counts as the known fault; a
raise or a wrong separating sentence for them is a wrong verdict.
"""

import os

import oracles
from harness import Op, run_cli

NAME = "ef-iso"

VOCABS = {
    "digraph": "sort S\nrel R : S S\n",
    "chain": "sort S\nrel < : S S\n",
    "set": "sort S\n",
    "two-sorted": "sort A\nsort B\nrel P : A\n",
}
DIGRAPH_SLOTS = [(n, r) for n in (3, 4, 5) for r in (2, 3, 4)]
CHAIN_SLOTS = [(2, 3, 2), (3, 5, 2), (4, 9, 2), (3, 4, 3), (4, 5, 3),
               (6, 7, 3), (7, 9, 3), (8, 9, 3)]
SET_SLOTS = [(3, 4, 3), (2, 9, 3), (3, 9, 4), (8, 9, 4)]
CLI_CHAIN_SLOTS = [(3, 4, 2), (5, 6, 3)]
ISO_SIZES = (4, 5, 6)


def make_inputs(rng, work):
    paths = {}
    for name, text in VOCABS.items():
        paths[name] = os.path.join(work, f"{name}.voc")
        with open(paths[name], "w") as fh:
            fh.write(text)
    return {"vocab_texts": VOCABS, "vocab_paths": paths}


def setup(program, inputs):
    parse = program.syntax.parse_vocabulary
    return {"vocabs": {k: parse(t) for k, t in inputs["vocab_texts"].items()},
            "vocab_paths": inputs["vocab_paths"]}


# -- the benchmark's own structures


class Gen:
    """Structure data plus its text in the program's file format."""

    def __init__(self, rel, domains, tuples):
        self.rel = rel
        self.domains = domains  # sort -> element names
        self.tuples = tuples  # set of element tuples of `rel`
        rels = {rel: tuples} if rel else {}
        self.finite = oracles.Finite(domains, rels)

    def text(self, name, over=None):
        head = f"structure {name}" + (f" over {over}" if over else "")
        lines = [head]
        for sort, elems in self.domains.items():
            lines.append(f"domain {sort} {{ {' '.join(elems)} }}")
        if self.rel:
            body = " ".join("(" + " ".join(t) + ")"
                            for t in sorted(self.tuples))
            lines.append(f"rel {self.rel} = {{ {body} }}")
        return "\n".join(lines) + "\n"


def fresh_names(rng, n, prefix="e"):
    out = set()
    while len(out) < n:
        out.add(f"{prefix}{rng.randrange(10 ** 6)}")
    out = sorted(out)
    rng.shuffle(out)
    return out


def random_digraph(rng, n):
    dom = fresh_names(rng, n)
    edges = {(a, b) for a in dom for b in dom if rng.random() < 0.4}
    return Gen("R", {"S": dom}, edges)


def relabelled(rng, g):
    (sort,) = g.domains
    old = g.domains[sort]
    new = fresh_names(rng, len(old), "f")
    ren = dict(zip(old, new))
    rng.shuffle(new)
    return Gen(g.rel, {sort: new},
               {tuple(ren[e] for e in t) for t in g.tuples})


def chain(rng, n):
    dom = fresh_names(rng, n)
    return Gen("<", {"S": dom},
               {(dom[i], dom[j]) for i in range(n) for j in range(i + 1, n)})


def pure_set(rng, n):
    return Gen(None, {"S": fresh_names(rng, n)}, set())


# -- operations


def _ef_op(program, vocab, a, b, rounds, kind, expect=None, fault=None):
    """`expect`: the verdict theory gives, or None.  A separating sentence
    must check in any case; without `expect`, an `equivalent` verdict is
    settled by isomorphism or, failing that, by solving the EF game."""
    parse = program.structures.parse_structure
    ta, tb = a.text("a"), b.text("b")

    def call():
        return program.types_atomicity.ef_equivalent(
            parse(ta, vocab=vocab), parse(tb, vocab=vocab), rounds)

    def check(result):
        verdict, sentence = result
        if verdict == "distinguished":
            # a checked separating sentence proves the verdict
            err = oracles.check_separator(sentence, a.finite, b.finite,
                                          rounds)
            if err:
                return err
        elif expect is None and not (
                oracles.isomorphic(a.finite, b.finite)
                or oracles.ef_duplicator_wins(a.finite, b.finite, rounds)):
            return "equivalent, but Spoiler wins the EF game"
        if expect is not None and verdict != expect:
            return f"{verdict}, theory says {expect}"
        return None

    return Op(f"ef {kind} r{rounds}", call, check, fault)


def _iso_op(program, vocab, a, b):
    parse = program.structures.parse_structure
    ta, tb = a.text("a"), b.text("b")
    st = program.structures

    def call():
        sa, sb = parse(ta, vocab=vocab), parse(tb, vocab=vocab)
        return st.is_isomorphic(sa, sb), st.embed_search(sa, sb)

    def check(result):
        iso, mapping = result
        if iso != oracles.isomorphic(a.finite, b.finite):
            return f"is_isomorphic {iso}"
        if mapping is None:
            if oracles.embeds(a.finite, b.finite):
                return "embed_search missed an embedding"
        elif not oracles.is_embedding(a.finite, b.finite, mapping):
            return "embed_search returned a map that is not an embedding"
        return None

    return Op("iso+embed", call, check)


def _cli_ef_op(program, shared, rng, work, index, m, n, rounds):
    a, b = chain(rng, m), chain(rng, n)
    over = os.path.basename(shared["vocab_paths"]["chain"])
    paths = []
    for tag, g in (("a", a), ("b", b)):
        path = os.path.join(work, f"r{index}-{m}v{n}-{tag}.struct")
        with open(path, "w") as fh:
            fh.write(g.text(f"chain{m if tag == 'a' else n}", over))
        paths.append(path)
    want = ("equivalent" if oracles.chains_equivalent(m, n, rounds)
            else "distinguished")
    argv = ["ef", paths[0], paths[1], "--rounds", str(rounds)]

    def check(result):
        code, out, _ = result
        first = out.splitlines()[0] if out else ""
        if not first.endswith(f": {want}") or code != (want != "equivalent"):
            return f"exit {code}, {first!r}, theory says {want}"
        if want == "distinguished" and "separating sentence:" not in out:
            return "no separating sentence printed"
        return None

    return Op("cli ef", lambda: run_cli(program, argv), check)


def _sort_blind_answer(result):
    """The multi-sort fault's answer: `equivalent`, with no sentence."""
    return result == ("equivalent", None)


def _two_sorted_pair(index, sizes_a, sizes_b):
    def make(sizes, tag):
        return Gen("P", {s: [f"{s.lower()}{i}_{index}{tag}"
                             for i in range(k)]
                         for s, k in zip(("A", "B"), sizes)}, set())
    return make(sizes_a, "x"), make(sizes_b, "y")


def make_round(program, shared, rng, index, work):
    vocabs = shared["vocabs"]
    ops = []
    for n, rounds in DIGRAPH_SLOTS:
        a, b = random_digraph(rng, n), random_digraph(rng, n)
        ops.append(_ef_op(program, vocabs["digraph"], a, b, rounds,
                          f"digraph{n}"))
        ops.append(_ef_op(program, vocabs["digraph"], a, relabelled(rng, a),
                          rounds, f"digraph{n} copy", "equivalent"))
    # sides swap in every other round: the synthesis costs differ by side
    # (6 vs 7 takes twice as long as 7 vs 6), so a drawn swap would move
    # the mix from run to run
    swap = index % 2 == 1
    for m, n, rounds in CHAIN_SLOTS:
        if swap:
            m, n = n, m
        want = ("equivalent" if oracles.chains_equivalent(m, n, rounds)
                else "distinguished")
        ops.append(_ef_op(program, vocabs["chain"], chain(rng, m),
                          chain(rng, n), rounds, f"chain{m}v{n}", want))
    for m, n, rounds in SET_SLOTS:
        if swap:
            m, n = n, m
        want = ("equivalent" if oracles.sets_equivalent(m, n, rounds)
                else "distinguished")
        ops.append(_ef_op(program, vocabs["set"], pure_set(rng, m),
                          pure_set(rng, n), rounds, f"set{m}v{n}", want))
    for n in ISO_SIZES:
        b = random_digraph(rng, n)
        ops.append(_iso_op(program, vocabs["digraph"], relabelled(rng, b), b))
        ops.append(_iso_op(program, vocabs["digraph"],
                           random_digraph(rng, n), b))
    for m, n, rounds in CLI_CHAIN_SLOTS:
        if swap:
            m, n = n, m
        ops.append(_cli_ef_op(program, shared, rng, work, index, m, n,
                              rounds))
    # B-sort sizes 1 vs 2; A-sort 2 vs 1 against B-sort 1 vs 2.  The rank-2
    # sentence "exists x:B. exists y:B. x != y" separates both pairs.
    for sizes_a, sizes_b in (((1, 1), (1, 2)), ((2, 1), (1, 2))):
        a, b = _two_sorted_pair(index, sizes_a, sizes_b)
        ops.append(_ef_op(program, vocabs["two-sorted"], a, b, 2,
                          "two-sorted", "distinguished",
                          fault=_sort_blind_answer))
    return ops
