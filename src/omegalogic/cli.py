"""The `omega` command line: one subcommand per workbench capability.

Exit codes: 0 pass/valid, 1 property failure / violation, 2 usage or parse
errors.  `--machine` mirrors the text report as a JSON document.
"""

import argparse
import functools
import json
import os
import sys

from .syntax import (
    SyntaxError_, parse_axiom, parse_term, parse_vocabulary, print_formula,
    read_lines,
)
from .structures import (
    EvalError, check_common_vocabulary, parse_structure,
)
from . import propositional as prop
from . import omega_rules as omr
from .types_atomicity import (
    complete_type, ef_equivalent, generativity, is_atomic, parse_witness_map,
    scott_sentence_finite,
)
from . import morley


class UsageError(Exception):
    pass


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}")


def _load_struct(path, vocab=None):
    text = _read(path)
    base = os.path.dirname(os.path.abspath(path))
    return parse_structure(text, vocab=vocab, base_dir=base)


def _parse_axioms(text, vocab):
    def check(line):
        if not line[0].startswith(("axiom", "theory")):
            raise SyntaxError_(f"not an axiom: {line[0]!r}")

    lines = read_lines(text, "theory", check)
    return [parse_axiom(line, vocab) for line in lines
            if line[0].startswith("axiom")]


def _rules_arg(text):
    return tuple(r.strip() for r in text.split(",") if r.strip())


def _bound_arg(text):
    """A round or rank bound: an integer >= 0."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, not {text!r}")
    return n


def _tuple_arg(text):
    """The items of a comma-separated tuple, split only at the commas
    outside parentheses and brackets, so `D[1,2]` stays one item."""
    items, depth = [""], 0
    for ch in text:
        depth += (ch in "([") - (ch in ")]")
        if ch == "," and not depth:
            items.append("")
        else:
            items[-1] += ch
    return items


def _emit(args, report, lines):
    if args.machine:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_prop_admissible(args):
    rules = _rules_arg(args.rules)
    u = prop.sentence_universe(args.atoms.split(","), args.depth)
    vals = prop.admissible_valuations(u=u, rules=rules,
                                      derivability_depth=args.proof_depth)
    lines = [f"universe: {len(u.sentences)} sentences over atoms "
             f"{args.atoms} at depth {args.depth}",
             f"rules: {', '.join(rules)}",
             f"admissible valuations: {len(vals)} "
             f"(proof depth {args.proof_depth})"]
    names = [print_formula(s) for s in u.sentences]
    rows = []
    if len(u.sentences) <= 14:
        lines.append("  ".join(names))
        # each column is as wide as its sentence's name
        cells = {b: [("T" if b else "F").center(len(name)) for name in names]
                 for b in (True, False)}
        for v in vals:
            truth = [v[s] for s in u.sentences]
            rows.append("".join("T" if b else "F" for b in truth))
            lines.append("  ".join(cells[b][i] for i, b in enumerate(truth)))
    report = {"command": "prop-admissible", "atoms": args.atoms.split(","),
              "depth": args.depth, "rules": list(rules),
              "bounds": {"proof_depth": args.proof_depth},
              "universe_size": len(u.sentences),
              "sentences": names,
              "admissible_count": len(vals), "valuations": rows}
    _emit(args, report, lines)
    return 0


def cmd_prop_table(args):
    rules = _rules_arg(args.rules)
    u = prop.sentence_universe(args.atoms.split(","), args.depth)
    table = prop.determined_truth_table(args.connective, rules, u,
                                        depth=args.proof_depth)
    lines = [f"connective {args.connective!r} under rules "
             f"{', '.join(rules)} (proof depth {args.proof_depth}):"]
    rows = {}
    for row, verdict in table.items():
        key = ",".join("T" if b else "F" for b in row)
        rows[key] = verdict
        lines.append(f"  row ({key}): {verdict}")
    report = {"command": "prop-table", "connective": args.connective,
              "atoms": args.atoms.split(","), "depth": args.depth,
              "rules": list(rules),
              "bounds": {"proof_depth": args.proof_depth}, "rows": rows}
    _emit(args, report, lines)
    return 0


def cmd_refute(args):
    s = _load_struct(args.structure)
    theory = _parse_axioms(_read(args.theory), s.vocab) if args.theory else []
    root = omr.refute_extension(s, args.fresh)
    voc = omr.refutation_vocabulary(s, args.fresh)
    result = omr.check_derivation(root, theory, omr.REFUTATION_RULES, voc,
                                  assumed_families=(s.generated_by
                                                    if s.kind ==
                                                    "term-generated"
                                                    else "tau",))
    text = omr.print_derivation(root)
    lines = [f"refutation of extension by fresh element {args.fresh!r} "
             f"over {s.name}:", "", text.rstrip("\n"), "",
             f"check_derivation: {'valid' if result.valid else 'invalid'}"]
    report = {"command": "refute", "structure": s.name,
              "fresh": args.fresh, "derivation": text,
              "valid": result.valid, "reason": result.reason}
    _emit(args, report, lines)
    return 0 if result.valid else 1


def cmd_check_proof(args):
    vocab = parse_vocabulary(_read(args.vocab))
    theory = _parse_axioms(_read(args.theory), vocab) if args.theory else []
    root = omr.parse_derivation(_read(args.proof), vocab)
    rules = (_rules_arg(args.rules) if args.rules
             else omr.SCHEMA_NAMES + omr.EXTRA_DERIVATION_RULES)
    assumed = tuple(a for a in (args.assume_family or "").split(",") if a)
    result = omr.check_derivation(root, theory, rules, vocab,
                                  assumed_families=assumed)
    lines = [f"proof {args.proof}: "
             f"{'valid' if result.valid else 'invalid'}"]
    if not result.valid:
        lines.append(f"  reason: {result.reason}")
    report = {"command": "check-proof", "proof": args.proof,
              "valid": result.valid, "reason": result.reason}
    _emit(args, report, lines)
    return 0 if result.valid else 1


def cmd_applicability(args):
    vocab = parse_vocabulary(_read(args.vocab))
    theory = _parse_axioms(_read(args.theory), vocab) if args.theory else []
    rep = omr.applicability_report(theory, vocab, args.schema)
    lines = [f"schema {args.schema} over {args.vocab}:",
             f"  usable premise families: {rep['count']} "
             f"({', '.join(rep['usable_families']) or 'none'})"]
    for b in rep["blockers"]:
        lines.append(f"  blocker: {b}")
    report = {"command": "applicability", "schema": args.schema, **rep}
    _emit(args, report, lines)
    return 0


def cmd_type(args):
    s = _load_struct(args.structure)
    tup = []
    for name in _tuple_arg(args.tuple):
        name = name.strip()
        if s.kind == "finite":
            tup.append(name)
        else:
            tup.append(s.normalize(parse_term(name, s.vocab)))
    td = complete_type(s, tup, args.rank, fuel=args.fuel)
    lines = [f"rank-{args.rank} type of ({args.tuple}) in {s.name}: "
             f"{len(td.formulas)} formulas"]
    texts = [print_formula(f) for f in td.formulas]
    lines += [f"  {text}" for text in texts]
    report = {"command": "type", "structure": s.name, "tuple": args.tuple,
              "bounds": {"rank": args.rank, "fuel": args.fuel},
              "formulas": texts}
    _emit(args, report, lines)
    return 0


def cmd_atomic(args):
    s = _load_struct(args.structure)
    verdict = is_atomic(s, args.rank, fuel=args.fuel)
    lines = [f"{s.name}: {verdict.status} (rank {args.rank})"]
    if verdict.reason:
        lines.append(f"  reason: {verdict.reason}")
    for e in verdict.evidence:
        lines.append(f"  evidence: {e}")
    report = {"command": "atomic", "structure": s.name,
              "bounds": {"rank": args.rank, "fuel": args.fuel},
              "status": verdict.status, "reason": verdict.reason,
              "evidence": [str(e) for e in verdict.evidence]}
    _emit(args, report, lines)
    return 0 if verdict.status == "atomic-at-rank" else 1


def cmd_ef(args):
    a = _load_struct(args.a)
    b = _load_struct(args.b)
    try:
        check_common_vocabulary(a, b, "ef")
    except EvalError:
        raise UsageError(f"{args.a} and {args.b} are over different "
                         "vocabularies")
    verdict, f = ef_equivalent(a, b, args.rounds)
    text = print_formula(f) if f is not None else None
    lines = [f"{a.name} vs {b.name} at {args.rounds} rounds: {verdict}"]
    if text is not None:
        lines.append(f"  separating sentence: {text}")
    report = {"command": "ef", "a": a.name, "b": b.name,
              "bounds": {"rounds": args.rounds}, "verdict": verdict,
              "separating": text}
    _emit(args, report, lines)
    return 0 if verdict == "equivalent" else 1


def cmd_scott(args):
    s = _load_struct(args.structure)
    text = print_formula(scott_sentence_finite(s))
    report = {"command": "scott", "structure": s.name, "sentence": text}
    _emit(args, report, [text])
    return 0


def cmd_generative(args):
    s = _load_struct(args.structure)
    witness = None
    if args.witness:
        witness = parse_witness_map(_read(args.witness), s.vocab)
    v = generativity(s, bound=args.bound, witness=witness, fuel=args.fuel)
    lines = [f"{s.name}: {v.verdict}" +
             (f" ({v.reason})" if v.reason else "") +
             (f" [sample bound {v.bound}]" if v.bound else "")]
    report = {"command": "generative", "structure": s.name,
              "bounds": {"bound": args.bound, "fuel": args.fuel},
              "verdict": v.verdict, "reason": v.reason,
              "witness": args.witness}
    _emit(args, report, lines)
    if v.verdict == "unknown" and witness is not None:
        return 1
    return 0


def cmd_morley_code(args):
    bundle = morley.chang_bundle_load(_read(args.bundle))
    t = morley.morley_code(bundle)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(t.text)
        lines = [f"wrote {args.output} "
                 f"({len(t.axioms)} axioms, note: {t.note})"]
    else:
        lines = [t.text.rstrip("\n")]
    report = {"command": "morley-code", "bundle": args.bundle,
              "note": t.note, "axioms": len(t.axioms),
              "output": args.output, "text": t.text}
    _emit(args, report, lines)
    return 0


def cmd_verify_omega(args):
    t = morley.parse_theory(_read(args.theory))
    cand = _load_struct(args.candidate, vocab=t.vocab)
    v = morley.verify_omega_model(t, cand, fuel=args.fuel)
    lines = [f"{cand.name} against {t.note}: {v.status}"]
    lines += [f"  {ln}" for ln in v.trace]
    report = {"command": "verify-omega", "theory": args.theory,
              "candidate": cand.name, "bounds": {"fuel": args.fuel},
              "status": v.status, "trace": list(v.trace)}
    _emit(args, report, lines)
    return 0 if v.status == "pass" else 1


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def build_parser():
    """The `omega` argument parser, built on the first call and then kept:
    parsing leaves it as it was."""
    p = argparse.ArgumentParser(
        prog="omega",
        description="workbench for inferential logics: propositional "
                    "catalogues, omega-rules, types, Morley coding")
    p.add_argument("--machine", action="store_true",
                   help="emit a JSON report instead of text")
    sub = p.add_subparsers(dest="command")

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("prop-admissible", cmd_prop_admissible,
             help="enumerate admissible valuations on a sentence universe")
    sp.add_argument("--atoms", required=True)
    sp.add_argument("--depth", type=int, default=1)
    sp.add_argument("--rules", required=True)
    sp.add_argument("--proof-depth", type=int, default=6)

    sp = add("prop-table", cmd_prop_table,
             help="which truth-table rows the rules force")
    sp.add_argument("--connective", required=True, choices=["&", "|", "~"])
    sp.add_argument("--atoms", required=True)
    sp.add_argument("--depth", type=int, default=1)
    sp.add_argument("--rules", required=True)
    sp.add_argument("--proof-depth", type=int, default=6)

    sp = add("refute", cmd_refute,
             help="derive absurdity from a fresh extension element")
    sp.add_argument("--structure", required=True)
    sp.add_argument("--theory")
    sp.add_argument("--fresh", required=True)

    sp = add("check-proof", cmd_check_proof, help="check a derivation file")
    sp.add_argument("proof")
    sp.add_argument("--vocab", required=True)
    sp.add_argument("--theory")
    sp.add_argument("--rules")
    sp.add_argument("--assume-family")

    sp = add("applicability", cmd_applicability,
             help="which premise families can feed an omega-rule schema")
    sp.add_argument("--vocab", required=True)
    sp.add_argument("--theory")
    sp.add_argument("--schema", default="I_OMEGA")

    sp = add("type", cmd_type, help="rank-bounded complete type of a tuple")
    sp.add_argument("--structure", required=True)
    sp.add_argument("--tuple", required=True)
    sp.add_argument("--rank", type=_bound_arg, default=1)
    sp.add_argument("--fuel", type=int, default=8)

    sp = add("atomic", cmd_atomic, help="atomicity at a rank bound")
    sp.add_argument("--structure", required=True)
    sp.add_argument("--rank", type=_bound_arg, default=1)
    sp.add_argument("--fuel", type=int, default=8)

    sp = add("ef", cmd_ef, help="Ehrenfeucht-Fraisse equivalence")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--rounds", type=_bound_arg, default=3)

    sp = add("scott", cmd_scott, help="Scott sentence of a finite structure")
    sp.add_argument("structure")

    sp = add("generative", cmd_generative,
             help="generativity (self-embedding) verdict")
    sp.add_argument("structure")
    sp.add_argument("--witness")
    sp.add_argument("--bound", type=int, default=12)
    sp.add_argument("--fuel", type=int, default=4)

    sp = add("morley-code", cmd_morley_code,
             help="compile a Chang bundle into the coding theory")
    sp.add_argument("bundle")
    sp.add_argument("-o", "--output")

    sp = add("verify-omega", cmd_verify_omega,
             help="verify a candidate as a G-omega model")
    sp.add_argument("theory")
    sp.add_argument("candidate")
    sp.add_argument("--fuel", type=int, default=8)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 2
    if not getattr(args, "fn", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (UsageError, SyntaxError_) as e:
        print(f"omega: {e}", file=sys.stderr)
        return 2
    except (EvalError, omr.SchemaError, prop.GuardError, ValueError) as e:
        print(f"omega: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
