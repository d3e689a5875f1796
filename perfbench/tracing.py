"""Spans around the calls into each layer of `omegalogic`.

The tracer replaces public functions by timing wrappers in the module
namespaces they are called from, and puts the originals back afterwards.
Functions that recurse through their own global name (`print_formula`)
are wrapped only where other modules import them, so a span covers one
outside call, not every recursive step.  The evaluator `_eval` is wrapped
where `types_atomicity` imports it, and `eval_sentence` everywhere, which
covers every entry into evaluation from outside `structures`.
"""

import json
import time
from array import array

# (group, defining module, attribute); a dotted attribute is a method.
LAYERS = [
    ("syntax.parse", "syntax", "parse_vocabulary"),
    ("syntax.parse", "syntax", "parse_formula"),
    ("syntax.parse", "syntax", "parse_term"),
    ("syntax.parse", "structures", "parse_structure"),
    ("syntax.parse", "morley", "parse_theory"),
    ("syntax.parse", "morley", "chang_bundle_load"),
    ("syntax.parse", "types_atomicity", "parse_witness_map"),
    ("syntax.parse", "omega_rules", "parse_derivation"),
    ("syntax.print", "syntax", "print_formula"),
    ("prop.universe", "propositional", "sentence_universe"),
    ("prop.clauses", "propositional", "admissibility_clauses"),
    ("prop.prover", "propositional", "Prover.proves"),
    ("prop.prover", "propositional", "Prover.proves_set"),
    ("prop.sat", "propositional", "dpll"),
    ("prop.forcing", "propositional", "determined_truth_table"),
    ("prop.forcing", "propositional", "admissible_valuations"),
    ("prop.forcing", "propositional", "derivable"),
    ("eval", "structures", "eval_sentence"),
    ("eval", "structures", "_eval"),
    ("enum", "structures", "TermGeneratedStructure.enumerate_elements"),
    ("enum", "syntax", "ConstantFamily.enumerate_terms"),
    ("iso", "structures", "is_isomorphic"),
    ("iso", "structures", "embed_search"),
    ("ef.signature", "types_atomicity", "ef_signature"),
    ("ef.distinguish", "types_atomicity", "ef_equivalent"),
    ("types.type", "types_atomicity", "complete_type"),
    ("types.type", "types_atomicity", "is_principal"),
    ("types.type", "types_atomicity", "is_atomic"),
    ("types.scott", "types_atomicity", "scott_sentence_finite"),
    ("gen.witness", "types_atomicity", "generativity"),
    ("gen.witness", "types_atomicity", "verify_witness"),
    ("omega.sound", "omega_rules", "instantiate_schema"),
    ("omega.sound", "omega_rules", "check_instance_sound"),
    ("omega.derivation", "omega_rules", "check_derivation"),
    ("omega.derivation", "omega_rules", "refute_extension"),
    ("omega.derivation", "omega_rules", "refutation_vocabulary"),
    ("omega.derivation", "omega_rules", "print_derivation"),
    ("omega.derivation", "omega_rules", "applicability_report"),
    ("morley.code", "morley", "morley_code"),
    ("morley.verify", "morley", "verify_omega_model"),
    ("cli.self", "cli", "main"),
]

# recursive through their own global name: wrap only in importing modules
IMPORTERS_ONLY = {"print_formula", "_eval"}

# result sizes recorded as counts
RESULT_COUNTS = {"admissibility_clauses": "prop.clauses",
                 "dpll": "prop.models"}

# per-layer metrics: (name, kind, group); times are self times in ms
METRICS = [
    ("syntax.parse_ms", "ms", "syntax.parse"),
    ("syntax.print_ms", "ms", "syntax.print"),
    ("prop.universe_ms", "ms", "prop.universe"),
    ("prop.clauses_ms", "ms", "prop.clauses"),
    ("prop.clauses", "count", "prop.clauses"),
    ("prop.prover_ms", "ms", "prop.prover"),
    ("prop.prover_calls", "calls", "prop.prover"),
    ("prop.sat_ms", "ms", "prop.sat"),
    ("prop.sat_calls", "calls", "prop.sat"),
    ("prop.models", "count", "prop.models"),
    ("prop.forcing_ms", "ms", "prop.forcing"),
    ("eval.finite_ms", "ms", "eval.finite"),
    ("eval.finite_calls", "calls", "eval.finite"),
    ("eval.presentation_ms", "ms", "eval.presentation"),
    ("eval.presentation_calls", "calls", "eval.presentation"),
    ("enum.terms_ms", "ms", "enum"),
    ("enum.calls", "calls", "enum"),
    ("iso.search_ms", "ms", "iso"),
    ("iso.calls", "calls", "iso"),
    ("ef.signature_ms", "ms", "ef.signature"),
    ("ef.signature_calls", "calls", "ef.signature"),
    ("ef.distinguish_ms", "ms", "ef.distinguish"),
    ("types.type_ms", "ms", "types.type"),
    ("types.scott_ms", "ms", "types.scott"),
    ("gen.witness_ms", "ms", "gen.witness"),
    ("omega.sound_ms", "ms", "omega.sound"),
    ("omega.derivation_ms", "ms", "omega.derivation"),
    ("morley.code_ms", "ms", "morley.code"),
    ("morley.verify_ms", "ms", "morley.verify"),
    ("cli.self_ms", "ms", "cli.self"),
]

MAX_SPANS = 200_000


class Tracer:
    """Installs and removes the wrappers; keeps spans and per-group self
    time, call counts and result counts."""

    def __init__(self, modules):
        self.modules = modules  # short name -> module
        self.saved = []
        # spans as parallel arrays, which the garbage collector skips
        self.names = []
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.dropped = 0
        self.stack = []  # [span index, child ns] per open span
        self.self_ns = {}
        self.calls = {}
        self.counts = {}

    def _record(self, group, name, fn, pick_group=None):
        tracer = self
        clock = time.perf_counter_ns
        self.names.append(name)
        name_id = len(self.names) - 1
        count_key = RESULT_COUNTS.get(name)
        stack, self_ns, calls = self.stack, self.self_ns, self.calls
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            g = pick_group(args) if pick_group else group
            index = len(starts)
            if index < MAX_SPANS:
                tracer.span_name.append(name_id)
                tracer.span_parent.append(stack[-1][0] if stack else -1)
                starts.append(0)
                ends.append(0)
            else:
                index = -1
                tracer.dropped += 1
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self_ns[g] = self_ns.get(g, 0) + dur - frame[1]
                calls[g] = calls.get(g, 0) + 1
                if index >= 0:
                    starts[index] = start
                    ends[index] = end
            if count_key is not None:
                tracer.counts[count_key] = (tracer.counts.get(count_key, 0)
                                            + len(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self.saved:
            return
        for group, modname, attr in LAYERS:
            mod = self.modules[modname]
            pick = _eval_group if group == "eval" else None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._set(cls, meth, self._record(group, meth, fn, pick))
                continue
            fn = getattr(mod, attr)
            wrapper = self._record(group, attr, fn, pick)
            for other in self.modules.values():
                if other.__dict__.get(attr) is not fn:
                    continue
                if other is mod and attr in IMPORTERS_ONLY:
                    continue
                self._set(other, attr, wrapper)

    def _set(self, owner, attr, value):
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved = []

    def metrics(self, rounds, scale):
        """Per-layer metrics for one set-up plus one round, averaged over
        the `rounds` traced rounds, each with its set-up; times are
        multiplied by `scale`."""
        tables = {"ms": self.self_ns, "calls": self.calls,
                  "count": self.counts}
        out = {}
        for name, kind, group in METRICS:
            value = tables[kind].get(group, 0) / max(rounds, 1)
            if kind == "ms":
                out[name] = {"value": value * scale / 1e6, "unit": "ms"}
            else:
                out[name] = {"value": value, "unit": "count"}
        return out

    def write(self, path):
        """One JSON header line, then one span per line:
        [name, start_ns, end_ns, parent span index or -1]."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.span_start),
                                 "dropped": self.dropped,
                                 "fields": ["name", "start_ns", "end_ns",
                                            "parent"]}) + "\n")
            for i in range(len(self.span_start)):
                fh.write(json.dumps([self.names[self.span_name[i]],
                                     self.span_start[i], self.span_end[i],
                                     self.span_parent[i]]) + "\n")


def _eval_group(args):
    kind = getattr(args[0], "kind", None)
    return "eval.finite" if kind == "finite" else "eval.presentation"
