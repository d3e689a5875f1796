"""The oracles catch wrong verdicts.

    python3 -m pytest perfbench/test_oracles.py

For one round of every workload, each operation's real result must pass
its check, and a result with one planted wrong verdict must fail it.  A
few direct cases pin the theory the oracles encode.
"""

import os
import random
import sys
import tempfile
from fractions import Fraction
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import harness  # noqa: E402
import oracles  # noqa: E402
import wl_ef  # noqa: E402
import wl_finite  # noqa: E402
import wl_presentations  # noqa: E402
import wl_prop  # noqa: E402

PROGRAM = harness.load_program()

OTHER = {"forced-true": "unforced", "forced-false": "unforced",
         "unforced": "forced-true", "true": "unknown", "false": "true",
         "unknown": "false", "atomic-at-rank": "not-atomic-at-rank",
         "not-atomic-at-rank": "atomic-at-rank", "generative": "unknown",
         "pass": "violation", "violation": "pass"}


def one_round(workload, work):
    inputs = workload.make_inputs(random.Random("inputs"), work)
    rng = random.Random(7)
    shared = workload.setup(PROGRAM,
                            harness.round_inputs(workload, inputs, rng))
    return workload.make_round(PROGRAM, shared, rng, 0, work)


def plant(kind, result):
    """A wrong variant of a correct result, or None where this operation
    has no verdict an oracle settles exactly."""
    syn = PROGRAM.syntax
    if kind.startswith("cli "):
        code, out, err = result
        return (1 - code if code in (0, 1) else 0), out, err
    if kind.startswith("table "):
        row = next(iter(result))
        return {**result, row: OTHER[result[row]]}
    if kind.startswith("admissible "):
        # drop a classical valuation, which every rule set admits
        u, vals = result
        classical = oracles.classical_vectors(u.sentences, u.atoms)
        drop = next(i for i, v in enumerate(vals)
                    if tuple(v[s] for s in u.sentences) in classical)
        return u, vals[:drop] + vals[drop + 1:]
    if kind.startswith("derivable "):
        if kind == "derivable and":
            return SimpleNamespace(decided=not result.decided)
        return None
    if kind.startswith("ef "):
        verdict, sentence = result
        if sentence is not None:
            return verdict, syn.Not(sentence)
        v0 = syn.Var("v0", "S")
        return "distinguished", syn.Exists(v0, syn.Eq(v0, v0))
    if kind == "iso+embed":
        iso, mapping = result
        return not iso, mapping
    if kind.startswith("scott "):
        return [OTHER[result[0]]] + result[1:]
    if kind.startswith("type "):
        first = result[0]
        return [first + (syn.Not(first[0]),)] + result[1:]
    if kind.startswith("I_OMEGA"):
        return [not result[0]] + result[1:]
    if kind == "morley-code":
        return SimpleNamespace(axioms=result.axioms[:-1], vocab=result.vocab,
                               text=result.text)
    if kind.startswith("verify-omega"):
        return SimpleNamespace(status=OTHER[result.status], trace=())
    if isinstance(result, str):
        return OTHER[result]
    raise AssertionError(f"no plant for {kind}")


@pytest.mark.parametrize("workload", [wl_prop, wl_ef, wl_finite,
                                      wl_presentations],
                         ids=lambda w: w.NAME)
def test_planted_verdicts_are_caught(workload):
    with tempfile.TemporaryDirectory() as work:
        planted = set()
        for op in one_round(workload, work):
            result = op.call()
            if op.fault is not None:
                continue
            assert op.check(result) is None, (op.kind, op.check(result))
            wrong = plant(op.kind, result)
            if wrong is not None:
                assert op.check(wrong) is not None, f"{op.kind}: not caught"
                planted.add(op.kind.split()[0])
    assert planted, "no verdict was planted"


def test_only_the_named_fault_is_known():
    """The two-sorted pairs fail by the multi-sort fault only when the
    answer is `equivalent`; a wrong separating sentence or a raise is a
    wrong verdict."""
    with tempfile.TemporaryDirectory() as work:
        faulty = [op for op in one_round(wl_ef, work)
                  if op.fault is not None]
    assert len(faulty) == 2
    syn = PROGRAM.syntax
    v0 = syn.Var("v0", "A")
    for op in faulty:
        _, error, known = harness.attempt(op)
        assert error is not None and known, op.kind
        wrong = ("distinguished", syn.Exists(v0, syn.Eq(v0, v0)))
        error, known = op.judge(wrong)
        assert error is not None and not known

        def boom():
            raise RuntimeError("planted")
        raising = harness.Op(op.kind, boom, op.check, op.fault)
        _, error, known = harness.attempt(raising)
        assert "planted" in error and not known


def test_expected_tables():
    assert oracles.check_table(
        {(True, True): "forced-true", (True, False): "forced-true",
         (False, True): "forced-true", (False, False): "unforced"},
        "or", "|") is None
    # forced against the classical value
    assert oracles.check_table(
        {(True,): "forced-true", (False,): "unforced"}, "neg", "~")
    # & is fully forced by the conjunction rules
    assert oracles.check_table(
        {(True, True): "forced-true", (True, False): "forced-false",
         (False, True): "forced-false", (False, False): "unforced"},
        "and", "&")


def test_ef_theory():
    assert oracles.chains_equivalent(7, 8, 3)
    assert not oracles.chains_equivalent(6, 7, 3)
    assert oracles.chains_equivalent(3, 9, 2)
    assert oracles.sets_equivalent(3, 4, 3)
    assert not oracles.sets_equivalent(2, 9, 3)
    a = oracles.Finite({"S": ["a", "b", "c"]},
                       {"<": {("a", "b"), ("a", "c"), ("b", "c")}})
    b = oracles.Finite({"S": ["x", "y", "z", "w"]},
                       {"<": {("x", "y"), ("x", "z"), ("x", "w"),
                              ("y", "z"), ("y", "w"), ("z", "w")}})
    assert oracles.ef_duplicator_wins(a, b, 2)
    assert not oracles.ef_duplicator_wins(a, b, 3)
    assert oracles.embeds(a, b) and not oracles.embeds(b, a)
    assert not oracles.isomorphic(a, b)


def test_enumeration_schemes():
    assert oracles.integers(5) == [0, 1, -1, 2, -2]
    assert oracles.rationals(7) == [0, -1, 1, -2, 2, Fraction(-1, 2),
                                    Fraction(1, 2)]
    s = PROGRAM.structures.parse_structure(
        wl_presentations.PRESENTATIONS["Q"][2],
        vocab=PROGRAM.syntax.parse_vocabulary(
            wl_presentations.PRESENTATIONS["Q"][1]))
    got = [Fraction(*t.indices) for t in s.enumerate_elements(30)]
    assert got == oracles.rationals(30)


def test_fuel_semantics():
    # forall x exists y. y = S(x): no witness for the last element in range
    f = ("forall", "x", ("exists", "y",
                         ("eq", ("var", "y"), ("succ", ("var", "x")))))
    assert oracles.fuel_eval(f, oracles.naturals(8), False) is None
    assert oracles.fuel_eval(f, oracles.naturals(8), True) is False


def test_witness_arithmetic():
    assert oracles.witness_generative("integers", [(None, 2, 0)], 1,
                                      12) == "generative"
    assert oracles.witness_generative("integers", [(None, 2, 0)], 2,
                                      12) == "unknown"
    assert oracles.witness_generative("integers", [(None, -2, 0)], 1,
                                      12) == "unknown"
    shift = [(Fraction(0), 1, 0), (None, 1, 1)]
    assert oracles.witness_generative("rationals", shift, Fraction(1, 2),
                                      20) == "generative"
    assert oracles.witness_generative("rationals", shift, Fraction(1),
                                      20) == "unknown"
