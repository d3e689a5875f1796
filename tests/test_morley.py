import pytest

from omegalogic.morley import (
    BundleError, chang_bundle_load, morley_code, parse_theory,
    verify_omega_model,
)
from omegalogic.structures import EvalError, FiniteStructure
from omegalogic.syntax import print_formula


TOY = """
note toy predicate world
base-vocab {
  sort S
  rel P : S
}
type n=1 i=0 : P(v0)
"""

ZORD = """
note discrete order with zero
base-vocab {
  sort Z
  rel < : Z Z
  const 0 : Z
}
axiom forall x:Z. ~(x < x)
axiom forall x:Z. forall y:Z. forall z:Z. ((~(x < y) | ~(y < z)) | x < z)
type n=1 i=0 : v0 = 0
type n=1 i=1 : 0 < v0 & forall x:Z. (~(0 < x) | ~(x < v0))
"""


def test_bundle_loads():
    b = chang_bundle_load(ZORD)
    assert b.note == "discrete order with zero"
    assert len(b.axioms) == 2
    assert len(b.types[1]) == 2


def test_bundle_duplicate_generator():
    text = TOY + "type n=1 i=1 : P(v0)\n"
    with pytest.raises(BundleError, match="duplicate"):
        chang_bundle_load(text)


def test_bundle_duplicate_written_otherwise():
    # other spacing and extra parentheses parse to the same formula
    text = ZORD + "type n=1 i=2 : ((0<v0)) &  (forall x:Z. (~(0 < x) | " \
        "~(x < v0)))\n"
    with pytest.raises(BundleError, match="n=1 i=2: duplicate"):
        chang_bundle_load(text)


def test_bundle_arity_mismatch():
    text = TOY + "type n=2 i=0 : P(v0)\n"
    with pytest.raises(BundleError, match="free variables"):
        chang_bundle_load(text)


def test_bundle_index_order():
    text = TOY + "type n=1 i=5 : ~P(v0)\n"
    with pytest.raises(BundleError, match="out of order"):
        chang_bundle_load(text)


def test_emission_axiom_shapes():
    t = morley_code(chang_bundle_load(ZORD))
    assert "axiom forall v0:V. (R1(c_1_0, v0) <-> v0 = 0)" in t.text
    assert "axiom forall v0:V. exists v1:N. R1(v1, v0)" in t.text
    assert "axiom c_1_0 != c_1_1" in t.text
    assert "family c : N = { c_1_0 c_1_1 }" in t.text
    assert "schema G_OMEGA over c" in t.text


def test_emission_relativizes_base_axioms():
    t = morley_code(chang_bundle_load(ZORD))
    assert "axiom forall x:V. ~(x < x)" in t.text


def test_emission_deterministic():
    a = morley_code(chang_bundle_load(ZORD))
    b = morley_code(chang_bundle_load(ZORD))
    assert a.text == b.text


def test_empty_arity_vacuous():
    t = morley_code(chang_bundle_load(TOY))
    assert "R2" not in t.text


def test_theory_roundtrip():
    t = morley_code(chang_bundle_load(ZORD))
    again = parse_theory(t.text)
    assert again.schema == ("G_OMEGA", "c")
    assert len(again.axioms) == len(t.axioms)
    assert [print_formula(f) for _, f in again.axioms] == \
        [print_formula(f) for _, f in t.axioms]


def _toy_theory():
    return morley_code(chang_bundle_load(TOY))


def good_candidate(t):
    return FiniteStructure(
        t.vocab, {"N": ["n0"], "V": ["u"]},
        {"N": {("n0",)}, "V": {("u",)}, "P": {("u",)},
         "R1": {("n0", "u")}},
        constants={"c_1_0": "n0"}, name="toy-good")


def bad_candidate(t):
    # extra N-element e codes the uncoded tuple (z); R1(e, z) only
    return FiniteStructure(
        t.vocab, {"N": ["n0", "e"], "V": ["u", "z"]},
        {"N": {("n0",), ("e",)}, "V": {("u",), ("z",)}, "P": {("u",)},
         "R1": {("n0", "u"), ("e", "z")}},
        constants={"c_1_0": "n0"}, name="toy-bad")


def test_verify_accepts_atomic_candidate():
    t = _toy_theory()
    assert verify_omega_model(t, good_candidate(t))


def test_verify_rejects_uncoded_tuple():
    t = _toy_theory()
    v = verify_omega_model(t, bad_candidate(t))
    assert v.status == "violation"
    joined = "\n".join(v.trace)
    assert "uncoded tuple (z)" in joined
    assert "G_OMEGA concludes" in joined
    assert "totality" in joined
    assert "nonstandard: e" in joined


def test_verify_missing_flagged_constant():
    t = _toy_theory()
    c = FiniteStructure(
        t.vocab, {"N": ["n0"], "V": ["u"]},
        {"N": {("n0",)}, "V": {("u",)}, "P": {("u",)}, "R1": {("n0", "u")}},
        name="unflagged")
    with pytest.raises(EvalError, match="missing flagged constant c_1_0"):
        verify_omega_model(t, c)


def test_verify_axiom_failure_reported():
    t = _toy_theory()
    c = FiniteStructure(
        t.vocab, {"N": ["n0"], "V": ["u"]},
        {"N": {("n0",)}, "V": {("u",)}, "P": set(),
         "R1": {("n0", "u")}},  # R1(c,u) but not P(u): coding axiom fails
        constants={"c_1_0": "n0"}, name="miscoded")
    v = verify_omega_model(t, c)
    assert v.status == "violation"
    assert "axiom fails" in v.trace[0]


def test_verify_fuel_and_sorts():
    t = _toy_theory()
    with pytest.raises(EvalError):
        verify_omega_model(t, good_candidate(t), fuel=0)
    empty_v = FiniteStructure(
        t.vocab, {"N": ["n0"], "V": []},
        {"N": {("n0",)}, "V": set(), "P": set(), "R1": set()},
        constants={"c_1_0": "n0"}, name="no-V")
    with pytest.raises(EvalError, match="missing sort V"):
        verify_omega_model(t, empty_v)
