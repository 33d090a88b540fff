"""Translation pins: the exact CNF the translator emits for fixed inputs.

``test_cnf_encodings.py`` and the property tests compare translations
with each other or with the ground evaluator; these pin them against
fixed values.  Each case translates one problem four ways (lex-leader
symmetry breaking at ``DEFAULT_SBP_LENGTH`` and off, Plaisted-Greenbaum
and Tseitin) and hashes, per translation, the CNF variable count, the
clause list, the primary-tuple inputs and the input-to-variable map.
Gate numbering, clause order and variable allocation all feed the
digest, so a change that moves the circuit or its CNF changes it.  A
change that only skips redundant work (a translation cache, a cheaper
symmetry detector) must keep every value.  Re-record only for a
deliberate change to the emitted circuit.
"""

import functools
import gc
import hashlib
import weakref
from unittest import mock

import pytest

from repro.campaign.specs import ScenarioSpec, materialize
from repro.fuzz.generators import FuzzSpec, generate
from repro.kodkod import ast
from repro.kodkod.bounds import Bounds
from repro.kodkod.matrix import BoolMatrix
from repro.kodkod.symmetry import DEFAULT_SBP_LENGTH
from repro.kodkod.translate import Translator
from repro.kodkod.universe import Universe
from repro.model import (
    PolicyCombination,
    build_naive_static,
    build_optim_static,
    model_for,
)

CONFIGS = [(symmetry, encoding)
           for symmetry in (DEFAULT_SBP_LENGTH, 0)
           for encoding in ("pg", "tseitin")]

COMBOS = {  # (submodular, release_outbid, rebid_attacker)
    "sub-keep": (True, False, False),
    "sub-release": (True, True, False),
    "nonsub-keep": (False, False, False),
    "nonsub-release": (False, True, False),
    "sub-keep-attacker": (True, False, True),
}
SCOPES = {  # agents -> edges
    2: [(0, 1)],
    3: [(0, 1), (1, 2)],
}
STATIC_ASSERTIONS = ("unique_id_assertion", "capacity_assertion",
                     "conflict_free_init_assertion")


def _dynamic(agents: int, combo: str):
    model = model_for(PolicyCombination(*COMBOS[combo]), num_pnodes=agents,
                      num_vnodes=1, max_value=2, edges=SCOPES[agents])
    goal = ast.And([model.facts, ast.Not(model.consensus_assertion)])
    return goal, model.bounds


@functools.lru_cache(maxsize=None)
def _static_model(encoding: str):
    model = (build_naive_static(max_int=7) if encoding == "naive"
             else build_optim_static(max_value=3))
    _, bounds, facts = model.compile(3, 2)
    return model, bounds, facts


def _static(encoding: str, assertion: str):
    model, bounds, facts = _static_model(encoding)
    return ast.And([facts, ast.Not(getattr(model, assertion)())]), bounds


def _relational(seed: int):
    scenario = materialize(ScenarioSpec.make("relational", seed))
    return scenario.formula, scenario.bounds


def _fuzz_formula(seed: int):
    problem = generate(FuzzSpec.make("formula", seed, size=3))
    return problem.formula, problem.bounds


CASES = {
    **{f"dynamic-{agents}-{combo}": functools.partial(_dynamic, agents, combo)
       for agents in SCOPES for combo in COMBOS},
    **{f"static-{encoding}-{assertion}":
       functools.partial(_static, encoding, assertion)
       for encoding in ("naive", "optim") for assertion in STATIC_ASSERTIONS},
    **{f"relational-{seed}": functools.partial(_relational, seed)
       for seed in range(20)},
    # Nested quantifiers, comprehensions and conditionals: the shapes a
    # subterm cache must key correctly.
    **{f"fuzz-formula-{seed}": functools.partial(_fuzz_formula, seed)
       for seed in range(10)},
}


def _digest(translation) -> str:
    payload = (
        translation.cnf.num_vars,
        list(translation.cnf.clauses()),
        sorted((rel.name, index, node)
               for (rel, index), node in translation.tuple_inputs.items()),
        sorted(translation.input_vars.items()),
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def pin(case: str) -> list[tuple[str, int]]:
    """(digest, num_gates) of the case under every configuration."""
    formula, bounds = CASES[case]()
    values = []
    for symmetry, encoding in CONFIGS:
        translation = Translator(bounds, symmetry=symmetry,
                                 cnf_encoding=encoding).translate(formula)
        values.append((_digest(translation), translation.stats.num_gates))
    return values


EXPECTED: dict[str, list[tuple[str, int]]] = {
    "dynamic-2-nonsub-keep": [
        ("dd34ab90656c1f23", 319), ("67e52e1bc5850af0", 319),
        ("dd34ab90656c1f23", 319), ("67e52e1bc5850af0", 319)],
    "dynamic-2-nonsub-release": [
        ("54889c1e3b2eeead", 357), ("7f034d15d8a5cb1d", 357),
        ("54889c1e3b2eeead", 357), ("7f034d15d8a5cb1d", 357)],
    "dynamic-2-sub-keep": [
        ("dd34ab90656c1f23", 319), ("67e52e1bc5850af0", 319),
        ("dd34ab90656c1f23", 319), ("67e52e1bc5850af0", 319)],
    "dynamic-2-sub-keep-attacker": [
        ("6c7a7ea0ab086f0f", 321), ("bcf3782954da406b", 321),
        ("6c7a7ea0ab086f0f", 321), ("bcf3782954da406b", 321)],
    "dynamic-2-sub-release": [
        ("dd34ab90656c1f23", 319), ("67e52e1bc5850af0", 319),
        ("dd34ab90656c1f23", 319), ("67e52e1bc5850af0", 319)],
    "dynamic-3-nonsub-keep": [
        ("1204e4e1a58c01f5", 1207), ("8f95fb5311009b9a", 1207),
        ("1204e4e1a58c01f5", 1207), ("8f95fb5311009b9a", 1207)],
    "dynamic-3-nonsub-release": [
        ("b7e7ec42486c2448", 1331), ("1e8da329ea037b00", 1331),
        ("b7e7ec42486c2448", 1331), ("1e8da329ea037b00", 1331)],
    "dynamic-3-sub-keep": [
        ("1204e4e1a58c01f5", 1207), ("8f95fb5311009b9a", 1207),
        ("1204e4e1a58c01f5", 1207), ("8f95fb5311009b9a", 1207)],
    "dynamic-3-sub-keep-attacker": [
        ("19ffbd50e9d2e950", 1211), ("1d59fd2d6739eb67", 1211),
        ("19ffbd50e9d2e950", 1211), ("1d59fd2d6739eb67", 1211)],
    "dynamic-3-sub-release": [
        ("1204e4e1a58c01f5", 1207), ("8f95fb5311009b9a", 1207),
        ("1204e4e1a58c01f5", 1207), ("8f95fb5311009b9a", 1207)],
    "fuzz-formula-0": [
        ("6b3e6912be2a8c56", 4), ("918f5fd2e7bb95c7", 4),
        ("6b3e6912be2a8c56", 4), ("918f5fd2e7bb95c7", 4)],
    "fuzz-formula-1": [
        ("687e5b00542859fc", 6), ("a2ffc864ff483ab8", 6),
        ("687e5b00542859fc", 6), ("a2ffc864ff483ab8", 6)],
    "fuzz-formula-2": [
        ("59da9e02d28fdb77", 14), ("3c2759ce43603ec4", 14),
        ("59da9e02d28fdb77", 14), ("3c2759ce43603ec4", 14)],
    "fuzz-formula-3": [
        ("b95ac09343fd61af", 13), ("018700f2dd622bad", 13),
        ("622c0852e0798e06", 1), ("4b5f78db7e5dec81", 1)],
    "fuzz-formula-4": [
        ("c9c9e3d24c800d77", 16), ("c4087f1f640203f3", 16),
        ("c9c9e3d24c800d77", 16), ("c4087f1f640203f3", 16)],
    "fuzz-formula-5": [
        ("412d59486bc92bb4", 11), ("9871b3f1b3100702", 11),
        ("412d59486bc92bb4", 11), ("9871b3f1b3100702", 11)],
    "fuzz-formula-6": [
        ("c81481352854501e", 17), ("c81481352854501e", 17),
        ("c81481352854501e", 0), ("c81481352854501e", 0)],
    "fuzz-formula-7": [
        ("9441d1a2fd67778e", 7), ("9441d1a2fd67778e", 7),
        ("9441d1a2fd67778e", 7), ("9441d1a2fd67778e", 7)],
    "fuzz-formula-8": [
        ("57078b63aed87c2e", 0), ("57078b63aed87c2e", 0),
        ("57078b63aed87c2e", 0), ("57078b63aed87c2e", 0)],
    "fuzz-formula-9": [
        ("5eee766f8d10581d", 47), ("5e02397b36a0d963", 47),
        ("fdc5327352edaaad", 29), ("07df3f7ec28c0a06", 29)],
    "relational-0": [
        ("aed54126c2b64e9d", 5), ("d14bb3974485ed45", 5),
        ("aed54126c2b64e9d", 5), ("d14bb3974485ed45", 5)],
    "relational-1": [
        ("60e7203a3600ceec", 4), ("0e0e38175da5e089", 4),
        ("60e7203a3600ceec", 4), ("0e0e38175da5e089", 4)],
    "relational-10": [
        ("27ae8ac9d0cb3c8a", 1), ("a0bbf800e362420a", 1),
        ("27ae8ac9d0cb3c8a", 1), ("a0bbf800e362420a", 1)],
    "relational-11": [
        ("10cfc6a01b9183fc", 1), ("4e0dcb1f1ab08c13", 1),
        ("10cfc6a01b9183fc", 1), ("4e0dcb1f1ab08c13", 1)],
    "relational-12": [
        ("226ef4daf117b535", 4), ("c755720971190fa3", 4),
        ("226ef4daf117b535", 4), ("c755720971190fa3", 4)],
    "relational-13": [
        ("237c236a22be5c0f", 1), ("3b04b752fa477d1e", 1),
        ("237c236a22be5c0f", 1), ("3b04b752fa477d1e", 1)],
    "relational-14": [
        ("a2f5b5f170140568", 24), ("f0815f809fa191ea", 24),
        ("5e1a3f72ba76c42e", 1), ("5bf6c449a938d7d4", 1)],
    "relational-15": [
        ("f794745b6a025891", 13), ("234af1e7085f802f", 13),
        ("60d18182c5e7a526", 1), ("baf8c1cdaca132b8", 1)],
    "relational-16": [
        ("c93aaf7e35dfcaff", 7), ("44c271f683d9cb1f", 7),
        ("c93aaf7e35dfcaff", 7), ("44c271f683d9cb1f", 7)],
    "relational-17": [
        ("ba316667d0b167fc", 8), ("22c1162a08886ae0", 8),
        ("94ae9acb64638b3d", 7), ("f83dac04b5b15c3f", 7)],
    "relational-18": [
        ("9eddcc61def5ee8d", 0), ("9eddcc61def5ee8d", 0),
        ("9eddcc61def5ee8d", 0), ("9eddcc61def5ee8d", 0)],
    "relational-19": [
        ("1b200a4a73bb9eef", 27), ("c3c6b675615da40a", 27),
        ("a379f975c3d4ed28", 4), ("558bc8a652731c48", 4)],
    "relational-2": [
        ("cad2f8065e79d997", 24), ("b4b4dea27b4f9d40", 24),
        ("b9a23e278d531362", 1), ("db01dbde66cab8ff", 1)],
    "relational-3": [
        ("73675d76279abaca", 11), ("73675d76279abaca", 11),
        ("73675d76279abaca", 0), ("73675d76279abaca", 0)],
    "relational-4": [
        ("838e7c333ac6b09c", 11), ("968aa2c500b150d3", 11),
        ("eef41cf299453929", 0), ("eef41cf299453929", 0)],
    "relational-5": [
        ("65c5c01142a6ca63", 1), ("8d495edf26635951", 1),
        ("65c5c01142a6ca63", 1), ("8d495edf26635951", 1)],
    "relational-6": [
        ("82c5bb074d875a13", 25), ("3f7c1e06cfb3b4af", 25),
        ("c44727d26d490347", 1), ("16d84a5d749d01b7", 1)],
    "relational-7": [
        ("ad43fbadda3f8119", 19), ("7fcdbe90ea31032c", 19),
        ("c9ce6b34ac7959b5", 1), ("6ca43d81f46a8fea", 1)],
    "relational-8": [
        ("fe1dcae61fb4237d", 8), ("e0bfcce7562f1756", 8),
        ("fe1dcae61fb4237d", 8), ("e0bfcce7562f1756", 8)],
    "relational-9": [
        ("a1847aa2b49f4553", 4), ("e9573b97edd629cd", 4),
        ("a1847aa2b49f4553", 4), ("e9573b97edd629cd", 4)],
    "static-naive-capacity_assertion": [
        ("1b39a2feca591e58", 1730), ("5e3ad75b47d75bf7", 1730),
        ("9426bc2b5558d363", 1563), ("311fd96b03f4155e", 1563)],
    "static-naive-conflict_free_init_assertion": [
        ("8289f720bb6ea3a4", 1334), ("976fee109c78b966", 1334),
        ("db7d4ea557d16c02", 1167), ("f43263350f938f3b", 1167)],
    "static-naive-unique_id_assertion": [
        ("5fa21b6bd01be7f7", 1328), ("df19ce28b3c8d23f", 1328),
        ("fb4867370dc53f88", 1161), ("565f32dc2ae1e79d", 1161)],
    "static-optim-capacity_assertion": [
        ("fd70b8865a5fc101", 994), ("ffbc0d2ee186d76c", 994),
        ("1a46425e40eba137", 545), ("3734cd09078ba308", 545)],
    "static-optim-conflict_free_init_assertion": [
        ("88dcc8f889ed635b", 1007), ("5ce467b41b237af1", 1007),
        ("8c42c6fb0fef4305", 558), ("576417bd6a7fe44e", 558)],
    "static-optim-unique_id_assertion": [
        ("db117c31512e9672", 995), ("f618ae7557cdd109", 995),
        ("a8222a787e710080", 546), ("278aa980317acb87", 546)],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_translation_pinned(case):
    assert pin(case) == EXPECTED[case]


def test_closed_subterm_is_translated_once_per_translation():
    """``^e`` uses neither quantified variable, so its translation is
    shared by all 16 (x, y) instantiations instead of rebuilt for each."""
    universe = Universe(["a", "b", "c", "d"])
    edge = ast.Relation("e", 2)
    bounds = Bounds(universe)
    bounds.bound(edge, universe.empty(2), universe.all_tuples(2))
    x, y = ast.Variable("x"), ast.Variable("y")
    formula = ast.ForAll([(x, ast.Univ())], ast.ForAll(
        [(y, ast.Univ())], ast.Subset(x, ast.Join(y, ast.Closure(edge)))))
    closures = []
    closure = BoolMatrix.closure

    def counting_closure(matrix):
        closures.append(matrix)
        return closure(matrix)

    with mock.patch.object(BoolMatrix, "closure", counting_closure):
        translation = Translator(bounds).translate(formula)
    assert len(closures) == 1
    assert translation.stats.num_gates == 189


def test_translator_is_freed_when_translate_returns():
    """No reference cycle keeps a translator (its matrices, factory and
    memo tables) alive after use: reference counting alone frees it."""
    universe = Universe(["a", "b"])
    r = ast.Relation("r", 1)
    bounds = Bounds(universe)
    bounds.bound(r, universe.empty(1), universe.all_tuples(1))
    x = ast.Variable("x")
    gc.collect()
    gc.disable()
    try:
        translator = Translator(bounds)
        translator.translate(ast.ForAll([(x, r)], ast.Some(x)))
        ref = weakref.ref(translator)
        del translator
        assert ref() is None
    finally:
        gc.enable()
