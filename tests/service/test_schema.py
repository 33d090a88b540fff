"""Wire-schema validation and content addressing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloylite.module import Module, Scope
from repro.api import (
    ModuleProblem,
    Options,
    problem_fingerprint,
    problem_from_spec,
    problem_kind,
)
from repro.api.batch import batch_cache_key
from repro.api.codec import problem_to_json, tree_fingerprint
from repro.campaign.specs import FAMILIES, ScenarioSpec
from repro.fuzz.codec import replace_at
from repro.fuzz.generators import FuzzSpec, generate
from repro.kodkod import ast, relation
from repro.service.schema import (
    SERVICE_SCHEMA,
    SchemaError,
    decode_options,
    decode_submission,
    job_id_for,
)

from tests.api.test_batch import table_pair
from tests.api.test_delta import free_problem
from tests.service.test_service import NINE_FIELD_DEFAULTS, SIX_FIELD_DEFAULTS


def tree(kind="formula", seed=0):
    return problem_to_json(generate(FuzzSpec.make(kind, seed)))


class TestValidation:
    def test_non_dict_is_rejected(self):
        with pytest.raises(SchemaError, match="JSON object"):
            decode_submission([1, 2])

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(SchemaError, match="probem"):
            decode_submission({"probem": tree()})

    def test_foreign_schema_version_is_rejected(self):
        with pytest.raises(SchemaError, match="schema version 99"):
            decode_submission({"schema": 99, "problem": tree()})

    def test_exactly_one_problem_source(self):
        with pytest.raises(SchemaError, match="exactly one"):
            decode_submission({})
        with pytest.raises(SchemaError, match="exactly one"):
            decode_submission({
                "problem": tree(),
                "spec": {"family": "mca", "seed": 0, "params": {}},
            })

    def test_option_typos_are_caught_at_the_edge(self):
        with pytest.raises(SchemaError, match="sovler"):
            decode_submission({"problem": tree(),
                               "options": {"sovler": "kodkod"}})

    def test_malformed_problem_tree_is_rejected(self):
        with pytest.raises(SchemaError, match="invalid problem payload"):
            decode_submission({"problem": {"kind": "formula"}})

    def test_malformed_spec_is_rejected(self):
        with pytest.raises(SchemaError, match="invalid spec"):
            decode_submission({"spec": {"family": "no-such-family",
                                        "seed": 0, "params": {}}})

    def test_delta_of_must_be_a_job_id_string(self):
        for bad in ("", 7, ["id"]):
            with pytest.raises(SchemaError, match="delta_of"):
                decode_submission({"problem": tree(), "delta_of": bad})

    def test_label_must_be_a_string(self):
        with pytest.raises(SchemaError, match="label"):
            decode_submission({"problem": tree(), "label": 3})

    @pytest.mark.parametrize("name", ["workers", "cache_dir", "memoize",
                                      "max_paths"])
    def test_removed_option_names_are_rejected(self, name):
        with pytest.raises(SchemaError, match=f"unknown option.*{name}"):
            decode_submission({"problem": tree(), "options": {name: 2}})

    def test_max_paths_is_refused_with_a_pointer_to_max_states(self):
        with pytest.raises(SchemaError,
                           match=r"unknown option.*max_paths.*max_states"):
            decode_submission({"problem": tree(),
                               "options": {"max_paths": 50}})

    def test_journaled_options_may_carry_the_retired_names(self):
        """A queued job's options are read back without the retired
        names; any other unknown name still fails."""
        assert decode_options(NINE_FIELD_DEFAULTS, journaled=True) == Options()
        assert decode_options(SIX_FIELD_DEFAULTS, journaled=True) == Options()
        with pytest.raises(SchemaError, match="unknown option.*max_paths"):
            decode_options(SIX_FIELD_DEFAULTS)
        with pytest.raises(SchemaError, match="unknown option.*workers"):
            decode_options(NINE_FIELD_DEFAULTS)
        with pytest.raises(SchemaError, match="unknown option.*bogus"):
            decode_options({"bogus": 1}, journaled=True)

    def test_a_goal_over_an_unbounded_relation_is_rejected(self):
        """No solve can answer ``some s`` when only ``r`` is bounded."""
        problem, _ = free_problem(lambda r: relation("s", 1).some())
        with pytest.raises(SchemaError, match="s/1"):
            decode_submission({"problem": problem_to_json(problem)})

    def test_relations_are_matched_by_name_and_arity(self):
        problem, _ = free_problem(lambda r: relation("r", 2).some())
        with pytest.raises(SchemaError, match="r/2"):
            decode_submission({"problem": problem_to_json(problem)})
        problem, _ = free_problem(lambda r: r.some())
        assert decode_submission(
            {"problem": problem_to_json(problem)}).kind == "formula"

    def test_a_module_fact_over_an_undeclared_relation_is_rejected(self):
        """Compilation bounds only the module's sigs and fields, so no
        solve can answer a fact over ``ghost``."""
        module = Module("haunted")
        module.sig("A")
        module.fact(relation("ghost", 1).some())
        with pytest.raises(SchemaError, match="ghost/1"):
            decode_submission(
                {"problem": problem_to_json(ModuleProblem(module))})

    def test_a_goal_over_an_unbound_variable_is_rejected(self):
        """``forall x: univ | some y``: translation has no value for y."""
        x, y = ast.Variable("x"), ast.Variable("y")
        problem, _ = free_problem(
            lambda r: ast.ForAll([(x, ast.Univ())], ast.Some(y)))
        with pytest.raises(SchemaError, match="'y'"):
            decode_submission({"problem": problem_to_json(problem)})

    def test_the_edge_never_compiles_a_module(self, monkeypatch):
        """Compiling builds scope**arity tuples for a scope the client
        picks (10**10 here), so a module's scope is compiled only when
        the problem is solved, never while its submission is decoded."""
        def compile_(self, scope):
            raise AssertionError("decoding compiled the module")

        monkeypatch.setattr(Module, "compile", compile_)
        module = Module("huge")
        sig = module.sig("A")
        sig.field("f", sig)
        submission = decode_submission({"problem": problem_to_json(
            ModuleProblem(module, scope=Scope(100_000)))})
        assert submission.problem_payload["scope"]["default"] == 100_000

    @pytest.mark.parametrize("options", [[], 0, "", False, [1], "x", 3])
    def test_options_must_be_an_object(self, options):
        """Only an object, null or a missing key decodes; a falsy
        non-object is not read as the defaults."""
        with pytest.raises(SchemaError, match="JSON object"):
            decode_submission({"problem": tree(), "options": options})

    def test_null_or_missing_options_are_the_defaults(self):
        for body in ({"problem": tree()},
                     {"problem": tree(), "options": None},
                     {"problem": tree(), "options": {}}):
            assert decode_submission(body).options == Options()


_WORDS = ("kind", "formula", "module", "protocol", "bounds", "universe",
          "relations", "name", "arity", "lower", "upper", "f", "e", "rel",
          "var", "some", "and", "forall", "decls", "body", "parts", "expr",
          "sigs", "fields", "facts", "goal", "scope", "per_sig", "agents",
          "edges", "items", "policies", "table", "target")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(_WORDS) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(_WORDS)
                                     | st.text(max_size=3),
                                     inner, max_size=4)),
    max_leaves=10)
"""Any JSON value (``json.loads`` also reads NaN and the infinities),
with the codec's own keys and tags over-represented."""
_VALID_TREES = [tree(kind, seed) for kind in ("formula", "module", "protocol")
                for seed in range(3)]


def _positions(node, path=()):
    """The path of every value inside a JSON tree (not the root)."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _positions(child, path + (key,))


def _decodes_or_refuses(problem) -> None:
    try:
        decode_submission({"problem": problem})
    except SchemaError:
        pass


class TestAnyTree:
    """The edge answers every problem value with a submission or a
    :class:`SchemaError` (HTTP 400), never another exception."""

    @settings(max_examples=150, deadline=None)
    @given(_JSON)
    def test_any_json_value(self, value):
        _decodes_or_refuses(value)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_VALID_TREES), st.data())
    def test_a_valid_tree_with_one_node_swapped(self, valid, data):
        path = data.draw(st.sampled_from(list(_positions(valid))))
        _decodes_or_refuses(replace_at(valid, path, data.draw(_JSON)))


class TestContentAddressing:
    def test_timeout_does_not_change_the_job_id(self):
        """A time budget changes how long, not what — same job."""
        base = decode_submission({"problem": tree()})
        tuned = decode_submission({"problem": tree(),
                                   "options": {"timeout": 30.0}})
        assert tuned.job_id == base.job_id
        assert tuned.cache_key == base.cache_key

    def test_keys_derive_from_the_codec_tree_digest(self):
        submission = decode_submission({"problem": tree("protocol", 3)})
        assert submission.fingerprint == tree_fingerprint(
            submission.problem_payload)
        assert submission.cache_key == batch_cache_key(
            submission.fingerprint, submission.options)
        assert submission.job_id == job_id_for(
            submission.fingerprint, submission.options)

    def test_protocols_differing_at_bundle_size_three_are_two_jobs(self):
        holds, refuted = table_pair()
        first, second = (decode_submission({"problem": problem_to_json(p)})
                         for p in (holds, refuted))
        assert first.job_id != second.job_id
        assert first.cache_key != second.cache_key

    def test_result_affecting_options_change_the_job_id(self):
        base = decode_submission({"problem": tree()})
        other = decode_submission({"problem": tree(),
                                   "options": {"symmetry": 0}})
        assert other.job_id != base.job_id

    def test_delta_of_changes_the_job_id(self):
        base = decode_submission({"problem": tree()})
        delta = decode_submission({"problem": tree(),
                                   "delta_of": "a" * 64})
        assert delta.job_id != base.job_id
        assert delta.cache_key == base.cache_key

    def test_journal_payload_round_trips_to_the_same_job(self):
        """decode(submission.payload()) is a fixpoint: canonical form."""
        first = decode_submission({"problem": tree("module", 2),
                                   "options": {"max_rounds": 9},
                                   "label": "x"})
        second = decode_submission(first.payload())
        assert second.job_id == first.job_id
        assert second.problem_payload == first.problem_payload
        assert second.options == first.options

    def test_job_id_is_deterministic(self):
        opts = Options(symmetry=0)
        assert job_id_for("f" * 64, opts) == job_id_for("f" * 64, opts)
        assert job_id_for("f" * 64, opts) != job_id_for("e" * 64, opts)


class TestSpecLifting:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_family_lifts_to_the_same_problem(self, family):
        spec = ScenarioSpec.make(family, 0)
        submission = decode_submission({"spec": spec.as_dict()})
        direct = problem_from_spec(spec)
        assert submission.kind == problem_kind(direct)
        assert submission.fingerprint == problem_fingerprint(direct)

    def test_spec_and_tree_spellings_address_the_same_job(self):
        spec = ScenarioSpec.make("relational", 0)
        via_spec = decode_submission({"spec": spec.as_dict()})
        via_tree = decode_submission(
            {"problem": problem_to_json(problem_from_spec(spec))})
        assert via_spec.job_id == via_tree.job_id


class TestOptionsWire:
    def test_to_json_round_trips_every_field(self):
        opts = Options(solver="kodkod", symmetry=3, max_instances=7,
                       max_rounds=5, max_states=99, timeout=2.5)
        assert Options.from_json(opts.to_json()) == opts

    def test_from_json_defaults_missing_fields(self):
        assert Options.from_json({}) == Options()
        assert Options.from_json({"max_states": 2}) == Options(max_states=2)

    def test_from_json_rejects_non_dicts(self):
        with pytest.raises(ValueError, match="JSON object"):
            Options.from_json("solver=kodkod")

    def test_submission_schema_constant_is_versioned(self):
        assert SERVICE_SCHEMA == 1
