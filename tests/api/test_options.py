"""Options validation: every bad field raises an actionable ValueError."""

import pytest

from repro.api import Options
from repro.api.options import resolve_options


class TestDefaults:
    def test_defaults_are_valid(self):
        opts = Options()
        assert opts.solver is None
        assert opts.symmetry is None
        assert opts.max_instances is None
        assert opts.max_rounds == 12
        assert opts.max_states == 2000
        assert opts.timeout is None

    def test_replace_revalidates(self):
        with pytest.raises(ValueError, match="max_states"):
            Options().replace(max_states=0)

    def test_replace_returns_new_instance(self):
        base = Options()
        tuned = base.replace(symmetry=5)
        assert tuned.symmetry == 5
        assert base.symmetry is None


class TestValidationMessages:
    def test_bad_solver_type(self):
        with pytest.raises(ValueError, match=r"solver must be a non-empty "
                                             r"backend name string"):
            Options(solver=7)

    def test_empty_solver(self):
        with pytest.raises(ValueError, match="available_backends"):
            Options(solver="")

    def test_negative_symmetry(self):
        with pytest.raises(ValueError, match=r"symmetry must be a "
                                             r"non-negative integer"):
            Options(symmetry=-3)

    def test_symmetry_mentions_disable_hint(self):
        with pytest.raises(ValueError, match="0 disables symmetry breaking"):
            Options(symmetry=-1)

    def test_bool_symmetry_rejected(self):
        with pytest.raises(ValueError, match="symmetry"):
            Options(symmetry=True)

    def test_zero_max_instances(self):
        with pytest.raises(ValueError, match=r"max_instances must be a "
                                             r"positive integer or None"):
            Options(max_instances=0)

    def test_negative_max_rounds(self):
        with pytest.raises(ValueError, match=r"max_rounds must be a positive "
                                             r"integer bound on protocol"):
            Options(max_rounds=0)

    def test_negative_max_states(self):
        with pytest.raises(ValueError, match=r"max_states must be a positive "
                                             r"integer bound on the protocol"):
            Options(max_states=-5)

    def test_zero_timeout(self):
        with pytest.raises(ValueError, match=r"timeout must be a positive "
                                             r"number of seconds or None"):
            Options(timeout=0)


class TestResolveOptions:
    def test_overrides_merge(self):
        opts = resolve_options(Options(symmetry=3), {"max_rounds": 2})
        assert opts.symmetry == 3
        assert opts.max_rounds == 2

    def test_unknown_override_lists_valid_names(self):
        with pytest.raises(ValueError, match=r"unknown option.*symmetri.*"
                                             r"valid options are"):
            resolve_options(None, {"symmetrie": 2})

    def test_non_options_base_rejected(self):
        with pytest.raises(ValueError, match="Options instance or None"):
            resolve_options({"symmetry": 1}, {})


class TestCacheSignature:
    def test_timeout_is_the_only_field_excluded(self):
        assert (Options(timeout=None).cache_signature()
                == Options(timeout=30.0).cache_signature())
        assert sorted(Options().cache_signature()) == [
            "max_instances", "max_rounds", "max_states", "solver",
            "symmetry"]

    def test_semantic_fields_included(self):
        assert (Options(symmetry=0).cache_signature()
                != Options(symmetry=20).cache_signature())
        assert (Options(max_instances=5).cache_signature()
                != Options().cache_signature())
