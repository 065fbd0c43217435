"""Registry-completeness properties: every registered scheme is usable
end-to-end — buildable, contracted, CLI-addressable, and ordered.

These are property tests over :func:`repro.core.registry.iter_schemes`
rather than hardcoded scheme lists, so a scheme added tomorrow is held to
the same bar automatically.  They deliberately avoid asserting the *total*
number of registered schemes: plugin schemes (e.g. the one
``examples/custom_scheme.py`` registers when the example suite runs
in-process) may be present.
"""

import pytest

from repro.api import SCHEMES, Scheme, build_system
from repro.cli import build_parser
from repro.core.recovery import CONTRACT_DOCS, claimed_persists
from repro.core.registry import (
    BBB,
    BBB_PROC,
    BEP,
    BSP,
    CONTRACT_EPOCH,
    CONTRACT_EXACT,
    CONTRACT_PREFIX,
    EADR,
    MODEL_STRICT,
    NONE,
    PERSISTENCY_MODELS,
    PMEM,
    POP_FLUSH,
    POP_STORE_COMMIT,
    SchemeInfo,
    baseline_scheme,
    canonical_name,
    iter_schemes,
    register_scheme,
    scheme_for_class,
    scheme_info,
    scheme_names,
    unregister_scheme,
)
from repro.analysis.bench import fingerprint_run
from repro.core.persistency import BBBScheme, NoPersistency
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.workloads.base import WorkloadSpec, registry


def all_infos():
    return list(iter_schemes())


def builtin_infos():
    return [info for info in all_infos() if info.builtin]


@pytest.fixture
def small_config():
    return SystemConfig().scaled_for_testing()


@pytest.mark.parametrize("info", all_infos(), ids=lambda i: i.name)
class TestEverySchemeIsComplete:
    def test_builds_under_canonical_name(self, info, small_config):
        system = build_system(info.name, entries=8, config=small_config)
        assert isinstance(system.scheme, info.cls)

    def test_builds_under_every_alias(self, info, small_config):
        for alias in info.aliases:
            system = build_system(alias, entries=8, config=small_config)
            assert isinstance(system.scheme, info.cls)
            assert canonical_name(alias) == info.name

    def test_has_contract_and_doc(self, info):
        assert info.contract in CONTRACT_DOCS
        for alias in info.aliases:
            assert scheme_info(alias).contract == info.contract

    def test_pop_location_is_valid(self, info):
        assert info.pop in (POP_STORE_COMMIT, POP_FLUSH)
        assert info.pop_at_flush == (info.pop == POP_FLUSH)

    def test_scheme_object_self_identifies(self, info, small_config):
        # The instance's ``name`` must resolve in the registry to a scheme
        # built from the same class.  (It need not equal ``info.name``:
        # bbb-proc shares BBBScheme, whose instances say "bbb".)
        system = build_system(info.name, entries=8, config=small_config)
        resolved = scheme_info(system.scheme.name)
        assert isinstance(system.scheme, resolved.cls)

    def test_battery_backed_sb_matches_class(self, info, small_config):
        # The class attribute is the one declaration: every store buffer
        # of the built system follows it.
        system = build_system(info.name, entries=8, config=small_config)
        assert all(
            sb.battery_backed == info.cls.battery_backed_sb
            for sb in system.hierarchy.store_buffers
        )

    def test_unexpected_kwargs_rejected(self, info, small_config):
        with pytest.raises(TypeError, match="unexpected keyword"):
            build_system(info.name, config=small_config,
                         definitely_not_a_kwarg=1)

    def test_round_trips_through_cli_scheme_parser(self, info):
        parser = build_parser()
        for name in (info.name,) + info.aliases:
            args = parser.parse_args(["run", "--scheme", name])
            assert args.scheme == name


class TestClaimedPersistSemantics:
    class FakeResult:
        committed_persists = ["committed"]
        performed_persists = ["performed"]

    @pytest.mark.parametrize("info", all_infos(), ids=lambda i: i.name)
    def test_pop_capability_selects_the_claim(self, info):
        claim = claimed_persists(info.name, self.FakeResult())
        expected = ["performed"] if info.pop_at_flush else ["committed"]
        assert claim == expected


class TestCanonicalOrder:
    def test_schemes_tuple_is_builtins_in_registry_order(self):
        assert SCHEMES == tuple(info.name for info in builtin_infos())

    def test_enum_matches_schemes_tuple(self):
        assert tuple(m.value for m in Scheme) == SCHEMES

    def test_exactly_one_comparison_baseline_among_builtins(self):
        assert baseline_scheme().name == EADR

    def test_scheme_names_include_aliases(self):
        with_aliases = scheme_names(include_aliases=True)
        without = scheme_names()
        assert set(without) <= set(with_aliases)
        for info in all_infos():
            for alias in info.aliases:
                assert alias in with_aliases


class TestRegistration:
    def test_unknown_scheme_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            scheme_info("bogus")

    def test_duplicate_registration_rejected_without_replace(self):
        first = builtin_infos()[0]
        with pytest.raises(ValueError, match="already registered"):
            register_scheme(
                first.name, cls=NoPersistency, persistency_model=MODEL_STRICT
            )(lambda cls, entries: cls())

    def test_builtins_cannot_be_unregistered(self):
        with pytest.raises(ValueError, match="builtin"):
            unregister_scheme(builtin_infos()[0].name)

    def test_plugin_lifecycle(self, small_config):
        class TempScheme(NoPersistency):
            pass

        name = "temp-test-scheme"
        register_scheme(
            name, cls=TempScheme, persistency_model=MODEL_STRICT,
            exact_durability=True, replace=True,
            doc="throwaway scheme for the registration lifecycle test",
        )(lambda cls, entries: cls())
        try:
            info = scheme_info(name)
            assert isinstance(info, SchemeInfo)
            assert info.doc
            assert not info.builtin
            system = build_system(name, config=small_config)
            assert isinstance(system.scheme, TempScheme)
            assert system.scheme.name == name
            assert scheme_for_class(TempScheme).name == name
            assert info.contract == CONTRACT_EXACT
        finally:
            unregister_scheme(name)
        with pytest.raises(ValueError, match="unknown scheme"):
            scheme_info(name)

    def test_crash_drain_override_rejected(self):
        """What survives a crash is declared through battery_residue: a
        crash_drain override would make the single-pass crash sweep
        disagree with real crashes, so neither registration nor mutant
        construction accepts one."""

        class DrainingScheme(NoPersistency):
            def crash_drain(self, now):
                return super().crash_drain(now)

        with pytest.raises(TypeError, match="battery_residue"):
            register_scheme(
                "temp-crash-drain", cls=DrainingScheme,
                persistency_model=MODEL_STRICT,
            )(lambda cls, entries: cls())
        with pytest.raises(ValueError, match="unknown scheme"):
            scheme_info("temp-crash-drain")
        none = next(i for i in builtin_infos() if i.cls is NoPersistency)
        with pytest.raises(TypeError, match="battery_residue"):
            none.build_scheme(scheme_cls=DrainingScheme)

    def test_mutants_resolve_to_their_base_scheme(self):
        from repro.check.mutants import MUTANTS

        for mutant_name, (base, cls) in MUTANTS.items():
            assert scheme_info(base).name == base
            assert issubclass(cls, scheme_info(base).cls)


class TestPersistencyModelCapability:
    def test_every_builtin_declares_a_model(self):
        # The litmus battery only gates declared schemes; an undeclared
        # builtin would silently opt out of the conformance gate.
        for info in builtin_infos():
            assert info.persistency_model in PERSISTENCY_MODELS, info.name

    def test_declared_model_is_kept_on_the_info(self):
        name = "temp-declared-scheme"
        register_scheme(
            name, cls=NoPersistency, replace=True,
            persistency_model=PERSISTENCY_MODELS[0],
            doc="throwaway scheme for the persistency-model plumbing test",
        )(lambda cls, entries: cls())
        try:
            info = scheme_info(name)
            assert info.persistency_model == PERSISTENCY_MODELS[0]
        finally:
            unregister_scheme(name)

    def test_invalid_model_rejected_at_registration(self):
        with pytest.raises(ValueError, match="persistency model"):
            register_scheme(
                "temp-bad-model", cls=NoPersistency,
                persistency_model="vibes",
            )(lambda cls, entries: cls())


class TestDerivedContract:
    """A scheme declares ``persistency_model`` and ``exact_durability``
    once; the crash checker's contract derives from them."""

    @pytest.mark.parametrize("name, contract, exact", [
        (BBB, CONTRACT_EXACT, True),
        (BBB_PROC, CONTRACT_EXACT, True),
        (EADR, CONTRACT_EXACT, True),
        (PMEM, CONTRACT_EXACT, True),
        (BSP, CONTRACT_PREFIX, False),
        (NONE, CONTRACT_PREFIX, False),
        (BEP, CONTRACT_EPOCH, False),
    ])
    def test_builtin_contracts(self, name, contract, exact):
        info = scheme_info(name)
        assert info.contract == contract
        assert info.exact_durability is exact

    def test_persistency_model_is_required(self):
        with pytest.raises(TypeError, match="persistency_model"):
            register_scheme("temp-no-model", cls=NoPersistency)

    def test_empty_persistency_model_rejected(self):
        with pytest.raises(ValueError, match="persistency model"):
            register_scheme(
                "temp-empty-model", cls=NoPersistency, persistency_model="",
            )(lambda cls, entries: cls())
        with pytest.raises(ValueError, match="unknown scheme"):
            scheme_info("temp-empty-model")


def test_default_bbb_scheme_matches_the_registry_build(small_config):
    """``BBBScheme()`` and ``build_system("bbb")`` share one default
    ``BBBConfig``: the same run produces the same fingerprint.  The cell
    is sized so that 16 entries or a 0.5 drain threshold would change
    the fingerprint."""
    spec = WorkloadSpec(threads=2, ops=100, elements=128, seed=7)
    fingerprints = []
    for system in (System(small_config, BBBScheme()),
                   build_system(BBB, config=small_config)):
        workload = registry(small_config.mem, spec)["hashmap"]
        trace = workload.build()
        workload.seed_media(system.nvmm_media)
        fingerprints.append(fingerprint_run(system.run(trace)))
    assert fingerprints[0] == fingerprints[1]
