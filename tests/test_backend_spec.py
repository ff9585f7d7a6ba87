"""Tests for the unified cache/backend spec API (``parse_backend_spec``).

The contract: every cache-configuration surface speaks one grammar,
``server:`` is a ``tcp`` spec with no address, and everything else —
``True``, bare kind names, the retired ``shm:`` spelling, malformed specs,
a ``tcp://`` URL naming more than one server or carrying a query (a client
of a network server owns no store), a ``maxsize`` or ``flush_every`` below
1 — fails up front with an error naming the offending spec string and the
grammar.
"""

import warnings

import pytest

from repro.perf import BackendSpec, ResynthesisCache, parse_backend_spec
from repro.perf.shared_cache import SPEC_QUERY_KEYS


class TestGrammar:
    def test_shm_is_rejected_and_server_is_a_tcp_spec(self):
        with pytest.raises(ValueError, match=r"unrecognized backend spec 'shm:'.*expected local:"):
            parse_backend_spec("shm:")
        spec = parse_backend_spec("server:?maxsize=8")
        assert spec.kind == "tcp" and spec.address is None
        assert spec.canonical == "server:?maxsize=8"

    def test_backend_spec_passes_through(self):
        spec = parse_backend_spec("server:")
        assert parse_backend_spec(spec) is spec

    def test_query_values_parse(self):
        spec = parse_backend_spec("local:?store=/tmp/c.pkl&flush_every=7&maxsize=99")
        assert spec.kind == "local"
        assert spec.store_path == "/tmp/c.pkl"
        assert spec.flush_interval == 7
        assert spec.maxsize == 99

    def test_tcp_url_with_servers_and_query(self):
        spec = parse_backend_spec("tcp://a:1")
        assert spec.kind == "tcp"
        assert spec.address == ("a", 1)
        assert spec.canonical == "tcp://a:1"
        # the client owns no store, so a query is rejected, not ignored
        with pytest.raises(ValueError, match=r"owns no store.*tcp://a:1\?maxsize=33"):
            parse_backend_spec("tcp://a:1?maxsize=33")

    def test_canonical_round_trips(self):
        for text in (
            "local:",
            "server:?maxsize=16",
            "server:?store=/tmp/x.pkl&flush_every=3",
            "tcp://h:9",
        ):
            spec = parse_backend_spec(text)
            assert parse_backend_spec(spec.canonical) == spec

    def test_source_is_kept_but_excluded_from_equality(self):
        bare, queried = parse_backend_spec("server:"), parse_backend_spec("server:?")
        assert bare == queried
        assert bare.source == "server:" and queried.source == "server:?"

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "bogus",
            "bogus:",
            "local:extra",  # junk between kind and query
            "local:?unknown_key=1",
            "shm:?maxsize=notanumber",
            "server:?maxsize=notanumber",
            "server:?stripes=2",  # stripes left the grammar with the shm backend
            "tcp://a:1,b:2",  # one server per tcp:// URL
            "server:?match_epsilon=1e-6",  # the content match is fixed
            "tcp://a:1?maxsize=33",  # a tcp:// client owns no store
            "tcp://a:1?match_epsilon=1e-6",
            "local:?maxsize=0",
            "server:?maxsize=0",
            "server:?flush_every=0&store=/tmp/x.bin",
            "local:?flush_every=-1",
        ],
    )
    def test_malformed_specs_raise_naming_the_spec(self, bad):
        with pytest.raises(ValueError, match="spec"):
            parse_backend_spec(bad)

    def test_true_is_not_local_and_is_rejected_naming_the_grammar(self):
        with pytest.raises(TypeError, match=r"got True; expected local:"):
            parse_backend_spec(True)

    def test_non_string_rejected_with_type_error(self):
        with pytest.raises(TypeError):
            parse_backend_spec(123)

    def test_query_keys_are_the_documented_set(self):
        assert set(SPEC_QUERY_KEYS) == {
            "store",
            "flush_every",
            "maxsize",
        }


class TestStorePathValidation:
    """Satellite bugfix: store on a storeless backend dies up front, by name."""

    def test_shm_store_spec_is_rejected(self):
        with pytest.raises(ValueError, match=r"unrecognized backend spec 'shm:\?store=/tmp/x'"):
            parse_backend_spec("shm:?store=/tmp/x")
        assert parse_backend_spec("server:?store=/tmp/x").store_path == "/tmp/x"

    def test_tcp_spec_with_store_points_at_the_server_flag(self):
        with pytest.raises(ValueError, match="store_path.*cache server"):
            parse_backend_spec("tcp://h:1?store=/tmp/x")

    def test_spec_validates_before_materializing(self, tmp_path):
        # A spec built by hand is checked at construction, so create() never
        # dials a server (port 1 would refuse) for an invalid one.
        with pytest.raises(ValueError, match="store_path"):
            BackendSpec(kind="tcp", address=("127.0.0.1", 1), store_path=str(tmp_path / "c"))
        with pytest.raises(ValueError, match="maxsize must be at least 1"):
            BackendSpec(kind="tcp", maxsize=0)


class TestDeprecationShims:
    """The deprecated spellings are gone: they fail naming the grammar."""

    @pytest.mark.parametrize("kind", ["local", "shm", "server"])
    def test_bare_kinds_are_rejected_naming_the_grammar(self, kind):
        with pytest.raises(ValueError, match=r"share_resynthesis_cache=.*expected local:"):
            parse_backend_spec(kind, parameter="share_resynthesis_cache")

    def test_true_is_rejected_naming_the_parameter(self):
        with pytest.raises(TypeError, match=r"resynthesis_cache=True.*expected local:"):
            parse_backend_spec(True, parameter="resynthesis_cache")

    def test_url_forms_never_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_backend_spec("server:", parameter="share_resynthesis_cache")
            parse_backend_spec("tcp://h:1", parameter="share_resynthesis_cache")


class TestSpecRouting:
    """Every surface resolves a given spelling to the same backend."""

    def test_spec_query_overrides_create_defaults(self):
        # The cache's maxsize fills only a spec that leaves it unset.
        assert ResynthesisCache(maxsize=512, backend="local:?maxsize=5").backend.maxsize == 5
        assert ResynthesisCache(maxsize=17, backend="local:").backend.maxsize == 17
        assert parse_backend_spec("local:").create().maxsize == 512

    def test_create_backend_accepts_spec_strings_and_objects(self):
        # The cache front end builds its backend from either spelling.
        for spelling in ("local:", parse_backend_spec("local:")):
            backend = ResynthesisCache(maxsize=17, shared=True, backend=spelling).backend
            assert backend.kind == "local"
            assert backend.maxsize == 17

    def test_resynthesis_cache_accepts_spec_objects(self):
        cache = ResynthesisCache(shared=True, backend=parse_backend_spec("local:"))
        assert cache.backend.kind == "local"

    def test_legacy_shm_spelling_is_rejected_naming_the_parameter(self):
        # shm: was the legacy spelling of the driver-owned server: spec.
        with pytest.raises(ValueError, match=r"x='shm:'.*expected local:"):
            parse_backend_spec("shm:", parameter="x")
        with pytest.raises(ValueError, match=r"'shm:\?maxsize=3'.*server:"):
            parse_backend_spec("shm:?maxsize=3")

    def test_multi_address_url_is_rejected_on_every_surface(self, capsys):
        from repro.core import rewrite_transformations
        from repro.distrib import cache_server, coordinator
        from repro.gatesets import CLIFFORD_T
        from repro.parallel import PortfolioOptimizer
        from repro.rewrite import rules_for_gate_set
        from repro.serve import JobServer

        bad = "tcp://a:1,b:2"
        optimizer = PortfolioOptimizer(
            rewrite_transformations(rules_for_gate_set(CLIFFORD_T)),
            share_resynthesis_cache=bad,
        )
        with pytest.raises(
            ValueError, match=r"share_resynthesis_cache='tcp://a:1,b:2'.*expected local:"
        ):
            optimizer._open_shared_cache()
        with pytest.raises(ValueError, match=r"'tcp://a:1,b:2'.*expected local:"):
            ResynthesisCache(shared=True, backend=bad)
        with pytest.raises(ValueError, match=r"'tcp://a:1,b:2'.*expected local:"):
            JobServer(cache=bad)
        for cli in (coordinator.main, cache_server.main):
            with pytest.raises(SystemExit):
                cli(["--port", "0", "--cache", bad])
            assert "'tcp://a:1,b:2'; expected local:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad", ["server:?maxsize=0", "server:?flush_every=0&store=/tmp/never.bin"]
    )
    def test_out_of_range_store_settings_raise_before_spawning(self, bad):
        # Range errors surface at parse time, naming the spec — no cache
        # server process is spawned only to die on its own store settings.
        import multiprocessing
        import re

        from repro.circuits import Circuit
        from repro.core import rewrite_transformations
        from repro.gatesets import CLIFFORD_T
        from repro.parallel import PortfolioOptimizer
        from repro.rewrite import rules_for_gate_set

        before = set(multiprocessing.active_children())
        optimizer = PortfolioOptimizer(
            rewrite_transformations(rules_for_gate_set(CLIFFORD_T)),
            share_resynthesis_cache=bad,
        )
        with pytest.raises(ValueError, match=rf"at least 1.*{re.escape(repr(bad))}"):
            optimizer.optimize(Circuit(2).cx(0, 1))
        assert set(multiprocessing.active_children()) == before

    def test_spec_is_picklable_for_job_records(self):
        import pickle

        spec = parse_backend_spec("server:?maxsize=4&store=/tmp/x.bin")
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_spec_equality_ignores_source_in_job_grouping(self):
        # Specs (and their canonical strings) compare equal across spellings.
        assert (
            parse_backend_spec("local:?maxsize=3").canonical
            == BackendSpec(kind="local", maxsize=3).canonical
        )
