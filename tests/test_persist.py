"""Crash-consistency tests for the persistent cache tier (``repro.perf.persist``).

The contract under test: a store file may be missing, zero-byte, truncated,
bit-rotted, or written by a foreign format version — and loading it must
never crash, must surface a note, and must recover exactly the intact prefix
(possibly nothing).  On top of that, a cache server killed outright must
come back warm from its corpus and serve hits bit-identical to what the
pre-crash store held.
"""

import os
import pickle
import signal
import struct
import zlib

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.circuits.metrics import circuit_distance
from repro.distrib import circuit_fingerprint, start_tcp_cache_server
from repro.perf import ResynthesisCache, TcpCacheBackend, create_backend
from repro.perf.persist import (
    CORPUS_VERSION,
    MAGIC,
    append_corpus,
    load_corpus,
    write_corpus,
)
from repro.perf.shared_cache import _BucketStore, _Entry
from repro.synthesis.resynth import ResynthesisOutcome

EPS = 1e-6


def cnot_conjugated_rz(angle: float = 0.5) -> Circuit:
    circuit = Circuit(2)
    circuit.cx(0, 1).rz(angle, 1).cx(0, 1)
    return circuit


def _entry(angle: float = 0.5) -> "tuple[bytes, _Entry]":
    key = f"persist-key-{angle}".encode()
    return key, _Entry(canonical=cnot_conjugated_rz(angle).unitary(), outcome=None)


def _buckets(*angles: float) -> dict:
    return {key: [entry] for key, entry in (_entry(angle) for angle in angles)}


class TestCorpusFormat:
    def test_snapshot_roundtrip(self, tmp_path):
        path = tmp_path / "corpus.bin"
        buckets = _buckets(0.1, 0.2, 0.3)
        assert write_corpus(path, buckets) == 3
        loaded, notes = load_corpus(path)
        assert notes == []
        assert list(loaded) == list(buckets)
        for key in buckets:
            assert np.array_equal(loaded[key][0].canonical, buckets[key][0].canonical)

    def test_snapshot_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "corpus.bin"
        write_corpus(path, _buckets(0.1))
        assert os.listdir(tmp_path) == ["corpus.bin"]

    def test_append_creates_and_extends(self, tmp_path):
        path = tmp_path / "corpus.bin"
        key_a, entry_a = _entry(0.1)
        key_b, entry_b = _entry(0.2)
        append_corpus(path, [(key_a, [entry_a])])
        append_corpus(path, [(key_b, [entry_b])])
        loaded, notes = load_corpus(path)
        assert notes == []
        assert set(loaded) == {key_a, key_b}

    def test_later_appends_supersede_earlier_records(self, tmp_path):
        path = tmp_path / "corpus.bin"
        key, stale = _entry(0.1)
        fresh = _Entry(canonical=stale.canonical, outcome=None)
        append_corpus(path, [(key, [stale])])
        append_corpus(path, [(key, [stale, fresh])])
        loaded, _ = load_corpus(path)
        assert len(loaded[key]) == 2, "the later (larger) record must win"

    def test_missing_file_is_a_silent_cold_start(self, tmp_path):
        loaded, notes = load_corpus(tmp_path / "never-written.bin")
        assert loaded == {} and notes == []

    def test_zero_byte_file_loads_empty_with_note(self, tmp_path):
        path = tmp_path / "corpus.bin"
        path.touch()
        loaded, notes = load_corpus(path)
        assert loaded == {}
        assert any("zero bytes" in note for note in notes)

    def test_foreign_magic_loads_empty_with_note(self, tmp_path):
        path = tmp_path / "corpus.bin"
        path.write_bytes(b"definitely not a corpus file" * 4)
        loaded, notes = load_corpus(path)
        assert loaded == {}
        assert any("bad magic" in note for note in notes)

    def test_foreign_version_loads_empty_with_note(self, tmp_path):
        path = tmp_path / "corpus.bin"
        path.write_bytes(MAGIC + struct.pack(">I", CORPUS_VERSION + 7) + b"\x00" * 32)
        loaded, notes = load_corpus(path)
        assert loaded == {}
        assert any(f"version {CORPUS_VERSION + 7}" in note for note in notes)

    def test_truncated_first_record_loads_empty_with_note(self, tmp_path):
        # The checklist case: a file torn inside its only record recovers
        # nothing — empty store, note, no exception.
        path = tmp_path / "corpus.bin"
        write_corpus(path, _buckets(0.1))
        intact = path.read_bytes()
        path.write_bytes(intact[: len(MAGIC) + 4 + 5])  # header + 5 record bytes
        loaded, notes = load_corpus(path)
        assert loaded == {}
        assert any("mid-record" in note for note in notes)

    def test_truncated_tail_recovers_intact_prefix(self, tmp_path):
        # A SIGKILL mid-append tears only the final record; everything before
        # it must survive — that is what makes the append path crash-safe.
        path = tmp_path / "corpus.bin"
        key_a, entry_a = _entry(0.1)
        key_b, entry_b = _entry(0.2)
        append_corpus(path, [(key_a, [entry_a])])
        size_after_first = path.stat().st_size
        append_corpus(path, [(key_b, [entry_b])])
        intact = path.read_bytes()
        path.write_bytes(intact[: size_after_first + 9])  # tear inside record 2
        loaded, notes = load_corpus(path)
        assert set(loaded) == {key_a}
        assert any("recovered 1 bucket(s)" in note for note in notes)

    def test_corrupt_record_drops_it_and_the_rest(self, tmp_path):
        path = tmp_path / "corpus.bin"
        key_a, entry_a = _entry(0.1)
        key_b, entry_b = _entry(0.2)
        append_corpus(path, [(key_a, [entry_a])])
        size_after_first = path.stat().st_size
        append_corpus(path, [(key_b, [entry_b])])
        blob = bytearray(path.read_bytes())
        blob[size_after_first + 12] ^= 0xFF  # flip a payload byte of record 2
        path.write_bytes(bytes(blob))
        loaded, notes = load_corpus(path)
        assert set(loaded) == {key_a}
        assert any("checksum" in note for note in notes)

    def test_crc_matching_garbage_payload_is_still_caught(self, tmp_path):
        # Corruption that happens to checksum fine (here: hand-written) must
        # be stopped by the unpickle guard, not crash the loader.
        path = tmp_path / "corpus.bin"
        payload = b"\x80\x04broken-pickle"
        record = struct.pack(">II", len(payload), zlib.crc32(payload)) + payload
        path.write_bytes(MAGIC + struct.pack(">I", CORPUS_VERSION) + record)
        loaded, notes = load_corpus(path)
        assert loaded == {}
        assert any("undecodable" in note for note in notes)

    def test_stale_snapshot_temp_file_is_ignored(self, tmp_path):
        # Simulates SIGKILL mid-snapshot: the half-written temp file from the
        # dying os.replace dance sits next to an intact corpus.  Loading uses
        # the corpus and never looks at the temp file.
        path = tmp_path / "corpus.bin"
        write_corpus(path, _buckets(0.1, 0.2))
        (tmp_path / "corpus.bin.tmp.12345").write_bytes(b"half-written snapsho")
        loaded, notes = load_corpus(path)
        assert len(loaded) == 2 and notes == []


class TestBucketStorePersistence:
    def test_reload_after_incremental_appends(self, tmp_path):
        path = tmp_path / "store.bin"
        store = _BucketStore(maxsize=64, store_path=path, flush_interval=1)
        store.put_many([_entry(0.1), _entry(0.2)])
        reloaded = _BucketStore(maxsize=64, store_path=path)
        assert len(reloaded) == 2
        assert reloaded.stats()["persist_loaded_entries"] == 2

    def test_snapshot_compacts_away_evicted_keys(self, tmp_path):
        path = tmp_path / "store.bin"
        store = _BucketStore(maxsize=2, store_path=path, flush_interval=1)
        store.put_many([_entry(angle / 10.0) for angle in range(6)])
        assert store.snapshot()
        reloaded = _BucketStore(maxsize=64, store_path=path)
        assert len(reloaded) == 2, "snapshot must hold only the resident buckets"

    def test_reload_respects_a_smaller_maxsize(self, tmp_path):
        path = tmp_path / "store.bin"
        store = _BucketStore(maxsize=64, store_path=path, flush_interval=1)
        store.put_many([_entry(angle / 10.0) for angle in range(8)])
        reloaded = _BucketStore(maxsize=3, store_path=path)
        assert len(reloaded) == 3

    def test_clear_persists_emptiness(self, tmp_path):
        path = tmp_path / "store.bin"
        store = _BucketStore(maxsize=64, store_path=path, flush_interval=1)
        store.put_many([_entry(0.1)])
        store.clear()
        assert len(_BucketStore(maxsize=64, store_path=path)) == 0

    def test_pickled_copy_sheds_the_disk_tier(self, tmp_path):
        # A store copy crossing a process boundary must not fight the
        # original over one corpus file.
        path = tmp_path / "store.bin"
        store = _BucketStore(maxsize=64, store_path=path, flush_interval=1)
        store.put_many([_entry(0.1)])
        copy = pickle.loads(pickle.dumps(store))
        assert copy._persister is None
        assert len(copy) == 1, "entries still travel with the copy"
        copy.put_many([_entry(0.9)])  # must not touch the file
        assert len(_BucketStore(maxsize=64, store_path=path)) == 1

    def test_snapshot_is_false_without_a_store_path(self):
        assert _BucketStore(maxsize=4).snapshot() is False

    def test_local_backend_close_persists_for_warm_reopen(self, tmp_path):
        path = tmp_path / "store.bin"
        block = cnot_conjugated_rz()
        replacement = Circuit(2).rzz(0.5, 0, 1)
        first = ResynthesisCache(
            shared=True,
            backend=create_backend("local:", maxsize=64, store_path=path),
        )
        first.put(block.unitary(), ResynthesisOutcome(replacement, 0.0, 0.0))
        first.close()
        second = ResynthesisCache(
            shared=True,
            backend=create_backend("local:", maxsize=64, store_path=path),
        )
        hit, outcome = second.get(block.unitary(), epsilon=EPS)
        assert hit, "a reopened local store must serve the previous run's entry"
        assert circuit_fingerprint(outcome.circuit) == circuit_fingerprint(replacement)
        assert second.stats().verify_failures == 0

    def test_store_path_rejected_for_storeless_backends(self):
        with pytest.raises(ValueError, match="--cache 'local:\\?store=PATH'"):
            create_backend("tcp://127.0.0.1:1", store_path="/tmp/nope.bin")


class TestServerPersistence:
    def test_server_backend_restarts_warm(self, tmp_path):
        path = tmp_path / "store.bin"
        key, entry = _entry(0.1)
        backend = create_backend(f"server:?store={path}&maxsize=64")
        try:
            backend.put_many([(key, entry)])
        finally:
            backend.close()  # clean shutdown snapshots
        restarted = create_backend(f"server:?store={path}&maxsize=64")
        try:
            found = restarted.get_many([key])
            assert key in found
            assert np.array_equal(found[key][0].canonical, entry.canonical)
            assert restarted.stats()["persist_loaded_entries"] == 1
        finally:
            restarted.close()

    def test_tcp_server_sigkill_then_restart_serves_bit_identical_hits(self, tmp_path):
        # The headline crash drill: kill -9 the server, restart it from the
        # corpus, and require verified warm hits identical to what the
        # pre-crash store held.
        path = tmp_path / "store.bin"
        block = cnot_conjugated_rz()
        replacement = Circuit(2).rzz(0.5, 0, 1)
        process, address = start_tcp_cache_server(
            maxsize=64, store_path=path, flush_interval=1
        )
        try:
            cache = ResynthesisCache(shared=True, backend=TcpCacheBackend(address))
            cache.put(block.unitary(), ResynthesisOutcome(replacement, 0.0, 0.0))
            cache.flush()
            cache.close()
        finally:
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=10.0)
        restarted, address = start_tcp_cache_server(maxsize=64, store_path=path)
        try:
            warm = ResynthesisCache(shared=True, backend=TcpCacheBackend(address))
            hit, outcome = warm.get(block.unitary(), epsilon=EPS)
            assert hit, "the restarted server must serve the pre-crash entry"
            assert circuit_fingerprint(outcome.circuit) == circuit_fingerprint(replacement)
            assert circuit_distance(block, outcome.circuit) < EPS
            stats = warm.stats()
            # A fresh front end never stored this key, so the warm hit is
            # attributed to the (restarted) remote store — the signal the
            # warm-restart CI bench gates on — and it re-verified cleanly.
            assert stats.remote_hits == 1
            assert stats.verify_failures == 0
            warm.close()
        finally:
            restarted.terminate()
            restarted.join(timeout=10.0)

    def test_tcp_server_sigterm_snapshots_unflushed_tail(self, tmp_path):
        # Nothing was appended incrementally (huge flush interval); the
        # SIGTERM handler's exit snapshot is the only way this entry can
        # survive — which is exactly what Process.terminate() sends.
        path = tmp_path / "store.bin"
        key, entry = _entry(0.3)
        process, address = start_tcp_cache_server(
            maxsize=64, store_path=path, flush_interval=10_000
        )
        backend = TcpCacheBackend(address)
        try:
            backend.put_many([(key, entry)])
            assert key in backend.get_many([key])
        finally:
            backend.close()
            process.terminate()
            process.join(timeout=10.0)
        loaded, notes = load_corpus(path)
        assert notes == []
        assert set(loaded) == {key}

    def test_corrupted_store_degrades_to_empty_without_crashing(self, tmp_path):
        # Acceptance criterion: garbage on disk must not take down the server
        # or its clients — it serves an empty store and says why.
        path = tmp_path / "store.bin"
        path.write_bytes(b"\x00garbage\xff" * 64)
        process, address = start_tcp_cache_server(maxsize=64, store_path=path)
        try:
            backend = TcpCacheBackend(address)
            assert backend.ping()
            assert backend.get_many([b"anything"]) == {}
            stats = backend.stats()
            assert stats["entries"] == 0
            assert any("bad magic" in note for note in stats["persist_notes"])
            # The note must reach PerfReport-land through the front end too.
            cache = ResynthesisCache(shared=True, backend=backend)
            cache.stats()
            assert any("bad magic" in note for note in cache.notes)
            cache.close()
        finally:
            process.terminate()
            process.join(timeout=10.0)
