"""The content-addressed artifact store and the bugs it makes impossible.

Three layers of coverage:

* primitives - :func:`repro.store.atomic.atomic_write_bytes` survives a
  simulated kill mid-write (the old file stays readable, no temp litter),
  and :class:`~repro.store.artifacts.ArtifactStore` round-trips bytes
  exactly, isolates keys by input/config hash, detects corrupt blobs by
  sha256 and recovers by recomputing, and treats a torn put (blob landed,
  manifest entry did not) as a clean miss;

* consumers - ``datasets.load`` and ``MARIOH.fit`` warm-start
  byte-identically from the store; ``MARIOH.save``/``load`` are atomic
  and verified (truncation raises :class:`ModelLoadError`, never a bare
  ``json.JSONDecodeError``); the regression tests for the two seed bugs:
  the sharding model cache keyed on ``(path, mtime_ns, size)`` served
  stale weights after a same-size in-place rewrite, and the serve daemon
  silently swallowed teardown/checkpoint ``OSError``;

* end to end - a warm ``run_grid`` repeat measures ``store_hit_rate``
  >= 0.9 and stays byte-identical with the cold and storeless runs.
"""

from __future__ import annotations

import json
import logging
import os
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.marioh import MARIOH, ModelLoadError
from repro.datasets import registry
from repro.experiments.orchestrator import GridSpec, _load_bundle, run_grid
from repro.serve.daemon import ReconstructionServer, _Connection
from repro.serve.engine import StreamingReconstructor
from repro.sharding import execute as shard_execute
from repro.store import (
    ArtifactStore,
    atomic_write_bytes,
    bundle_to_bytes,
    config_hash,
    resolve_store,
    sha256_bytes,
    using_store,
)

from tests.conftest import structured_triangles_hypergraph


@pytest.fixture(scope="module")
def model_a() -> MARIOH:
    fitted = MARIOH(seed=0, phase2_scope="component", max_epochs=20)
    fitted.fit(structured_triangles_hypergraph(seed=0, n_groups=8), store=False)
    return fitted


@pytest.fixture(scope="module")
def model_b() -> MARIOH:
    """Same architecture as ``model_a`` but different trained weights."""
    fitted = MARIOH(seed=1, phase2_scope="component", max_epochs=20)
    fitted.fit(structured_triangles_hypergraph(seed=0, n_groups=8), store=False)
    return fitted


# ---------------------------------------------------------------------------
# Atomic write primitive
# ---------------------------------------------------------------------------
def test_atomic_write_roundtrips_and_returns_digest(tmp_path):
    path = tmp_path / "artifact.bin"
    digest = atomic_write_bytes(path, b"payload")
    assert path.read_bytes() == b"payload"
    assert digest == sha256_bytes(b"payload")
    assert not list(tmp_path.glob("*.tmp")), "temp file leaked"


def test_atomic_write_kill_mid_write_keeps_old_file(tmp_path, monkeypatch):
    """A crash at the rename boundary must leave the old bytes intact.

    The publish step is ``os.replace``; killing the process there (here:
    making the call raise) is the worst case - the new bytes are fully
    written to the temp file but never reach the final name.  The reader
    must still see the complete previous version, and no ``.tmp`` litter
    may remain.
    """
    path = tmp_path / "artifact.bin"
    atomic_write_bytes(path, b"version-1")

    def killed(src, dst):
        raise OSError("simulated kill during rename")

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(OSError, match="simulated kill"):
        atomic_write_bytes(path, b"version-2-much-longer-payload")
    monkeypatch.undo()

    assert path.read_bytes() == b"version-1"
    assert not list(tmp_path.glob("*.tmp")), "temp file leaked after crash"


# ---------------------------------------------------------------------------
# ArtifactStore round-trip properties
# ---------------------------------------------------------------------------
def test_store_roundtrip_byte_identical(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    input_sha = sha256_bytes(b"input")
    config_sha = config_hash({"knob": 1})
    assert store.get("kind", input_sha, config_sha) is None
    store.put("kind", input_sha, config_sha, b"derived artifact")
    assert store.get("kind", input_sha, config_sha) == b"derived artifact"
    assert store.stats["hits"] == 1
    assert store.stats["misses"] == 1
    assert store.stats["puts"] == 1


@settings(max_examples=12, deadline=None)
@given(data=st.binary(min_size=0, max_size=4096))
def test_store_roundtrip_property(tmp_path_factory, data):
    """Any byte string survives put/get exactly, regardless of content."""
    store = ArtifactStore(tmp_path_factory.mktemp("store"))
    input_sha = sha256_bytes(data)
    config_sha = config_hash({"n": len(data)})
    store.put("blob", input_sha, config_sha, data)
    assert store.get("blob", input_sha, config_sha) == data


def test_store_input_and_config_mutations_invalidate(tmp_path):
    """Changing either half of the key must miss - never serve stale."""
    store = ArtifactStore(tmp_path / "store")
    input_sha = sha256_bytes(b"input")
    config_sha = config_hash({"epochs": 10, "seed": 0})
    store.put("model", input_sha, config_sha, b"weights")

    other_input = sha256_bytes(b"input-changed")
    other_config = config_hash({"epochs": 11, "seed": 0})
    assert store.get("model", other_input, config_sha) is None
    assert store.get("model", input_sha, other_config) is None
    assert store.get("model", input_sha, config_sha) == b"weights"


def test_config_hash_canonical_and_sensitive():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"sizes": (8, 8)}) == config_hash({"sizes": [8, 8]})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


def test_store_corrupt_blob_detected_and_recomputed(tmp_path):
    """A flipped bit fails sha256 verification: miss, drop, recompute."""
    store = ArtifactStore(tmp_path / "store")
    input_sha = sha256_bytes(b"input")
    config_sha = config_hash({"knob": 1})
    store.put("kind", input_sha, config_sha, b"good bytes")

    key = store.entry_key(input_sha, config_sha)
    blob_path, meta_path = store._paths("kind", key)
    blob_path.write_bytes(b"bad  bytes")  # same size, different content

    assert store.get("kind", input_sha, config_sha) is None
    assert store.stats["corrupt_detected"] == 1
    assert not blob_path.exists() and not meta_path.exists()

    # The caller's recompute path: put again, then a verified hit.
    store.put("kind", input_sha, config_sha, b"good bytes")
    assert store.get("kind", input_sha, config_sha) == b"good bytes"


def test_store_torn_put_reads_as_miss(tmp_path):
    """Blob present but no manifest entry (crash between the two writes)."""
    store = ArtifactStore(tmp_path / "store")
    input_sha = sha256_bytes(b"input")
    config_sha = config_hash({"knob": 1})
    store.put("kind", input_sha, config_sha, b"artifact")
    key = store.entry_key(input_sha, config_sha)
    _, meta_path = store._paths("kind", key)
    os.unlink(meta_path)
    assert store.get("kind", input_sha, config_sha) is None


def test_store_summary_counts_entries(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    store.put("bundle", sha256_bytes(b"a"), config_hash({}), b"xx")
    store.put("model", sha256_bytes(b"b"), config_hash({}), b"yyyy")
    summary = store.summary()
    assert summary["entries"] == 2
    assert summary["kinds"]["bundle"]["n_bytes"] == 2
    assert summary["kinds"]["model"]["n_bytes"] == 4


def test_resolve_store_variants(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    assert resolve_store(None) is None
    assert resolve_store(False) is None
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
    via_env = resolve_store(None)
    assert isinstance(via_env, ArtifactStore)
    assert resolve_store(None) is via_env, "per-root instance not cached"

    explicit = ArtifactStore(tmp_path / "explicit")
    assert resolve_store(explicit) is explicit
    assert resolve_store(False) is None, "False must win over the env"
    with using_store(None):
        assert resolve_store(None) is None, "override must win over the env"
    with pytest.raises(TypeError, match="store must be"):
        resolve_store(42)


# ---------------------------------------------------------------------------
# Dataset and fit warm starts
# ---------------------------------------------------------------------------
def test_dataset_load_warm_start_byte_identical(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    cold = registry.load("crime", seed=0, store=store)
    assert store.stats["misses"] == 1 and store.stats["puts"] == 1
    warm = registry.load("crime", seed=0, store=store)
    assert store.stats["hits"] == 1
    assert bundle_to_bytes(warm) == bundle_to_bytes(cold)
    baseline = registry.load("crime", seed=0, store=False)
    assert bundle_to_bytes(baseline) == bundle_to_bytes(cold)
    # A different seed is a different key, not a stale hit.
    registry.load("crime", seed=1, store=store)
    assert store.stats["misses"] == 2


def test_fit_warm_start_byte_identical(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    source = structured_triangles_hypergraph(seed=3, n_groups=8)
    cold = MARIOH(seed=0, max_epochs=20).fit(source, store=store)
    assert cold.fit_from_store_ is False
    warm = MARIOH(seed=0, max_epochs=20).fit(source, store=store)
    assert warm.fit_from_store_ is True
    assert warm.payload_bytes() == cold.payload_bytes()
    assert warm.content_sha256() == cold.content_sha256()
    # Different training config -> different key -> trained, not reused.
    other = MARIOH(seed=1, max_epochs=20).fit(source, store=store)
    assert other.fit_from_store_ is False


def test_fit_with_seed_none_never_cached(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    source = structured_triangles_hypergraph(seed=3, n_groups=8)
    unfixed = MARIOH(seed=None, max_epochs=20).fit(source, store=store)
    assert unfixed.fit_from_store_ is None
    assert store.stats["puts"] == 0, "nondeterministic fit must not publish"


# ---------------------------------------------------------------------------
# Model persistence: atomic save, verified load
# ---------------------------------------------------------------------------
def test_save_returns_content_sha256(model_a, tmp_path):
    path = tmp_path / "model.json"
    digest = model_a.save(path)
    assert digest == model_a.content_sha256()
    assert digest == sha256_bytes(path.read_bytes())
    loaded = MARIOH.load(path, expected_sha256=digest)
    assert loaded.content_sha256() == digest


def test_save_kill_mid_write_keeps_old_model_readable(
    model_a, model_b, tmp_path, monkeypatch
):
    """Regression: ``save`` used to stream json straight into the target.

    A kill mid-save then left a torn half-file that raised a bare
    ``json.JSONDecodeError`` on the next load.  Through the atomic path
    the old model must stay fully readable after a simulated kill.
    """
    path = tmp_path / "model.json"
    model_a.save(path)

    def killed(src, dst):
        raise OSError("simulated kill during rename")

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(OSError, match="simulated kill"):
        model_b.save(path)
    monkeypatch.undo()

    loaded = MARIOH.load(path)
    assert loaded.content_sha256() == model_a.content_sha256()
    assert not list(tmp_path.glob("*.tmp"))


def test_truncated_model_file_raises_model_load_error(model_a, tmp_path):
    path = tmp_path / "model.json"
    model_a.save(path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ModelLoadError, match="truncated or corrupt"):
        MARIOH.load(path)
    # Still a ValueError for older callers, never a bare decode error.
    with pytest.raises(ValueError):
        MARIOH.load(path)
    try:
        MARIOH.load(path)
    except Exception as exc:  # noqa: BLE001 - asserting the exact type
        assert not isinstance(exc, json.JSONDecodeError)


def test_load_expected_sha256_mismatch_raises(model_a, tmp_path):
    path = tmp_path / "model.json"
    model_a.save(path)
    with pytest.raises(ModelLoadError, match="content mismatch"):
        MARIOH.load(path, expected_sha256="0" * 64)


# ---------------------------------------------------------------------------
# Sharding model cache: content identity, not stat identity
# ---------------------------------------------------------------------------
def test_model_cache_survives_same_size_same_mtime_rewrite(
    model_a, model_b, tmp_path
):
    """Regression for the stale-model-cache bug.

    The old cache key was ``(path, mtime_ns, size)``: rewriting a model
    file in place with the same byte length inside the filesystem's
    timestamp granularity (here forced exactly equal via ``os.utime``)
    kept serving the previous weights.  The content-hash key must serve
    the new weights.
    """
    raw_a = model_a.payload_bytes()
    raw_b = model_b.payload_bytes()
    size = max(len(raw_a), len(raw_b))
    # JSON ignores trailing whitespace, so padding equalizes file size
    # without changing the decoded model.
    padded_a = raw_a + b" " * (size - len(raw_a))
    padded_b = raw_b + b" " * (size - len(raw_b))
    path = tmp_path / "model.json"

    path.write_bytes(padded_a)
    stat_a = os.stat(path)
    first, first_digest = shard_execute._load_model(str(path))
    assert first.content_sha256() == model_a.content_sha256()

    path.write_bytes(padded_b)
    os.utime(path, ns=(stat_a.st_atime_ns, stat_a.st_mtime_ns))
    stat_b = os.stat(path)
    # The rewrite is invisible to stat metadata - the old key collided.
    assert stat_b.st_size == stat_a.st_size
    assert stat_b.st_mtime_ns == stat_a.st_mtime_ns

    second, second_digest = shard_execute._load_model(str(path))
    assert second_digest != first_digest
    assert second.content_sha256() == model_b.content_sha256()


def test_model_cache_hit_returns_same_instance(model_a, tmp_path):
    path = tmp_path / "model.json"
    model_a.save(path)
    first, digest_1 = shard_execute._load_model(str(path))
    second, digest_2 = shard_execute._load_model(str(path))
    assert digest_1 == digest_2
    assert second is first, "same content must reuse the parsed model"


def test_model_cache_normalizes_symlinks(model_a, tmp_path):
    path = tmp_path / "model.json"
    model_a.save(path)
    link = tmp_path / "alias.json"
    os.symlink(path, link)
    direct, digest_direct = shard_execute._load_model(str(path))
    via_link, digest_link = shard_execute._load_model(str(link))
    assert digest_link == digest_direct
    assert via_link is direct


# ---------------------------------------------------------------------------
# Serve daemon: model identity and no-longer-silent OSErrors
# ---------------------------------------------------------------------------
def test_checkpoint_refuses_resume_under_different_model(
    model_a, model_b, tmp_path
):
    path = str(tmp_path / "serve.ckpt")
    writer = ReconstructionServer(
        StreamingReconstructor(model_a), checkpoint_path=path
    )
    writer._write_checkpoint()
    assert writer.stats["checkpoints_written"] == 1

    with pytest.raises(RuntimeError, match="different model"):
        ReconstructionServer(
            StreamingReconstructor(model_b), checkpoint_path=path
        ).start()

    same = ReconstructionServer(
        StreamingReconstructor(model_a), checkpoint_path=path
    )
    same.start()
    try:
        assert same.stats["resumed_from_checkpoint"] == 1
    finally:
        same.close()


def test_checkpoint_without_model_identity_still_resumes(
    model_a, model_b, tmp_path
):
    """Checkpoints written before the identity field skip the check."""
    path = str(tmp_path / "serve.ckpt")
    writer = ReconstructionServer(
        StreamingReconstructor(model_a), checkpoint_path=path
    )
    payload = writer._checkpoint_payload()
    del payload["model_sha256"]
    writer.store.write(payload)

    legacy = ReconstructionServer(
        StreamingReconstructor(model_b), checkpoint_path=path
    )
    legacy.start()
    try:
        assert legacy.stats["resumed_from_checkpoint"] == 1
    finally:
        legacy.close()


def test_checkpoint_write_oserror_counted_and_logged(
    model_a, tmp_path, monkeypatch, caplog
):
    """Regression: checkpoint write failures used to vanish silently."""
    server = ReconstructionServer(
        StreamingReconstructor(model_a),
        checkpoint_path=str(tmp_path / "serve.ckpt"),
    )

    def failing_write(payload):
        raise OSError("simulated disk full")

    monkeypatch.setattr(server.store, "write", failing_write)
    with caplog.at_level(logging.WARNING, logger="repro.serve.daemon"):
        server._write_checkpoint()
    assert server.stats["checkpoint_write_errors_total"] == 1
    assert server.stats["checkpoints_written"] == 0
    assert any("checkpoint write" in r.message for r in caplog.records)


def test_connection_teardown_oserrors_counted(model_a):
    """Regression: connection-teardown OSErrors were ``pass``-swallowed."""
    server = ReconstructionServer(StreamingReconstructor(model_a))
    assert server.stats["teardown_oserrors_total"] == 0
    dead = socket.socket()
    dead.close()  # shutdown on a closed socket raises EBADF
    _Connection(dead, on_oserror=server._note_oserror).close()
    assert server.stats["teardown_oserrors_total"] >= 1
    # Both counters ride along in the stats-op payload.
    assert "teardown_oserrors_total" in server.stats
    assert "checkpoint_write_errors_total" in server.stats


# ---------------------------------------------------------------------------
# End to end: warm grid repeat
# ---------------------------------------------------------------------------
def test_run_grid_warm_start_measured_and_byte_identical(
    tmp_path, monkeypatch
):
    spec = GridSpec(methods=("MARIOH",), datasets=("crime",), seeds=(0,))
    baseline = run_grid(spec, workers=1)

    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
    _load_bundle.cache_clear()  # the bundle LRU would mask store traffic
    cold = run_grid(spec, workers=1)
    _load_bundle.cache_clear()
    warm = run_grid(spec, workers=1)

    assert not cold.failures, cold.failures
    assert cold.canonical_json() == baseline.canonical_json()
    assert warm.canonical_json() == baseline.canonical_json()
    assert int(cold.stats["store_misses"]) > 0
    assert warm.stats["store_hit_rate"] is not None
    assert warm.stats["store_hit_rate"] >= 0.9
