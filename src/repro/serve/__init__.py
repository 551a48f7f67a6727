"""Reconstruction-as-a-service: streaming engine + long-lived daemon.

The one-shot :meth:`~repro.core.marioh.MARIOH.reconstruct` call inverts
a *frozen* projected graph.  This package turns that into a service:

- :class:`~repro.serve.engine.StreamingReconstructor` accepts a stream
  of projected-graph edits (``add_edge`` / ``remove_edge`` /
  ``reweight``) against a long-lived :class:`~repro.hypergraph.graph.
  WeightedGraph` - an edit is a few dict writes; the live graph builds
  no CSR snapshot - and keeps the reconstructed
  hypergraph continuously up to date, re-deriving only the connected
  components an edit actually touched (exact, because
  ``phase2_scope="component"`` makes reconstruction decompose over
  components - the same property sharded reconstruction rests on).
- :class:`~repro.serve.daemon.ReconstructionServer` exposes the engine
  over a line-delimited JSON TCP protocol (``apply`` / ``query`` /
  ``snapshot`` / ``stats`` / ``shutdown``), coalescing concurrent
  in-flight requests into single engine passes, writing periodic
  sha256-verified checkpoints through
  :class:`~repro.resilience.checkpoint.CheckpointStore`, and draining
  gracefully on SIGTERM.  ``python -m repro serve`` runs it.

The quality backbone is the live-vs-batch parity guarantee: replaying
any edit stream through the engine yields output byte-identical to a
one-shot ``reconstruct()`` on the resulting graph (property-tested in
``tests/test_streaming_parity.py``; see docs/serving.md).
"""

from repro.serve.engine import (
    EDIT_OPS,
    StreamingReconstructor,
    apply_edit,
    component_digest,
    normalize_edit,
    random_edit_stream,
)

__all__ = [
    "EDIT_OPS",
    "StreamingReconstructor",
    "apply_edit",
    "component_digest",
    "normalize_edit",
    "random_edit_stream",
]
