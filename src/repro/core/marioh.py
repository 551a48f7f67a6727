"""The MARIOH estimator (Algorithm 1) and its ablation variants.

Usage::

    model = MARIOH(seed=0).fit(source_hypergraph)
    reconstruction = model.reconstruct(target_projected_graph)

``fit`` projects the source hypergraph, assembles the supervised clique
training set and trains the classifier; ``reconstruct`` runs the
theoretically-guaranteed filtering followed by the bidirectional search
loop with adaptive threshold decay until the target graph has no edges
left.

Variants (Sect. IV-E ablations):

- ``variant="full"`` - MARIOH as published;
- ``variant="no_multiplicity"`` - MARIOH-M: multiplicity-aware features
  replaced by the structural featurizer;
- ``variant="no_filtering"`` - MARIOH-F: Algorithm 2 skipped;
- ``variant="no_bidirectional"`` - MARIOH-B: Phase 2 of Algorithm 3
  skipped.
"""

from __future__ import annotations

import dataclasses
import gc
import logging
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.classifier import CliqueClassifier
from repro.core.features import CliqueFeaturizer, StructuralFeaturizer
from repro.core.filtering import filter_guaranteed_pairs
from repro.core.pool import CliqueCandidatePool
from repro.core.search import bidirectional_search, decay_threshold
from repro.hypergraph.graph import WeightedGraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.projection import project
from repro.hypergraph.split import subsample_supervision
from repro.resilience.errors import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sharding.execute import ShardingConfig

VARIANTS = ("full", "no_multiplicity", "no_filtering", "no_bidirectional")

#: store-key schema of cached fit results; bump whenever training
#: semantics change so stale cached classifiers stop matching.
FIT_SCHEMA = "repro-marioh-fit-v1"

logger = logging.getLogger(__name__)


class ModelLoadError(ValueError):
    """A model file failed to load: torn/corrupt bytes, a non-model
    file, an unsupported version, or a content-hash mismatch.

    Subclasses :class:`ValueError` so pre-existing callers catching the
    old bare errors keep working.
    """


def _sampling_seed(seed: Optional[int]) -> int:
    """Integer seed of the search's sub-clique sampling stream.

    The classifier seeds ``np.random.default_rng(seed)`` directly for
    negative sampling and MLP initialization; deriving the sampler's
    seed from a *spawned child* of ``SeedSequence(seed)`` gives Phase-2
    sub-clique sampling a statistically independent stream under the
    same user-facing seed, so the two stages can never alias draws (and
    engine- or cache-level changes to how often one stage recomputes
    cannot perturb the other).  ``seed=None`` draws fresh OS entropy,
    matching ``default_rng(None)``.
    """
    return int(np.random.SeedSequence(seed).spawn(1)[0].generate_state(1)[0])


@dataclasses.dataclass(frozen=True)
class ProvenanceRecord:
    """How one hyperedge instance entered the reconstruction.

    ``stage`` is ``"filtering"`` (Algorithm 2, with ``score`` None and
    ``iteration`` 0), ``"phase1"`` (a most-promising maximal clique), or
    ``"phase2"`` (a sub-clique sampled from a least-promising clique).
    ``theta`` is the classification threshold in force at conversion.
    """

    edge: frozenset
    stage: str
    iteration: int
    score: Optional[float]
    theta: Optional[float]
    multiplicity: int = 1


class MARIOH:
    """Supervised multiplicity-aware hypergraph reconstruction.

    Parameters
    ----------
    theta_init:
        Initial classification threshold θ_init (paper sweeps 0.5-1.0).
    r:
        Negative prediction processing ratio in percent (paper sweeps
        20-100).
    alpha:
        Threshold adjust ratio α (paper default 1/20).
    phase2_scope:
        How the Phase-2 ``r%`` tail quota is computed: ``"global"``
        (the paper's rule, the default) over the whole sub-θ candidate
        list, or ``"component"`` per connected component of the working
        graph.  Component scope makes reconstruction exactly
        decomposable across connected components - the property sharded
        reconstruction relies on for boundary-free parity - while
        global scope couples components through one shared quota.
    variant:
        One of ``"full"``, ``"no_multiplicity"``, ``"no_filtering"``,
        ``"no_bidirectional"`` - see the module docstring.
    hidden_sizes, negative_ratio, max_epochs:
        Classifier knobs, forwarded to :class:`CliqueClassifier`.
    max_iterations:
        Optional hard cap on search iterations (safety valve for
        experiments; ``None`` runs until the graph empties, which is
        guaranteed to terminate because every iteration with θ = 0
        converts at least one clique).  θ steps the loop skips because
        they cannot convert anything count as iterations, here and in
        :attr:`n_iterations_` and provenance.
    engine:
        ``"incremental"`` (the default) maintains the maximal cliques
        with :class:`~repro.core.pool.CliqueCandidatePool` under edge
        removals; ``"rescan"`` re-enumerates them every iteration (the
        paper's pseudocode, kept as the reference implementation).  The
        two engines produce identical reconstructions - equivalence is
        enforced by the parity test suite.
    strict_invariants:
        The incremental engine self-audits its clique pool every
        iteration (version counters, snapshot coherence, a sampled
        staleness probe).  By default a violation logs a warning and
        degrades gracefully: the remainder of that reconstruction runs
        on the rescan engine (recorded in :attr:`engine_fallback_`).
        With ``strict_invariants=True`` the violation raises
        :class:`~repro.resilience.errors.InvariantViolation` instead -
        the mode the parity/CI suites run under, so corruption can
        never hide behind the fallback.
    seed:
        Seeds classifier initialization and sub-clique sampling.
    """

    def __init__(
        self,
        theta_init: float = 0.9,
        r: float = 20.0,
        alpha: float = 1.0 / 20.0,
        phase2_scope: str = "global",
        variant: str = "full",
        hidden_sizes: Sequence[int] = (64, 32),
        negative_ratio: float = 2.0,
        max_epochs: int = 150,
        max_iterations: Optional[int] = None,
        engine: str = "incremental",
        strict_invariants: bool = False,
        record_provenance: bool = False,
        seed: Optional[int] = None,
    ) -> None:
        if not 0.0 < theta_init <= 1.0:
            raise ValueError(f"theta_init must be in (0, 1], got {theta_init}")
        if not 0.0 <= r <= 100.0:
            raise ValueError(f"r must be in [0, 100], got {r}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if phase2_scope not in ("global", "component"):
            raise ValueError(
                f"phase2_scope must be 'global' or 'component', "
                f"got {phase2_scope!r}"
            )
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        if engine not in ("rescan", "incremental"):
            raise ValueError(
                f"engine must be 'rescan' or 'incremental', got {engine!r}"
            )
        self.theta_init = theta_init
        self.r = r
        self.alpha = alpha
        self.phase2_scope = phase2_scope
        self.variant = variant
        self.hidden_sizes = tuple(hidden_sizes)
        self.negative_ratio = negative_ratio
        self.max_epochs = max_epochs
        self.max_iterations = max_iterations
        self.engine = engine
        self.strict_invariants = strict_invariants
        self.record_provenance = record_provenance
        self.seed = seed

        featurizer = (
            StructuralFeaturizer()
            if variant == "no_multiplicity"
            else CliqueFeaturizer()
        )
        self.classifier = CliqueClassifier(
            featurizer=featurizer,
            hidden_sizes=hidden_sizes,
            negative_ratio=negative_ratio,
            max_epochs=max_epochs,
            seed=seed,
        )
        #: wall-clock seconds per stage, filled by fit/reconstruct
        #: (keys: train, filtering, bidirectional) - used by the Fig. 6
        #: runtime-breakdown benchmark.
        self.stage_times_: Dict[str, float] = {}
        self.n_iterations_: int = 0
        #: per-conversion provenance, filled by reconstruct() when
        #: ``record_provenance`` is set.
        self.provenance_: List[ProvenanceRecord] = []
        #: set by reconstruct() when the incremental engine failed its
        #: invariant self-check and the run degraded to rescan mode:
        #: {"iteration": int, "violation": str}.  None on clean runs.
        self.engine_fallback_: Optional[Dict[str, object]] = None
        #: the working graph's in-place snapshot patch counters after
        #: the last reconstruct() (see
        #: :meth:`~repro.hypergraph.graph.WeightedGraph.snapshot_patch_stats`).
        self.snapshot_patch_stats_: Dict[str, int] = {}
        #: sharded-reconstruction telemetry of the last
        #: ``reconstruct(..., sharding=...)`` call: plan hash, shard and
        #: boundary sizes, partition/stitch timings, per-shard peak RSS.
        #: Empty on unsharded runs.
        self.shard_stats_: Dict[str, object] = {}
        #: how the last fit() resolved against the artifact store:
        #: ``True`` = restored from a verified cache hit, ``False`` =
        #: trained cold and published, ``None`` = store disabled (or
        #: ``seed=None``, which is never cached) or fit() not yet called.
        self.fit_from_store_: Optional[bool] = None

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self.classifier.is_fitted

    def fit(
        self,
        source_hypergraph: Hypergraph,
        supervision_fraction: float = 1.0,
        store=None,
    ) -> "MARIOH":
        """Train the clique classifier on the source hypergraph.

        ``supervision_fraction`` subsamples the source hyperedges before
        training (the Table VI semi-supervised setting); the projection
        used for features is taken over the *subsampled* hypergraph, so
        reduced supervision weakens both labels and features, as it would
        with a genuinely smaller source dataset.

        ``store`` selects the artifact store consulted for a cached fit
        (see :func:`repro.store.resolve_store`): ``None`` uses the
        process default (``REPRO_STORE``), ``False`` forces a cold fit,
        a path or :class:`~repro.store.ArtifactStore` uses that store.
        A fit is cached under the sha256 of the (subsample-invariant)
        source hypergraph plus a hash of every training-relevant knob;
        a verified hit restores the classifier weights byte-identically
        (JSON floats round-trip exactly) and sets
        :attr:`fit_from_store_` to ``True``.  Models with ``seed=None``
        train nondeterministically and are never cached.
        """
        from repro.store import artifacts, manifest

        self.fit_from_store_ = None
        cache = artifacts.resolve_store(store) if self.seed is not None else None
        input_sha = config_sha = None
        if cache is not None:
            input_sha = manifest.hypergraph_sha256(source_hypergraph)
            config_sha = artifacts.config_hash(
                self._fit_config(supervision_fraction)
            )
            cached = cache.get("model", input_sha, config_sha)
            if cached is not None:
                self._restore_classifier(self.loads(cached))
                self.fit_from_store_ = True
                self.stage_times_["load_sample"] = 0.0
                self.stage_times_["train"] = 0.0
                return self

        supervision = subsample_supervision(
            source_hypergraph, supervision_fraction, seed=self.seed
        )
        source_graph = project(supervision)
        self.classifier.fit(source_graph, supervision)
        # Fig. 6 segments: "load_sample" = training-set assembly
        # (negative sampling + featurization), "train" = MLP fitting.
        self.stage_times_["load_sample"] = self.classifier.sample_seconds_
        self.stage_times_["train"] = self.classifier.train_seconds_
        if cache is not None:
            cache.put(
                "model",
                input_sha,
                config_sha,
                self.payload_bytes(),
                extra_meta={"model": "MARIOH", "variant": self.variant},
            )
            self.fit_from_store_ = False
        return self

    def _fit_config(self, supervision_fraction: float) -> Dict[str, object]:
        """Every knob that changes what ``fit`` trains."""
        return {
            "schema": FIT_SCHEMA,
            "supervision_fraction": supervision_fraction,
            "variant": self.variant,
            "hidden_sizes": list(self.hidden_sizes),
            "negative_ratio": self.negative_ratio,
            "max_epochs": self.max_epochs,
            "seed": self.seed,
        }

    def _restore_classifier(self, fitted: "MARIOH") -> None:
        """Adopt another instance's trained classifier (weights only).

        ``self`` keeps its own search/engine configuration; only the
        network the cached payload carries is taken over.
        """
        self.classifier._mlp = fitted.classifier._mlp
        self.classifier._mlp.max_epochs = self.max_epochs
        self.classifier._mlp.seed = self.seed

    def reconstruct(
        self,
        target_graph: WeightedGraph,
        sharding: Optional["ShardingConfig"] = None,
    ) -> Hypergraph:
        """Reconstruct a hypergraph from the target projected graph.

        Follows Algorithm 1: filtering (unless the -F variant), then
        bidirectional-search iterations with θ decaying by
        ``alpha * theta_init`` per iteration until no edges remain.

        Parameters
        ----------
        target_graph : WeightedGraph
            The projected graph ``G`` to invert.  Not modified: the
            loop mutates a working copy and uses the original as the
            immutable reference for the maximality feature.
        sharding : ShardingConfig, optional
            When given, the graph is partitioned under the config's
            ``max_shard_edges`` budget and reconstructed shard-by-shard
            on the experiment orchestrator (see
            :func:`repro.sharding.reconstruct_sharded`), with boundary
            edges re-scored in a deterministic stitch pass.  Results
            are byte-identical at any worker count; shard telemetry
            lands in :attr:`shard_stats_`.

        Returns
        -------
        Hypergraph
            The reconstruction ``Ĥ``; ``project(Ĥ)`` equals
            ``target_graph`` by construction (every unit of edge weight
            is consumed by exactly one conversion).

        Notes
        -----
        Deterministic for a fixed ``seed``: sub-clique sampling draws
        from a dedicated stream spawned off ``SeedSequence(seed)``
        (independent of the classifier's stream), candidate ordering is
        the pool's sorted view, and both engines produce byte-identical
        results (property-tested).  Fills :attr:`stage_times_`,
        :attr:`n_iterations_`, :attr:`snapshot_patch_stats_`, and - when
        ``record_provenance`` - :attr:`provenance_`.

        The cyclic garbage collector is paused for the run (if it was
        enabled): the loop leaves no reference cycles behind, so each
        collection would only re-walk the live candidates, rows and
        snapshots it keeps.  A sharded run with ``workers > 1`` is not
        paused, so that the pool's forked workers start with the
        collector on; each of their cells pauses it in turn.
        """
        if not self.is_fitted:
            raise RuntimeError("call fit() before reconstruct()")
        paused = gc.isenabled() and (sharding is None or sharding.workers == 1)
        if paused:
            gc.disable()
        try:
            if sharding is not None:
                from repro.sharding.execute import reconstruct_sharded

                return reconstruct_sharded(self, target_graph, sharding)
            return self._reconstruct(target_graph)
        finally:
            if paused:
                gc.enable()

    def _reconstruct(self, target_graph: WeightedGraph) -> Hypergraph:
        """The unsharded body of :meth:`reconstruct`."""
        reconstruction = Hypergraph(nodes=target_graph.nodes)
        reference_graph = target_graph
        sample_seed = _sampling_seed(self.seed)

        started = time.perf_counter()
        if self.variant == "no_filtering":
            working = target_graph.copy()
        else:
            working, reconstruction = filter_guaranteed_pairs(
                target_graph, reconstruction
            )
        self.stage_times_["filtering"] = time.perf_counter() - started

        self.provenance_ = []
        if self.record_provenance:
            for edge, multiplicity in reconstruction.items():
                self.provenance_.append(
                    ProvenanceRecord(
                        edge=edge,
                        stage="filtering",
                        iteration=0,
                        score=None,
                        theta=None,
                        multiplicity=multiplicity,
                    )
                )

        pool = (
            CliqueCandidatePool(working) if self.engine == "incremental" else None
        )
        self.engine_fallback_ = None
        theta = self.theta_init
        iterations = 0
        cap = self.max_iterations
        if cap is None:
            cap = float("inf")
        started = time.perf_counter()
        while not working.is_empty() and iterations < cap:
            if pool is not None:
                violation = pool.check_invariants()
                if violation is not None:
                    if self.strict_invariants:
                        raise InvariantViolation(
                            f"incremental engine invariant violated at "
                            f"iteration {iterations}: {violation}"
                        )
                    # Graceful degradation: the rescan engine derives
                    # everything from the live graph, so dropping the
                    # pool for the rest of this reconstruction trades
                    # speed for correctness instead of propagating a
                    # corrupt clique set.
                    logger.warning(
                        "incremental engine invariant violated at "
                        "iteration %d (%s); falling back to the rescan "
                        "engine for the rest of this reconstruction",
                        iterations,
                        violation,
                    )
                    self.engine_fallback_ = {
                        "iteration": iterations,
                        "violation": violation,
                    }
                    pool = None
            recorder: Optional[List[Tuple[frozenset, str, float]]] = (
                [] if self.record_provenance else None
            )
            working, reconstruction, converted, best = bidirectional_search(
                working,
                self.classifier,
                theta,
                self.r,
                reconstruction,
                reference_graph=reference_graph,
                skip_negative_phase=(self.variant == "no_bidirectional"),
                pool=pool,
                recorder=recorder,
                sample_seed=sample_seed,
                phase2_scope=self.phase2_scope,
            )
            if recorder is not None:
                for clique, stage, score in recorder:
                    self.provenance_.append(
                        ProvenanceRecord(
                            edge=clique,
                            stage=stage,
                            iteration=iterations + 1,
                            score=score,
                            theta=theta,
                        )
                    )
            theta = decay_threshold(theta, self.theta_init, self.alpha)
            iterations += 1
            # An iteration that converts nothing changes nothing, so the
            # next ones would score the same candidates again, and none
            # converts until θ drops below the best score just seen.
            # Count those steps without running them.
            while (
                not converted
                and 0.0 < theta
                and best <= theta
                and iterations < cap
            ):
                theta = decay_threshold(theta, self.theta_init, self.alpha)
                iterations += 1
        self.stage_times_["bidirectional"] = time.perf_counter() - started
        self.n_iterations_ = iterations
        self.snapshot_patch_stats_ = working.snapshot_patch_stats()
        return reconstruction

    def fit_reconstruct(
        self,
        source_hypergraph: Hypergraph,
        target_graph: WeightedGraph,
        supervision_fraction: float = 1.0,
    ) -> Hypergraph:
        """Convenience wrapper: ``fit`` on the source, then ``reconstruct``."""
        self.fit(source_hypergraph, supervision_fraction)
        return self.reconstruct(target_graph)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def payload_bytes(self) -> bytes:
        """The payload-v2 bytes :meth:`save` would write.

        Byte-for-byte what lands on disk and in the artifact store, so
        one sha256 identifies a fitted model everywhere (file, store
        entry, serve checkpoint).
        """
        import json

        if not self.is_fitted:
            raise RuntimeError("cannot serialize an unfitted model")
        payload = {
            "format": "repro-marioh",
            "version": 2,
            "theta_init": self.theta_init,
            "r": self.r,
            "alpha": self.alpha,
            "phase2_scope": self.phase2_scope,
            "variant": self.variant,
            "hidden_sizes": list(self.hidden_sizes),
            "negative_ratio": self.negative_ratio,
            "max_epochs": self.max_epochs,
            "engine": self.engine,
            "seed": self.seed,
            "classifier": self.classifier._mlp.to_dict(),
        }
        return json.dumps(payload).encode("utf-8")

    def content_sha256(self) -> str:
        """Hex sha256 of :meth:`payload_bytes` (the model's identity)."""
        from repro.store.atomic import sha256_bytes

        return sha256_bytes(self.payload_bytes())

    def save(self, path) -> str:
        """Write the fitted model (config + classifier weights) as JSON.

        Supports the transfer workflow: train once on a source domain,
        ship the file, and reconstruct new datasets without retraining.

        The write is atomic and durable (temp file -> flush -> fsync ->
        rename, via :func:`repro.store.atomic_write_bytes`): a crash
        mid-save leaves either the complete previous file or the
        complete new one, never a torn JSON tail.  Returns the hex
        sha256 of the written bytes so callers can record it in
        manifests and verify the file on load.

        The payload-v2 format is a single JSON object::

            {
              "format": "repro-marioh",     # file-type tag (required)
              "version": 2,
              "theta_init": float, "r": float, "alpha": float,
              "phase2_scope": str,          # absent in older files
              "variant": str, "engine": str, "seed": int | null,
              "hidden_sizes": [int, ...],   # classifier hyperparameters
              "negative_ratio": float, "max_epochs": int,
              "classifier": { ... }         # MLPClassifier.to_dict():
                                            # architecture + weights
            }

        Version 1 files (which lack the three classifier-hyperparameter
        keys) are still readable by :meth:`load`; they fall back to the
        constructor defaults for those knobs.
        """
        from repro.store.atomic import atomic_write_bytes

        return atomic_write_bytes(path, self.payload_bytes())

    @classmethod
    def from_payload(cls, payload) -> "MARIOH":
        """Rebuild a fitted model from a parsed payload dict."""
        from repro.ml.mlp import MLPClassifier

        if not isinstance(payload, dict):
            raise ModelLoadError(
                f"not a MARIOH model payload: expected a JSON object, "
                f"got {type(payload).__name__}"
            )
        if payload.get("format") != "repro-marioh":
            raise ModelLoadError(
                f"not a MARIOH model file: format={payload.get('format')!r}"
            )
        version = payload.get("version")
        if version not in (1, 2):
            raise ModelLoadError(f"unsupported version {version!r}")
        # Version 1 files predate classifier-hyperparameter persistence;
        # they fall back to the constructor defaults.
        classifier_kwargs = {}
        if version >= 2:
            classifier_kwargs = {
                "hidden_sizes": tuple(payload["hidden_sizes"]),
                "negative_ratio": payload["negative_ratio"],
                "max_epochs": payload["max_epochs"],
            }
        try:
            model = cls(
                theta_init=payload["theta_init"],
                r=payload["r"],
                alpha=payload["alpha"],
                # Additive in-place extension of payload v2; older files
                # simply predate the knob and ran under the global rule.
                phase2_scope=payload.get("phase2_scope", "global"),
                variant=payload["variant"],
                engine=payload.get("engine", "rescan"),
                seed=payload.get("seed"),
                **classifier_kwargs,
            )
            model.classifier._mlp = MLPClassifier.from_dict(
                payload["classifier"]
            )
        except KeyError as exc:
            raise ModelLoadError(
                f"incomplete MARIOH model payload: missing key {exc}"
            ) from exc
        # from_dict restores architecture + weights but not training
        # knobs; re-apply them so a re-fit after load behaves like the
        # original model.
        model.classifier._mlp.max_epochs = model.max_epochs
        model.classifier._mlp.seed = model.seed
        return model

    @classmethod
    def loads(cls, data: bytes) -> "MARIOH":
        """Rebuild a fitted model from :meth:`payload_bytes` bytes."""
        import json

        try:
            payload = json.loads(data.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ModelLoadError(
                f"truncated or corrupt MARIOH model data: {exc}"
            ) from exc
        return cls.from_payload(payload)

    @classmethod
    def load(cls, path, expected_sha256: Optional[str] = None) -> "MARIOH":
        """Rebuild a fitted model written by :meth:`save`.

        Raises :class:`ModelLoadError` (a :class:`ValueError`) on a
        torn/corrupt file, a non-model file, or an unsupported version.
        When ``expected_sha256`` is given (e.g. recorded by :meth:`save`
        or a store manifest), the file's bytes must hash to it - a
        mismatch means the file is not the model the caller pinned.
        """
        with open(path, "rb") as handle:
            data = handle.read()
        if expected_sha256 is not None:
            from repro.store.atomic import sha256_bytes

            actual = sha256_bytes(data)
            if actual != expected_sha256:
                raise ModelLoadError(
                    f"model file {path} content mismatch: expected sha256 "
                    f"{expected_sha256}, got {actual}"
                )
        try:
            return cls.loads(data)
        except ModelLoadError as exc:
            raise ModelLoadError(f"cannot load model file {path}: {exc}") from exc

    def __repr__(self) -> str:
        return (
            f"MARIOH(variant={self.variant!r}, theta_init={self.theta_init}, "
            f"r={self.r}, alpha={self.alpha:.4f}, seed={self.seed})"
        )
