"""The production composition the benchmark drives, and its set-up clock.

One :class:`Stack` is the configuration production runs:

* a :class:`~repro.core.sharded_store.ShardedSumStore` with two shards
  behind the :class:`~repro.streaming.updater.StreamingUpdater`'s
  :class:`~repro.streaming.cache.SumCache`, warmed by replaying the
  world's seeded LifeLog events through the live Fig. 4 loop;
* a fitted :class:`~repro.cf.mf.FunkSVD` served through
  :class:`~repro.serving.adapters.FunkSVDScorer`;
* :class:`~repro.core.advice.AdviceEngine` over the ``AFFINITY_LINKS``
  domain profile;
* optionally the retrieval stage at its defaults:
  :class:`~repro.retrieval.embeddings.EmbeddingProvider` →
  :meth:`~repro.retrieval.index.ClusteredANNIndex.build` →
  ``CandidateRetriever(RetrievalConfig())``.

Each set-up phase is timed separately (``setup.*`` per-layer metrics);
their wall-clock total is the end-to-end ``setup_s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from repro.cf.mf import FunkSVD
from repro.core.advice import AdviceEngine
from repro.core.sharded_store import ShardedSumStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER
from repro.retrieval import (
    CandidateRetriever,
    ClusteredANNIndex,
    EmbeddingProvider,
    RetrievalConfig,
)
from repro.serving import RecommendationService
from repro.serving.adapters import FunkSVDScorer
from repro.streaming import StreamingUpdater

from world import Sizes, World, build_world

N_SHARDS = 2
SCORER = "funksvd"
#: generous bound on any drain; a healthy drain takes milliseconds
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Stack:
    """A warmed, serving-ready production stack over one world."""

    world: World
    model: FunkSVD
    store: ShardedSumStore
    updater: StreamingUpdater
    scorer: FunkSVDScorer
    advice: AdviceEngine
    provider: EmbeddingProvider | None
    index: ClusteredANNIndex | None
    service: RecommendationService
    #: program-reported instruments (traced runs only)
    registry: MetricsRegistry | None
    timings: dict[str, float] = field(default_factory=dict)

    def close(self) -> None:
        self.updater.stop(drain=True, timeout=DRAIN_TIMEOUT_S)


def make_service(world: World, sums, scorer, advice, retriever) -> RecommendationService:
    """A service with the stack's configuration over the given parts."""
    service = RecommendationService(
        sums=sums,
        domain_profile=world.profile,
        item_attributes=world.item_attributes,
        advice=advice,
        retriever=retriever,
    )
    service.register(SCORER, scorer)
    return service


def build_stack(
    sizes: Sizes, seed: int, retrieval: bool, program_metrics: bool
) -> Stack:
    """World → fit → store + warm replay → index; every phase timed."""
    started = perf_counter()
    world = build_world(sizes, seed)
    world_done = perf_counter()
    model = FunkSVD(rank=16, epochs=sizes.fit_epochs, seed=seed).fit(world.ratings)
    fit_done = perf_counter()
    store = ShardedSumStore(n_shards=N_SHARDS)
    store.rows_for(range(sizes.n_users), create=True)
    registry = MetricsRegistry() if program_metrics else None
    updater = StreamingUpdater(
        store, world.item_emotions, n_shards=N_SHARDS,
        telemetry=registry,
        tracer=NULL_TRACER if program_metrics else None,
    )
    updater.start()
    updater.submit_many(world.warm.events())
    if not updater.drain(timeout=DRAIN_TIMEOUT_S):
        updater.stop(drain=False)
        raise RuntimeError("warm-up replay did not drain")
    warm_done = perf_counter()
    provider = index = retriever = None
    if retrieval:
        provider = EmbeddingProvider(
            model, domain_profile=world.profile,
            item_attributes=world.item_attributes,
        )
        ids, vectors = provider.item_vectors()
        index = ClusteredANNIndex.build(ids, vectors, seed=seed)
        retriever = CandidateRetriever(
            provider, config=RetrievalConfig(), index=index
        )
    index_done = perf_counter()
    scorer = FunkSVDScorer(model)
    advice = AdviceEngine()
    service = make_service(world, updater.cache, scorer, advice, retriever)
    finished = perf_counter()
    timings = {
        "setup.world_s": world_done - started,
        "setup.fit_s": fit_done - world_done,
        "setup.warm_s": warm_done - fit_done,
        "setup.index_build_s": index_done - warm_done,
        "setup_s": finished - started,
    }
    return Stack(
        world=world, model=model, store=store, updater=updater,
        scorer=scorer, advice=advice, provider=provider, index=index,
        service=service, registry=registry, timings=timings,
    )
