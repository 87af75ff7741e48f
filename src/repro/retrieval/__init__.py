"""Embedding-based candidate retrieval: O(items) → O(k) serving.

Every scorer family scores a full ``user × item`` grid, so serving cost
grows linearly with catalog size.  This package converts the hot path to
the standard retrieve-then-rerank decomposition: a pure-numpy clustered
ANN index (:class:`~repro.retrieval.index.ClusteredANNIndex`) over
context-augmented item embeddings
(:class:`~repro.retrieval.embeddings.EmbeddingProvider`) proposes a
small oversampled candidate set, the registered batch
:class:`~repro.serving.scorer.Scorer` re-ranks *only* those candidates,
and the Advice stage adjusts the survivors — with an exact full-scan
fallback whenever the index cannot guarantee coverage (no index
configured, ``k`` within oversampling reach of the catalog, or the
request restricted to items outside the indexed catalog).

Freshness mirrors the replica plane:
:class:`~repro.retrieval.refresh.IndexRefresher` rebuilds off the
:class:`~repro.streaming.cache.SumCache` version counters in the
background and :meth:`~repro.retrieval.retriever.CandidateRetriever.
swap` publishes the new index with one attribute store of an immutable
(index, generation) tuple, so in-flight searches never observe a torn
pair.
"""

from repro.retrieval.embeddings import EmbeddingProvider, StaticEmbeddingProvider
from repro.retrieval.index import ClusteredANNIndex, kmeans
from repro.retrieval.refresh import IndexRefresher
from repro.retrieval.retriever import CandidateRetriever, RetrievalConfig

__all__ = [
    "CandidateRetriever",
    "ClusteredANNIndex",
    "EmbeddingProvider",
    "IndexRefresher",
    "RetrievalConfig",
    "StaticEmbeddingProvider",
    "kmeans",
]
