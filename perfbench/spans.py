"""Outside-in tracing: span recorder and the proxies it rides on.

The traced run records spans from the benchmark's own code only.  Thin
proxies enter the program through its public constructor seams and time
each call into a layer:

* ``sums=`` gets a :class:`TracedCache` (``SumCache.batch`` captures);
* ``advice=`` gets a :class:`TracedAdvice` (multiplier + presence);
* ``register()`` gets a :class:`TracedScorer` (``score_batch``);
* ``retriever=`` gets a :class:`TracedRetriever` built over a
  :class:`TracedProvider` and a :class:`TracedIndex`.

The service probes its resolver with ``getattr``/``hasattr`` (``batch``,
``rows_for``, ``repository``, ``version``, ``snapshot_generation``) and
``accepts_budget`` probes scorer signatures, so every proxy forwards
unknown attributes to the wrapped object and keeps the wrapped
signatures: the traced service takes exactly the branches the untraced
one does (the benchmark checks this by comparing their responses).

Spans live in per-thread lists, so recording takes no lock; one span is
``[request_id, name, start, end, parent_index, count]``.  Every span of
one request shares the id minted for its root span.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

import numpy as np

from repro.core.advice import AdviceEngine
from repro.retrieval import CandidateRetriever
from repro.serving.adapters import accepts_budget

from stack import make_service

#: layers whose per-call time is also split by the request kind above it
SPLIT_LAYERS = (
    "cache.batch", "scorer.score_batch",
    "advice.multiplier_matrix", "advice.presence_matrix",
)


class SpanRecorder:
    """In-memory spans, one lock-free list per recording thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lists: list[list[list[Any]]] = []
        self._lists_lock = threading.Lock()

    def _state(self) -> tuple[list[list[Any]], list[int]]:
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lists_lock:
                self._lists.append(local.spans)
            return local.spans, local.stack

    def begin(self, name: str) -> list[Any]:
        """Open a span under the calling thread's innermost open span."""
        spans, stack = self._state()
        parent = stack[-1] if stack else -1
        request = spans[parent][0] if parent >= 0 else next(self._ids)
        record = [request, name, 0.0, 0.0, parent, 0]
        stack.append(len(spans))
        spans.append(record)
        record[2] = perf_counter()
        return record

    def end(self, record: list[Any], count: int = 0) -> None:
        record[3] = perf_counter()
        record[5] = count
        self._local.stack.pop()

    def threads(self) -> list[list[list[Any]]]:
        with self._lists_lock:
            return list(self._lists)

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for thread, spans in enumerate(self.threads()):
                for index, (request, name, start, end, parent, count) in enumerate(spans):
                    out.write(json.dumps({
                        "thread": thread, "index": index, "request": request,
                        "name": name, "start": start, "end": end,
                        "parent": parent, "count": count,
                    }) + "\n")


class TracedCache:
    """``SumCache`` proxy timing ``batch``; forwards everything else."""

    def __init__(self, inner: object, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder
        if callable(getattr(inner, "batch", None)):
            self.batch = self._batch

    def _batch(self, user_ids, create: bool = False):
        record = self._recorder.begin("cache.batch")
        try:
            return self._inner.batch(user_ids, create=create)
        finally:
            self._recorder.end(record, len(user_ids))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def __contains__(self, user_id: object) -> bool:
        return user_id in self._inner

    def __len__(self) -> int:
        return len(self._inner)


class TracedScorer:
    """Scorer wrapper timing ``score_batch`` under the wrapped signature."""

    def __init__(self, inner: object, recorder: SpanRecorder) -> None:
        self._inner = inner
        score_batch = inner.score_batch

        @functools.wraps(score_batch)
        def traced(user_ids, items, *args, **kwargs):
            record = recorder.begin("scorer.score_batch")
            try:
                return score_batch(user_ids, items, *args, **kwargs)
            finally:
                recorder.end(record, len(user_ids) * len(items))

        self.score_batch = traced
        if accepts_budget(self) != accepts_budget(inner):
            raise AssertionError("scorer proxy changed the budget signature")

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


@dataclass(frozen=True)
class TracedAdvice(AdviceEngine):
    """Advice engine timing the multiplier pass and its presence rebuild."""

    recorder: SpanRecorder | None = field(default=None, compare=False, repr=False)

    def multiplier_matrix(self, models, items, item_attributes, profile):
        record = self.recorder.begin("advice.multiplier_matrix")
        try:
            return super().multiplier_matrix(models, items, item_attributes, profile)
        finally:
            self.recorder.end(record, len(models) * len(items))

    def presence_matrix(self, items, item_attributes, profile):
        record = self.recorder.begin("advice.presence_matrix")
        try:
            return super().presence_matrix(items, item_attributes, profile)
        finally:
            self.recorder.end(record, len(items))


class TracedProvider:
    """Embedding-provider proxy timing ``query_vectors``."""

    def __init__(self, inner: object, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def query_vectors(self, user_ids, context=None):
        record = self._recorder.begin("embeddings.query_vectors")
        try:
            return self._inner.query_vectors(user_ids, context)
        finally:
            self._recorder.end(record, len(user_ids))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class TracedIndex:
    """ANN-index proxy timing ``search``."""

    def __init__(self, inner: object, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def search(self, query, k, *args, **kwargs):
        record = self._recorder.begin("index.search")
        try:
            return self._inner.search(query, k, *args, **kwargs)
        finally:
            self._recorder.end(record, int(k))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def __len__(self) -> int:
        return len(self._inner)

    def __contains__(self, item: object) -> bool:
        return item in self._inner


class TracedRetriever(CandidateRetriever):
    """Retriever timing ``retrieve``; span count = candidates (-1: fallback)."""

    def __init__(self, provider, *, config, index, recorder: SpanRecorder) -> None:
        super().__init__(provider, config=config, index=index)
        self._recorder = recorder

    def retrieve(self, user_ids, items, k, *, context=None, budget=None):
        record = self._recorder.begin("retriever.retrieve")
        result = None
        try:
            result = super().retrieve(
                user_ids, items, k, context=context, budget=budget
            )
            return result
        finally:
            self._recorder.end(record, -1 if result is None else len(result))


def traced_service(stack, recorder: SpanRecorder):
    """A service over proxies of ``stack``'s parts, same configuration."""
    retriever = None
    if stack.index is not None:
        retriever = TracedRetriever(
            TracedProvider(stack.provider, recorder),
            config=stack.service.retriever.config,
            index=TracedIndex(stack.index, recorder),
            recorder=recorder,
        )
    return make_service(
        stack.world,
        TracedCache(stack.updater.cache, recorder),
        TracedScorer(stack.scorer, recorder),
        TracedAdvice(gain_scale=stack.advice.gain_scale, recorder=recorder),
        retriever,
    )


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer means from the recorded spans (ms per call, counts per call).

    A root span's self time is its duration minus its direct children's;
    children of one request run sequentially on one thread, so their
    durations never overlap.
    """
    durations: dict[str, list[float]] = {}
    counts: dict[str, list[int]] = {}
    self_ms: dict[str, list[float]] = {}
    for spans in recorder.threads():
        child_ms = [0.0] * len(spans)
        for record in spans:
            parent = record[4]
            if parent >= 0:
                child_ms[parent] += (record[3] - record[2]) * 1e3
        for index, (__, name, start, end, parent, count) in enumerate(spans):
            elapsed = (end - start) * 1e3
            durations.setdefault(name, []).append(elapsed)
            counts.setdefault(name, []).append(count)
            if parent < 0:
                self_ms.setdefault(name, []).append(elapsed - child_ms[index])
            elif name in SPLIT_LAYERS:
                root = parent
                while spans[root][4] >= 0:
                    root = spans[root][4]
                kind = spans[root][1].rsplit(".", 1)[-1]
                durations.setdefault(f"{kind}.{name}", []).append(elapsed)
    retrieved = [c for c in counts.get("retriever.retrieve", []) if c >= 0]
    calls = len(counts.get("retriever.retrieve", []))
    metrics = {
        "serving.recommend.self_ms": _mean(self_ms.get("serving.recommend", [])),
        "serving.select.self_ms": _mean(self_ms.get("serving.select", [])),
        "cache.batch_rows": _mean(counts.get("cache.batch", [])),
        "scorer.cells": _mean(counts.get("scorer.score_batch", [])),
        "advice.cells": _mean(counts.get("advice.multiplier_matrix", [])),
        "retriever.fallback_frac": (
            (calls - len(retrieved)) / calls if calls else 0.0
        ),
        "retriever.candidates": _mean(retrieved),
    }
    for name in (
        *SPLIT_LAYERS, "retriever.retrieve", "embeddings.query_vectors",
        "index.search", "updater.submit_many",
    ):
        metrics[f"{name}_ms"] = _mean(durations.get(name, []))
        if name in SPLIT_LAYERS:
            for kind in ("recommend", "select"):
                metrics[f"{kind}.{name}_ms"] = _mean(
                    durations.get(f"{kind}.{name}", [])
                )
    return metrics
