"""Output checks, run before any number is reported.

* every response: ``k`` finite scores in ``(-adjusted, id)`` order;
* the sequential reference: a service over an object
  :class:`~repro.core.sum_model.SumRepository` built by replaying the
  same events one at a time through
  :meth:`~repro.core.pipeline.EmotionalContextPipeline.apply_event`
  must rank exactly like the live stack, and (where asked) the live SUM
  state must be bit-equal to it;
* served scores must equal the exact full-scan scores of their items;
* the traced service must answer exactly like the untraced one.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro.core.gradual_eit import GradualEIT, QuestionBank
from repro.core.pipeline import EmotionalContextPipeline
from repro.core.sum_model import SumRepository
from repro.serving import (
    RecommendationRequest,
    SelectionRequest,
    SelectionResponse,
)
from repro.streaming import EventUpdateMapper

from stack import make_service

#: relative tolerance between a served score and the exact full-scan
#: score of the same item (the two grids come from matmuls of different
#: shapes, which may round differently in the last bits)
SCORE_RTOL = 1e-9


def ranking_check(k_items: int, k_users: int):
    """``check(response)``: a problem string when a ranking is short,
    non-finite or out of ``(-adjusted, id)`` order, else ``None``."""

    def check(response) -> str | None:
        ranked = response.ranked
        selection = isinstance(response, SelectionResponse)
        expected = k_users if selection else k_items
        if len(ranked) != expected:
            return f"{len(ranked)} entries, expected {expected}"
        if not all(math.isfinite(entry.adjusted_score) for entry in ranked):
            return "non-finite score"
        keys = [
            (-e.adjusted_score, e.user_id if selection else e.item) for e in ranked
        ]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            return "ranking out of (-adjusted, id) order"
        return None

    return check


def sequential_reference(stack, events) -> SumRepository:
    """The population after applying ``events`` one at a time, in order."""
    world = stack.world
    repository = SumRepository()
    for uid in range(world.sizes.n_users):
        repository.get_or_create(uid)
    pipeline = EmotionalContextPipeline(
        GradualEIT(QuestionBank.default_bank()), stack.updater.policy
    )
    mapper = EventUpdateMapper(world.item_emotions)
    for event in events:
        pipeline.apply_event(repository.get(event.user_id), event, mapper)
    return repository


def digest(sums) -> str:
    return hashlib.sha256(sums.dumps().encode()).hexdigest()


def reference_problems(stack, events, users, items, k: int, state_digest: bool) -> list[str]:
    """Differences between the live stack and the sequential reference."""
    reference = sequential_reference(stack, events)
    service = make_service(stack.world, reference, stack.scorer, stack.advice, None)
    problems = []
    for uid in users:
        request = RecommendationRequest(user_id=int(uid), items=items, k=k)
        if stack.service.recommend(request).ranked != service.recommend(request).ranked:
            problems.append(f"user {uid}: ranking differs from sequential reference")
    if state_digest and digest(stack.store) != digest(reference):
        problems.append("SUM state digest differs from sequential reference")
    return problems


def trace_problems(untraced, traced, users, items, k: int, select_item) -> list[str]:
    """Requests the traced service answers differently from the untraced one."""
    problems = []
    for uid in users:
        request = RecommendationRequest(user_id=int(uid), items=items, k=k)
        if untraced.recommend(request) != traced.recommend(request):
            problems.append(f"user {uid}: traced response differs")
    request = SelectionRequest(item=select_item, k=100)
    if untraced.select_users(request) != traced.select_users(request):
        problems.append("traced selection differs")
    return problems


def recall_at_k(service, users, catalog, k: int, chunk: int = 50) -> tuple[float, list[str]]:
    """Served top-k ∩ exact full-scan top-k, averaged over ``users``.

    The exact ranking is the same service's full ``users × catalog``
    score grid (:meth:`score_matrix` never retrieves), ordered like a
    response: by ``(-adjusted, item)``.  Every served score must also
    equal the exact score of its item: retrieval may miss items, but it
    never changes the score of an item it returns.  Returns the recall
    and the score mismatches found.
    """
    catalog = list(catalog)
    items = np.asarray(catalog)
    column = {item: col for col, item in enumerate(catalog)}
    hits = 0
    problems = []
    for lo in range(0, len(users), chunk):
        batch = [int(u) for u in users[lo:lo + chunk]]
        grid = service.score_matrix(batch, catalog)
        for row, uid in enumerate(batch):
            exact = set(items[np.lexsort((items, -grid[row]))[:k]].tolist())
            served = service.recommend(
                RecommendationRequest(
                    user_id=uid,
                    items=None if service.retriever is not None else catalog,
                    k=k,
                )
            )
            hits += len(exact & set(served.items))
            for entry in served.ranked:
                expected = grid[row, column[entry.item]]
                if not math.isclose(entry.adjusted_score, expected, rel_tol=SCORE_RTOL):
                    problems.append(
                        f"user {uid} item {entry.item}: served "
                        f"{entry.adjusted_score!r} != exact {expected!r}"
                    )
    return hits / (k * len(users)), problems
