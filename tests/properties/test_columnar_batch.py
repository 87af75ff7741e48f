"""Vectorized batch application ≡ sequential scalar application, bit for bit.

The columnar store's correctness contract: for *arbitrary* interleavings
of Decay/Reward/Punish ops — duplicate attributes inside one op,
duplicate users across batch items, clamp-saturating strengths, any
policy knobs — :func:`repro.core.updates.apply_ops_batch` over a
columnar shard leaves every user in exactly (``==``, not approximately)
the state sequential :func:`repro.core.updates.apply_op` produces on the
object backend.  The JSON serializations must therefore also be equal
byte for byte, which is what these tests compare.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.emotions import EMOTION_NAMES
from repro.core.reward import ReinforcementPolicy
from repro.core.sharded_store import ShardedSumStore
from repro.core.sum_model import SumRepository
from repro.core.sum_store import ColumnarSumStore
from repro.core.updates import (
    DecayOp,
    PunishOp,
    RewardOp,
    apply_ops,
    apply_ops_batch,
)

# duplicates allowed on purpose: one op rewarding ("shy", "shy") must
# clamp between the two touches, a case scatter-adds naively get wrong
attribute_tuples = st.lists(
    st.sampled_from(EMOTION_NAMES), min_size=1, max_size=4
).map(tuple)
strengths = st.floats(0.0, 2.0, allow_nan=False)  # > 1 exercises clamp01

ops = st.one_of(
    st.just(DecayOp()),
    st.builds(RewardOp, attributes=attribute_tuples, strength=strengths),
    st.builds(PunishOp, attributes=attribute_tuples, strength=strengths),
)

#: (user_id, ops) batch items; small id range forces duplicate users
batch_items = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),
        st.lists(ops, max_size=6).map(tuple),
    ),
    max_size=8,
)

policies = st.builds(
    ReinforcementPolicy,
    learning_rate=st.floats(0.01, 1.0, allow_nan=False),
    punish_ratio=st.floats(0.0, 1.0, allow_nan=False),
    decay=st.floats(0.0, 0.5, allow_nan=False, exclude_max=True),
)


@settings(max_examples=150, deadline=None)
@given(batch_items, policies)
def test_batch_apply_bit_equal_to_sequential(items, policy):
    reference = SumRepository()
    for user_id, user_ops in items:
        apply_ops(reference.get_or_create(user_id), user_ops, policy)

    store = ColumnarSumStore()
    counts = apply_ops_batch(store, items, policy)

    assert counts == [len(user_ops) for __, user_ops in items]
    assert store.dumps() == reference.dumps()


@settings(max_examples=100, deadline=None)
@given(batch_items, policies)
def test_batch_apply_on_object_repo_matches_columnar(items, policy):
    # the dispatcher's scalar fallback and the vectorized path agree
    repo = SumRepository()
    store = ColumnarSumStore()
    assert apply_ops_batch(repo, items, policy) == apply_ops_batch(
        store, items, policy
    )
    assert repo.dumps() == store.dumps()


@settings(max_examples=50, deadline=None)
@given(batch_items, policies)
def test_json_and_catalog_round_trips_preserve_state(tmp_path_factory, items, policy):
    store = ColumnarSumStore()
    apply_ops_batch(store, items, policy)
    payload = store.dumps()

    # JSON import/export path (SumRepository-compatible both ways)
    assert ColumnarSumStore.loads(payload).dumps() == payload
    assert SumRepository.loads(payload).dumps() == payload

    # dense column pages through the repro.db Catalog, copied and mapped
    directory = tmp_path_factory.mktemp("pages")
    store.save(directory)
    assert ColumnarSumStore.load(directory).dumps() == payload
    assert ColumnarSumStore.load(directory, mmap=True).dumps() == payload
    assert json.loads(payload) == json.loads(ColumnarSumStore.load(directory).dumps())

    # sharded checkpoints: a full save, the remaining ops, then a delta
    # save that hardlinks every shard those ops left untouched
    sharded = ShardedSumStore(n_shards=3)
    half = len(items) // 2
    apply_ops_batch(sharded, items[:half], policy)
    root = tmp_path_factory.mktemp("checkpoints")
    sharded.save(root)
    apply_ops_batch(sharded, items[half:], policy)
    sharded.save(root)
    assert sharded.dumps() == payload
    for mmap in (False, True):
        assert ShardedSumStore.load(root, mmap=mmap).dumps() == payload
