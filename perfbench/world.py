"""Seeded inputs of the production-path benchmark.

Everything here is a pure function of ``(Sizes, seed)``: the course
catalog, the Zipf-skewed user population, the rating matrix the FunkSVD
model is fitted on, the warm-up LifeLog replay, and the request and
event streams the load generator offers.  The program under test only
ever receives these generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cf.ratings import RatingMatrix
from repro.core.advice import DomainProfile
from repro.datagen.catalog import AFFINITY_LINKS, CourseCatalog
from repro.lifelog.events import ActionCategory, Event

#: (action, category, weight) mix of the LifeLog firehose — the same mix
#: as the S2 streaming bench, so both benches stream comparable traffic
ACTION_MIX = (
    ("course_view", ActionCategory.NAVIGATION, 0.55),
    ("catalog_search", ActionCategory.NAVIGATION, 0.13),
    ("course_info", ActionCategory.INFO_REQUEST, 0.12),
    ("course_enroll", ActionCategory.ENROLLMENT, 0.05),
    ("course_rate", ActionCategory.RATING, 0.08),
    ("push_open", ActionCategory.CAMPAIGN, 0.04),
    ("push_click", ActionCategory.CAMPAIGN, 0.03),
)

#: Zipf exponent of user activity: a few hot users carry most traffic
ZIPF_EXPONENT = 1.1
#: latent dimensions of the synthetic taste model behind the ratings
TASTE_DIM = 8
#: epoch origin of generated event timestamps
EPOCH = 1_141_000_000.0


@dataclass(frozen=True)
class Sizes:
    """How big one world is."""

    n_users: int
    n_items: int
    n_ratings: int
    n_warm_events: int
    n_probe_users: int
    fit_epochs: int


@dataclass
class World:
    """One seeded world: catalog, population, ratings and warm-up events."""

    seed: int
    sizes: Sizes
    item_ids: list[int]
    #: subject area of each item (item ids are ``0..n_items-1``)
    areas: tuple[str, ...]
    item_attributes: dict[int, dict[str, float]]
    item_emotions: dict[str, tuple[str, ...]]
    profile: DomainProfile
    ratings: RatingMatrix
    #: users the Zipf traffic draws from (probe users excluded)
    active_users: np.ndarray
    #: activity probability of each active user
    activity: np.ndarray
    #: reserved users that only ever receive probe events
    probe_users: list[int]
    #: catalog items with emotion links (a probe on one always publishes)
    probe_targets: list[int]
    warm: EventColumns


def zipf_users(rng: np.random.Generator, n_active: int) -> tuple[np.ndarray, np.ndarray]:
    """Active user ids in random order with Zipf activity weights."""
    ranks = np.arange(1, n_active + 1, dtype=np.float64)
    weights = ranks ** -ZIPF_EXPONENT
    return rng.permutation(n_active), weights / weights.sum()


def _ratings(
    rng: np.random.Generator, sizes: Sizes, active: np.ndarray, activity: np.ndarray
) -> RatingMatrix:
    """Ratings from a latent taste model; every catalog item is rated."""
    n_items = sizes.n_items
    n_ratings = max(sizes.n_ratings, n_items)
    items = np.concatenate([
        rng.permutation(n_items),
        rng.integers(0, n_items, size=n_ratings - n_items),
    ])
    users = rng.choice(active, size=n_ratings, p=activity)
    user_taste = rng.normal(0.0, 1.0, (sizes.n_users, TASTE_DIM))
    item_taste = rng.normal(0.0, 1.0, (n_items, TASTE_DIM))
    affinity = np.einsum(
        "ij,ij->i", user_taste[users], item_taste[items]
    ) / np.sqrt(TASTE_DIM)
    values = np.clip(
        np.rint(3.0 + 1.2 * affinity + rng.normal(0.0, 0.5, n_ratings)), 1, 5
    )
    return RatingMatrix(
        zip(users.tolist(), items.tolist(), values.tolist())
    )


@dataclass(frozen=True)
class EventColumns:
    """A seeded LifeLog stream kept as columns; events materialise on demand.

    Holding the stream as arrays keeps the benchmark's own objects out of
    the heap the program's garbage collector scans while it is measured.
    """

    kinds: np.ndarray
    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    areas: tuple[str, ...]
    t0: float

    def __len__(self) -> int:
        return len(self.users)

    def events(self, lo: int = 0, hi: int | None = None) -> list[Event]:
        """Events ``lo..hi`` of the stream (equal events on every call)."""
        hi = len(self) if hi is None else hi
        events = []
        for i in range(lo, hi):
            action, category, __ = ACTION_MIX[int(self.kinds[i])]
            item = int(self.items[i])
            if action == "catalog_search":
                payload: dict = {"q": self.areas[item]}
            else:
                payload = {"target": str(item)}
                if action == "course_rate":
                    payload["value"] = str(int(self.ratings[i]))
            events.append(Event(
                timestamp=self.t0 + float(i), user_id=int(self.users[i]),
                action=action, category=category, payload=payload,
            ))
        return events


def make_events(
    rng: np.random.Generator,
    n_events: int,
    active: np.ndarray,
    activity: np.ndarray,
    areas: tuple[str, ...],
    t0: float,
) -> EventColumns:
    """``n_events`` LifeLog events with the :data:`ACTION_MIX`, Zipf users,
    uniform items (item ids are ``0..len(areas)-1``)."""
    weights = np.asarray([w for __, __, w in ACTION_MIX])
    return EventColumns(
        kinds=rng.choice(len(ACTION_MIX), size=n_events, p=weights / weights.sum()),
        users=rng.choice(active, size=n_events, p=activity),
        items=rng.integers(0, len(areas), size=n_events),
        ratings=rng.integers(1, 6, size=n_events),
        areas=areas,
        t0=t0,
    )


def probe_event(user_id: int, target: int, serial: int) -> Event:
    """A probe: one course view on an emotion-linked course."""
    return Event(
        timestamp=EPOCH + 1e8 + float(serial), user_id=int(user_id),
        action="course_view", category=ActionCategory.NAVIGATION,
        payload={"target": str(int(target))},
    )


def build_world(sizes: Sizes, seed: int) -> World:
    """Generate the whole seeded world (catalog → ratings → warm events)."""
    rng = np.random.default_rng([seed, 11])
    catalog = CourseCatalog.generate(sizes.n_items, seed=seed)
    item_ids = catalog.course_ids()
    areas = tuple(catalog.get(cid).area for cid in item_ids)
    n_active = sizes.n_users - sizes.n_probe_users
    active, activity = zipf_users(rng, n_active)
    item_emotions = catalog.emotion_links()
    return World(
        seed=seed,
        sizes=sizes,
        item_ids=item_ids,
        areas=areas,
        item_attributes={
            cid: dict(catalog.get(cid).attributes) for cid in item_ids
        },
        item_emotions=item_emotions,
        profile=DomainProfile("courses", AFFINITY_LINKS),
        ratings=_ratings(rng, sizes, active, activity),
        active_users=active,
        activity=activity,
        probe_users=list(range(n_active, sizes.n_users)),
        probe_targets=[
            cid for cid in item_ids if item_emotions[str(cid)]
        ],
        warm=make_events(
            rng, sizes.n_warm_events, active, activity, areas, EPOCH
        ),
    )
