"""The load generator: a closed-loop request client and an open-loop
LifeLog stream, at most two threads in one process.

Requests run closed-loop — each caller waits for its reply, so the next
request leaves only when the previous one returned.  LifeLog events run
open-loop on a fixed schedule — users act independently, so the stream
does not slow when the system does; every event is timed from when it
was *due*, which charges a generator stall to the events behind it.

Probe events measure update-to-visible latency from outside: a probe is
one course view for a reserved probe user (who receives nothing else),
and it is visible once ``SumCache.version(user)`` moves past the value
read just before the probe was sent.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

from repro.serving import RecommendationRequest, SelectionRequest

from stack import DRAIN_TIMEOUT_S
from world import probe_event

#: the generator's tick: due events go out together, and outstanding
#: probes are polled, at most once per tick.  Every wake-up takes the
#: interpreter lock from the program, so the tick trades probe timing
#: resolution against load-generator interference; an idle generator
#: (no probe outstanding) sleeps until the next event is due.
TICK_S = 0.002
#: problem reports kept per run (one suffices to fail it)
MAX_PROBLEMS = 20


def cpu_ticks() -> tuple[int, int] | None:
    """``(steal, total)`` CPU ticks of the host so far, where the kernel
    reports them (Linux ``/proc/stat``), else ``None``.

    Steal is time the hypervisor gave this machine's runnable virtual
    CPUs to other tenants.  The program cannot cause it, and a window
    that lost much of it reads slow on every metric.
    """
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = [int(v) for v in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7], sum(fields[:8])) if len(fields) > 7 else None


def steal_share(before, after) -> float | None:
    """Share of the CPU ticks between two :func:`cpu_ticks` readings that
    were stolen (``None`` where the host does not report steal)."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


@dataclass
class ClosedLoopResult:
    recommend_ms: list[float] = field(default_factory=list)
    #: when each of ``recommend_ms`` was sent, seconds from the loop's start
    recommend_at: list[float] = field(default_factory=list)
    select_ms: list[float] = field(default_factory=list)
    #: recommend latencies of the traced service (traced runs only)
    traced_recommend_ms: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: responses that failed the ranking check (checked as they arrive;
    #: retaining every response would grow the heap the collector scans)
    problems: list[str] = field(default_factory=list)


def closed_loop(
    plan, services, seconds: float, check, recorder=None
) -> ClosedLoopResult:
    """Serve ``plan`` requests back to back for ``seconds``.

    ``services`` is ``[untraced]`` or ``[untraced, traced]``; with two,
    requests alternate between them so both see the same conditions, and
    the traced one's requests run under a root span of ``recorder``.
    ``check(response)`` returns a problem string or ``None``; it runs
    outside the timed interval.
    """
    result = ClosedLoopResult()
    n_services = len(services)
    served = 0
    started = perf_counter()
    deadline = started + seconds
    for request in plan:
        if perf_counter() >= deadline:
            break
        traced = n_services == 2 and served % 2 == 1
        service = services[1] if traced else services[0]
        is_select = isinstance(request, SelectionRequest)
        t0 = perf_counter()
        root = None
        if traced:
            root = recorder.begin(
                "serving.select" if is_select else "serving.recommend"
            )
        try:
            if is_select:
                response = service.select_users(request)
            else:
                response = service.recommend(request)
        except Exception as exc:  # a raised request is a failed op
            result.errors.append(f"{type(exc).__name__}: {exc}"[:200])
            response = None
        finally:
            if root is not None:
                recorder.end(root)
        elapsed_ms = (perf_counter() - t0) * 1e3
        served += 1
        if response is None:
            continue
        if is_select:
            result.select_ms.append(elapsed_ms)
        elif traced:
            result.traced_recommend_ms.append(elapsed_ms)
        else:
            result.recommend_ms.append(elapsed_ms)
            result.recommend_at.append(t0 - started)
        problem = check(response)
        if problem is not None and len(result.problems) < MAX_PROBLEMS:
            result.problems.append(problem)
    return result


def request_stream(rng, world, plan_length: int, select_every: int, items, k: int, select_k: int):
    """Endless seeded request stream cycling over ``plan_length`` requests:
    Zipf-user recommends and, unless ``select_every`` is 0, one select over
    the whole population per ``select_every`` requests.  Requests are
    built as they are sent."""
    users = rng.choice(world.active_users, size=plan_length, p=world.activity)
    selects = select_stream(rng, world, select_k)
    for i in itertools.cycle(range(plan_length)):
        if select_every and i % select_every == select_every - 1:
            yield next(selects)
        else:
            yield RecommendationRequest(user_id=int(users[i]), items=items, k=k)


def select_stream(rng, world, select_k: int, plan_length: int = 1_000):
    """Endless seeded stream of selects over the whole population, each
    for a uniformly drawn catalog course."""
    courses = rng.choice(world.item_ids, size=plan_length)
    for i in itertools.cycle(range(plan_length)):
        yield SelectionRequest(item=int(courses[i]), k=select_k)


class OpenLoop(threading.Thread):
    """Paced LifeLog stream: the workload mix plus update-visibility probes.

    ``mix`` events (an :class:`~world.EventColumns`, or ``None``) go out
    at ``mix_rate`` per second and probes at ``probe_rate`` per second,
    each on its own fixed schedule from the start; whatever is due is
    published in one ``submit_many`` call.  The stream's ``seconds`` are
    cut into ``windows`` equal windows, and the host's steal share is
    read at every window edge (:attr:`window_steal`).
    """

    def __init__(
        self, updater, mix, mix_rate: float, probe_users, probe_targets,
        probe_rate: float, seconds: float, windows: int, recorder=None,
    ) -> None:
        super().__init__(name="perfbench-open-loop", daemon=True)
        self.updater = updater
        self.mix = mix
        self.mix_rate = mix_rate
        self.n_mix = int(mix_rate * seconds) if mix is not None else 0
        self.probe_users = list(probe_users)
        self.probe_targets = list(probe_targets)
        self.probe_rate = probe_rate
        self.n_probes = int(probe_rate * seconds)
        self.seconds = seconds
        self.windows = windows
        #: steal share of each window, in order
        self.window_steal: list[float | None] = []
        self.recorder = recorder
        if mix is not None and self.n_mix > len(mix):
            raise ValueError("mix stream shorter than the schedule")
        self.mix_sent = 0
        #: (user, target, serial) of every probe published, in order
        self.probes: list[tuple[int, int, int]] = []
        self.late_ms: list[float] = []
        self.visible_ms: list[float] = []
        #: when each of ``visible_ms`` was due, seconds from the stream's start
        self.visible_at: list[float] = []
        self.began = 0.0
        self.depth: list[int] = []
        self.unsent_probes = 0
        self.invisible_probes = 0
        self.first_publish: float | None = None
        self.depth_at_offer_end = 0
        self.drain_s = 0.0
        self.drained_at = 0.0
        self.shed_user = 0
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            self._run()
        except BaseException as exc:  # reported by the caller, never lost
            self.error = exc

    def _run(self) -> None:
        cache = self.updater.cache
        idle = deque(self.probe_users)
        outstanding: dict[int, tuple[float, int]] = {}
        mix_i = probe_j = 0
        shed_before = self.updater.topic.shed_user
        ticks = cpu_ticks()
        start = self.began = perf_counter()
        while True:
            elapsed = perf_counter() - start
            edge = (len(self.window_steal) + 1) * self.seconds / self.windows
            if elapsed >= edge and len(self.window_steal) < self.windows:
                ticks, last = cpu_ticks(), ticks
                self.window_steal.append(steal_share(last, ticks))
            due: list[tuple[float, object]] = []
            first = mix_i
            while mix_i < self.n_mix and mix_i / self.mix_rate <= elapsed:
                mix_i += 1
            if mix_i > first:
                due.extend(
                    (start + i / self.mix_rate, event)
                    for i, event in enumerate(self.mix.events(first, mix_i), first)
                )
            while probe_j < self.n_probes and probe_j / self.probe_rate <= elapsed:
                when = start + probe_j / self.probe_rate
                if idle:
                    user = idle.popleft()
                    target = self.probe_targets[probe_j % len(self.probe_targets)]
                    outstanding[user] = (when, cache.version(user))
                    due.append((when, probe_event(user, target, probe_j)))
                    self.probes.append((user, target, probe_j))
                else:
                    self.unsent_probes += 1
                probe_j += 1
            if due:
                due.sort(key=lambda pair: pair[0])
                events = [event for __, event in due]
                sent_at = perf_counter()
                if self.first_publish is None:
                    self.first_publish = sent_at
                record = self.recorder.begin("updater.submit_many") if self.recorder else None
                self.updater.submit_many(events)
                if record is not None:
                    self.recorder.end(record, len(events))
                self.late_ms.extend((sent_at - when) * 1e3 for when, __ in due)
                self.mix_sent = mix_i
            self._poll(outstanding, idle)
            self.depth.append(self.updater.topic.depth)
            if mix_i == self.n_mix and probe_j == self.n_probes:
                break
            upcoming = start + min(
                mix_i / self.mix_rate if mix_i < self.n_mix else float("inf"),
                probe_j / self.probe_rate if probe_j < self.n_probes else float("inf"),
            )
            now = perf_counter()
            wake = now + TICK_S if outstanding else max(now + TICK_S, upcoming)
            time.sleep(wake - now)
        if len(self.window_steal) < self.windows:  # the last, cut short
            self.window_steal.append(steal_share(ticks, cpu_ticks()))
        self.depth_at_offer_end = self.updater.topic.depth
        drain_start = perf_counter()
        if not self.updater.drain(timeout=DRAIN_TIMEOUT_S):
            raise RuntimeError("stream did not drain")
        self.drained_at = perf_counter()
        self.drain_s = self.drained_at - drain_start
        self._poll(outstanding, idle)
        self.invisible_probes = len(outstanding)
        self.shed_user = self.updater.topic.shed_user - shed_before

    @property
    def sent(self) -> int:
        return self.mix_sent + len(self.probes)

    def sent_events(self) -> list:
        """Every event published; per-user order is publish order (mix
        users and probe users are disjoint)."""
        mix = self.mix.events(0, self.mix_sent) if self.mix is not None else []
        return mix + [probe_event(*probe) for probe in self.probes]

    def _poll(self, outstanding, idle) -> None:
        if not outstanding:
            return
        version = self.updater.cache.version
        now = perf_counter()
        for user, (when, before) in list(outstanding.items()):
            if version(user) > before:
                self.visible_ms.append((now - when) * 1e3)
                self.visible_at.append(when - self.began)
                del outstanding[user]
                idle.append(user)
