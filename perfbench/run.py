"""Production-path benchmark of the SPA serving stack.

One command, three workloads::

    python3 perfbench/run.py --workload paper-serve --seed 7 --seconds 10 --trace 0

Each run generates its inputs from ``--seed``, builds the production
composition (see :mod:`stack`) three times to time set-up, then drives
it for ``--seconds``: a closed-loop request client on the main thread
and an open-loop LifeLog stream on a second thread (see :mod:`load`).
``paper-serve`` interleaves its selects with its recommends, as the
paper's platform serves both functions; the other two workloads keep
their recommend stream pure and run the selects every workload reports
in a trailing phase, after the LifeLog stream has drained.  Outputs are
checked (see :mod:`checks`) before any number is reported.

``--trace 0`` reports the end-to-end metrics.  Recommend latencies and
rate and update-to-visible latencies are taken per ``WINDOW_S`` window
and reported as the median over the windows in which the hypervisor
stole at most ``STEAL_MAX`` of the CPUs, or over the quietest half of
them (see :func:`quiet_windows` and :func:`load.cpu_ticks`); the run
record lists each window's steal share.  ``--trace 1`` alternates
requests between the plain service and one built over tracing proxies
(see :mod:`spans`), reports the per-layer metrics, checks that both
services answer identically and writes the spans to
``.perfbench/spans-<workload>-<seed>.jsonl``.

Standard output: a metric table, one JSON run record (host facts, seed,
workload rationale, checks, every metric), and as its last line the
result object ``{"correct", "attempted", "failed", "metrics"}``.
``--smoke`` shrinks every size for the self-test (``selftest.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

K = 10
SELECT_K = 100
#: share of the run a workload without interleaved selects spends on a
#: trailing select phase (every workload reports ``select_*``)
SELECT_PHASE_FRAC = 0.25
#: probe events per second, on every workload
PROBE_RATE = 200.0
#: latency percentiles and rates are taken per window of this many
#: seconds and reported as the median over the run's quiet windows: a
#: shared virtual machine loses its CPUs to other tenants in bursts
#: (steal time) that stretch every latency several times over
WINDOW_S = 3.0
#: windows whose host steal share is at most this count; if fewer than
#: half the windows are that quiet, the quietest half counts
STEAL_MAX = 0.01
SETUP_REPEATS = 3
#: requests in one pass of the (cycled) request plan
PLAN_LENGTH = 20_000
#: users sampled for recall@10, the reference check and the trace check
RECALL_USERS = 200
REFERENCE_USERS = 24
TRACE_CHECK_USERS = 16
#: a drain longer than this, with the queue deeper at the end of the
#: offer than at its start, means the offered rate was not sustained
BACKLOG_DRAIN_S = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    n_items: int
    retrieval: bool
    #: one select_users request per this many requests; 0 runs the selects
    #: in a trailing phase of their own, after the LifeLog stream drained
    select_every: int
    #: offered LifeLog mix rate, events per second (probes come on top)
    mix_rate: float
    #: also require the final SUM state to be bit-equal to the reference
    state_digest: bool
    why: str
    exercises: tuple[str, ...]
    bypasses: tuple[str, ...]
    predicted_unchanged_by: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="catalog-retrieve", n_items=20_000, retrieval=True,
            select_every=0, mix_rate=0.0, state_digest=False,
            why="recommend(items=None, k=10) over a 20k-item catalog: the "
                "O(k) ANN path, 128-candidate FunkSVD re-rank and Advice",
            exercises=(
                "retrieval (embeddings, index, retriever)", "scorer",
                "advice", "cache.batch (1 row)",
                "trailing select phase over 20k users",
            ),
            bypasses=("write plane under load (probe stream only)",),
            predicted_unchanged_by=(
                "write-plane changes: every metric but update_visible_*, "
                "events_per_s",
            ),
        ),
        Workload(
            name="paper-serve", n_items=120, retrieval=False,
            select_every=150, mix_rate=0.0, state_digest=False,
            why="the paper's two functions at its scale: recommend over "
                "120 courses, select_users(k=100) over 20k users",
            exercises=(
                "advice presence rebuild", "ScoredItem/SelectedUser "
                "materialisation", "wide SumCache.batch capture", "scorer",
            ),
            bypasses=("retrieval", "write plane under load (probe stream only)"),
            predicted_unchanged_by=(
                "retrieval changes: every metric",
                "write-plane changes: recommend_*, select_*",
            ),
        ),
        Workload(
            name="live-mixed", n_items=120, retrieval=False,
            select_every=0, mix_rate=2_000.0, state_digest=True,
            why="paper-serve's recommends beside an open-loop 2000 ev/s "
                "LifeLog stream on the same cache: reads and writes contend",
            exercises=(
                "paper-serve's recommend path", "updater.submit_many",
                "bus", "shard workers", "dirty-row cache refresh",
                "trailing select phase over 20k users",
            ),
            bypasses=("retrieval",),
            predicted_unchanged_by=(
                "retrieval changes: every metric",
                "read-only changes: update_visible_*, events_per_s",
            ),
        ),
    )
}

#: end-to-end metrics (``--trace 0``) and their units
END_TO_END = {
    "setup_s": "s",
    "recommend_p50_ms": "ms",
    "recommend_p99_ms": "ms",
    "recommend_rps": "req/s",
    "select_p50_ms": "ms",
    "select_p90_ms": "ms",
    "update_visible_p50_ms": "ms",
    "update_visible_p99_ms": "ms",
    "events_per_s": "ev/s",
    "rss_peak_mb": "MB",
    "success_frac": "ratio",
}

#: per-layer metrics (``--trace 1``) and their units
PER_LAYER = {
    "serving.recommend.self_ms": "ms",
    "serving.select.self_ms": "ms",
    "cache.batch_ms": "ms",
    "cache.batch_rows": "count",
    "recommend.cache.batch_ms": "ms",
    "select.cache.batch_ms": "ms",
    "scorer.score_batch_ms": "ms",
    "scorer.cells": "count",
    "recommend.scorer.score_batch_ms": "ms",
    "select.scorer.score_batch_ms": "ms",
    "advice.multiplier_matrix_ms": "ms",
    "advice.presence_matrix_ms": "ms",
    "advice.cells": "count",
    "recommend.advice.multiplier_matrix_ms": "ms",
    "recommend.advice.presence_matrix_ms": "ms",
    "select.advice.multiplier_matrix_ms": "ms",
    "select.advice.presence_matrix_ms": "ms",
    "retriever.retrieve_ms": "ms",
    "retriever.fallback_frac": "ratio",
    "retriever.candidates": "count",
    "embeddings.query_vectors_ms": "ms",
    "index.search_ms": "ms",
    "updater.submit_many_ms": "ms",
    "bus.depth_max": "count",
    "bus.depth_mean": "count",
    "worker.batch_mean": "count",
    "worker.dead_lettered": "count",
    "worker.redelivered": "count",
    "program.worker_commit_ms": "ms",
    "setup.world_s": "s",
    "setup.fit_s": "s",
    "setup.warm_s": "s",
    "setup.index_build_s": "s",
    "loadgen.late_p99_ms": "ms",
    "loadgen.sent": "count",
    "trace.overhead_frac": "ratio",
    "recall_at_10": "ratio",
}


def sizes_for(workload: Workload, smoke: bool):
    from world import Sizes

    if smoke:
        return Sizes(
            n_users=1_200, n_items=min(workload.n_items, 2_000),
            n_ratings=3_000, n_warm_events=2_000, n_probe_users=64,
            fit_epochs=2,
        )
    return Sizes(
        n_users=20_000, n_items=workload.n_items, n_ratings=30_000,
        n_warm_events=20_000, n_probe_users=1_024, fit_epochs=4,
    )


def host_facts(steal_frac: float | None) -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_1m": os.getloadavg()[0],
        "platform": platform.platform(),
        "steal_frac": steal_frac,
    }


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else float("nan")


def n_windows(span_s: float) -> int:
    return max(1, round(span_s / WINDOW_S))


def quiet_windows(steal, n: int) -> list[bool]:
    """Which of ``n`` windows count, from each window's steal share: those
    with at most ``STEAL_MAX``, or, if fewer than half are, the quietest
    half.  Windows the host gave no steal figure for count."""
    shares = [
        steal[i] if i < len(steal) and steal[i] is not None else 0.0
        for i in range(n)
    ]
    quiet = [share <= STEAL_MAX for share in shares]
    half = (n + 1) // 2
    if sum(quiet) < half:
        quietest = sorted(range(n), key=shares.__getitem__)[:half]
        quiet = [i in quietest for i in range(n)]
    return quiet


def window_median(values, at, span_s: float, quiet, stat) -> float:
    """Median over the ``quiet`` windows of ``[0, span_s)`` of
    ``stat(samples, window_s)``, each window holding the samples whose
    time ``at`` falls in it (empty windows never count)."""
    import numpy as np

    n = n_windows(span_s)
    values = np.asarray(values)
    slot = np.floor(np.asarray(at) * n / span_s)
    kept = [
        stat(values[slot == i], span_s / n)
        for i in range(n) if quiet[i] and np.any(slot == i)
    ]
    return float(np.median(kept)) if kept else math.nan


def commit_totals(registry) -> tuple[float, int]:
    """(seconds, batches) of the workers' program-reported commits."""
    if registry is None:
        return 0.0, 0
    total, count = 0.0, 0
    for name, inst in registry.snapshot().instruments.items():
        if name.startswith("streaming.commit_seconds"):
            total += inst.sum
            count += inst.count
    return total, count


def run(workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool):
    """One benchmark run; returns ``(record, result)``."""
    import numpy as np

    from checks import (
        ranking_check,
        recall_at_k,
        reference_problems,
        trace_problems,
    )
    from load import (
        OpenLoop,
        closed_loop,
        cpu_ticks,
        request_stream,
        select_stream,
        steal_share,
    )
    from spans import SpanRecorder, layer_metrics, traced_service
    from stack import build_stack
    from world import make_events

    sizes = sizes_for(workload, smoke)
    setups = []
    stack = None
    for __ in range(SETUP_REPEATS):
        if stack is not None:
            stack.close()
        stack = build_stack(sizes, seed, workload.retrieval, program_metrics=trace)
        setups.append(stack.timings)
    world = stack.world
    try:
        rng = np.random.default_rng([seed, 2])
        items = None if workload.retrieval else world.item_ids
        requests = request_stream(
            rng, world, PLAN_LENGTH, workload.select_every, items, K, SELECT_K
        )
        # the recommend phase, with the LifeLog stream beside it
        main_s = seconds if workload.select_every else seconds * (1 - SELECT_PHASE_FRAC)
        mix = None
        if workload.mix_rate:
            mix = make_events(
                rng, int(workload.mix_rate * main_s) + 1, world.active_users,
                world.activity, world.areas, 2e9,
            )
        recorder = SpanRecorder() if trace else None
        services = [stack.service]
        if trace:
            services.append(traced_service(stack, recorder))
        updater = stack.updater
        before = updater.stats()
        commit_before = commit_totals(stack.registry)
        generator = OpenLoop(
            updater, mix, workload.mix_rate, world.probe_users,
            world.probe_targets, PROBE_RATE, main_s, n_windows(main_s), recorder,
        )
        check = ranking_check(min(K, sizes.n_items), min(SELECT_K, sizes.n_users))
        gc.collect()  # leave no set-up garbage for a collection mid-run
        ticks_before = cpu_ticks()
        generator.start()
        loop = closed_loop(requests, services, main_s, check, recorder)
        generator.join()
        if generator.error is not None:
            raise generator.error
        if not workload.select_every:
            selects = closed_loop(
                select_stream(rng, world, SELECT_K), services, seconds - main_s,
                check, recorder,
            )
            loop.select_ms += selects.select_ms
            loop.errors += selects.errors
            loop.problems += selects.problems
        after = updater.stats()
        steal_frac = steal_share(ticks_before, cpu_ticks())
        commit_after = commit_totals(stack.registry)

        # -- output checks, before any number ----------------------------
        problems = list(loop.problems)
        check_rng = np.random.default_rng([seed, 3])
        sample = check_rng.choice(
            world.active_users, size=REFERENCE_USERS, replace=False
        ).tolist() + world.probe_users[:8]
        checks = {"rankings": not problems}
        if not workload.retrieval:
            found = reference_problems(
                stack, world.warm.events() + generator.sent_events(), sample, items, K,
                workload.state_digest,
            )
            checks["sequential_reference"] = not found
            problems += found
        if trace:
            found = trace_problems(
                services[0], services[1], sample[:TRACE_CHECK_USERS], items, K,
                world.item_ids[0],
            )
            checks["trace_identical"] = not found
            problems += found
        recall_users = check_rng.choice(
            world.active_users, size=min(RECALL_USERS, len(world.active_users)),
            replace=False,
        )
        recall, found = recall_at_k(stack.service, recall_users, world.item_ids, K)
        checks["exact_scores"] = not found
        problems += found
    finally:
        stack.close()

    # -- failures and open-loop validity ---------------------------------
    depth = generator.depth
    quarter = max(1, len(depth) // 4)
    backlog_growing = (
        generator.drain_s > BACKLOG_DRAIN_S
        and np.mean(depth[-quarter:]) > np.mean(depth[:quarter])
    )
    attempted = (
        len(loop.recommend_ms) + len(loop.traced_recommend_ms)
        + len(loop.select_ms) + len(loop.errors)
        + generator.sent + generator.unsent_probes
    )
    failed = (
        len(loop.errors)
        + (after.dead_lettered - before.dead_lettered)
        + generator.shed_user
        + generator.unsent_probes + generator.invisible_probes
        + (generator.depth_at_offer_end if backlog_growing else 0)
    )
    applied = after.applied - before.applied
    visible, visible_at = generator.visible_ms, generator.visible_at
    untraced_ms, sent_at = loop.recommend_ms, loop.recommend_at

    def p50(samples, __):
        return percentile(samples, 50)

    def p99(samples, __):
        return percentile(samples, 99)

    def rate(samples, window_s):
        return len(samples) / window_s

    quiet = quiet_windows(generator.window_steal, n_windows(main_s))

    end_to_end = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "recommend_p50_ms": window_median(untraced_ms, sent_at, main_s, quiet, p50),
        "recommend_p99_ms": window_median(untraced_ms, sent_at, main_s, quiet, p99),
        "recommend_rps": window_median(untraced_ms, sent_at, main_s, quiet, rate),
        "select_p50_ms": percentile(loop.select_ms, 50),
        "select_p90_ms": percentile(loop.select_ms, 90),
        "update_visible_p50_ms": window_median(visible, visible_at, main_s, quiet, p50),
        "update_visible_p99_ms": window_median(visible, visible_at, main_s, quiet, p99),
        "events_per_s": (
            applied / (generator.drained_at - generator.first_publish)
            if generator.first_publish is not None else math.nan
        ),
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_frac": 1.0 - failed / attempted,
    }
    layers = {}
    if trace:
        layers = layer_metrics(recorder)
        layers["recall_at_10"] = recall
        commit_s = commit_after[0] - commit_before[0]
        commits = commit_after[1] - commit_before[1]
        batches = after.batches - before.batches
        layers.update({
            "bus.depth_max": float(max(depth)),
            "bus.depth_mean": float(np.mean(depth)),
            "worker.batch_mean": applied / batches if batches else 0.0,
            "worker.dead_lettered": float(after.dead_lettered),
            "worker.redelivered": float(after.redelivered),
            "program.worker_commit_ms": commit_s / commits * 1e3 if commits else 0.0,
            "loadgen.late_p99_ms": percentile(generator.late_ms, 99),
            "loadgen.sent": float(generator.sent),
            "trace.overhead_frac": (
                percentile(loop.traced_recommend_ms, 50)
                / percentile(untraced_ms, 50) - 1.0
            ),
        })
        for name in ("setup.world_s", "setup.fit_s", "setup.warm_s", "setup.index_build_s"):
            layers[name] = statistics.median(s[name] for s in setups)
        spans_dir = ROOT / ".perfbench"
        spans_dir.mkdir(exist_ok=True)
        recorder.write_jsonl(spans_dir / f"spans-{workload.name}-{seed}.jsonl")

    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "host": host_facts(steal_frac),
        "rationale": asdict(workload),
        "sizes": asdict(sizes),
        "checks": checks,
        "problems": problems,
        "samples": {
            "recommend": len(untraced_ms),
            "recommend_traced": len(loop.traced_recommend_ms),
            "select": len(loop.select_ms),
            "probes_visible": len(visible),
            "events_sent": generator.sent,
        },
        "open_loop": {
            "backlog_growing": bool(backlog_growing),
            "drain_s": generator.drain_s,
            "depth_at_offer_end": generator.depth_at_offer_end,
        },
        "windows": {
            "seconds": main_s / n_windows(main_s),
            "steal": generator.window_steal,
            "counted": quiet,
        },
        "errors": loop.errors[:5],
        "failed_frac": failed / attempted,
        "recall_at_10": recall,
        "end_to_end": end_to_end,
        "per_layer": layers,
    }
    shown = layers if trace else end_to_end
    units = PER_LAYER if trace else END_TO_END
    metrics = {
        name: {"value": float(shown[name]), "unit": unit}
        for name, unit in units.items()
    }
    problems += [
        f"{name} not measured" for name, m in metrics.items()
        if not math.isfinite(m["value"])
    ]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        # numbers are reported only for outputs that passed every check
        "metrics": {} if problems else metrics,
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = perf_counter()
    record, result = run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.smoke
    )
    record["run_wall_s"] = perf_counter() - started
    print("perfbench", args.workload, "seed", args.seed, "trace", args.trace)
    for name in ("failed_frac", "recall_at_10"):
        if name not in result["metrics"]:
            print(f"  {name:<40} {record[name]:>14.6g}  ratio")
    for name, entry in result["metrics"].items():
        print(f"  {name:<40} {entry['value']:>14.6g}  {entry['unit']}")
    print(json.dumps({"record": record}, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
