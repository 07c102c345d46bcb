"""ingest-mixed: writes beside reads on a durable collection, in one process.

Each step, through ``SearchService``: ``add`` 32 fresh vectors, ``remove``
8 live ids, ``search_batch`` 16 queries; then one inline
``MaintenanceLoop.run_once()``.  The pending buffer and tombstones make
reads pay for writes.  Uses the exact kernel heavily; skips ``net``,
``quant`` and training.  Ends with ``close()`` and ``Collection.open()``.
"""

from __future__ import annotations

import shutil
import time
from contextlib import nullcontext
from typing import List

import numpy as np
from repro import Collection, MaintenanceLoop, SearchService, make_index
from repro.utils.distances import pairwise_topk

from harness import (
    DIM,
    K,
    Context,
    Mixture,
    Outcome,
    WrongAnswer,
    check_answers,
    check_exact,
    dir_bytes,
    exact_topk,
    median,
    peak_rss_mb,
    percentile_ms,
    recall,
)

ADDS, REMOVES, READS = 32, 8, 16
# Every episode replays the same fixed sequence of steps, so every run
# performs the same operations and the same maintenance schedule: 200
# steps are 400 WAL ops, one checkpoint at checkpoint_ops=256, and about
# four compactions.  A run replays it once per 3 s of --seconds (about
# the time one replay and its answer checks take), at least four times
# (see measure).
EPISODE_STEPS = 200
SECONDS_PER_EPISODE = 3.0
MIN_EPISODES = 4
TRACE_STEPS = 600  # four checkpoints, then 176 WAL ops left to replay
MIN_MAINTENANCE = 4  # checkpoints and compactions per run
SETUPS = 12  # set-ups before the episodes, each of which adds one more
RECOVERY_QUERIES = 200


class LiveSet:
    """The benchmark's own model of the acknowledged live vectors, by id."""

    def __init__(self, base: np.ndarray) -> None:
        self._vectors = base.copy()
        self._alive = np.ones(base.shape[0], dtype=bool)
        self.size = base.shape[0]

    @property
    def vectors(self) -> np.ndarray:
        return self._vectors[: self.size]

    @property
    def alive(self) -> np.ndarray:
        return self._alive[: self.size]

    def add(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        first, count = self.size, vectors.shape[0]
        if not np.array_equal(ids, np.arange(first, first + count)):
            raise WrongAnswer(f"add returned ids {ids[:4]}..., expected fresh ids from {first}")
        if first + count > self._vectors.shape[0]:
            self._vectors = np.resize(self._vectors, (2 * (first + count), self._vectors.shape[1]))
            self._alive = np.resize(self._alive, 2 * (first + count))
        self._vectors[first : first + count] = vectors
        self._alive[first : first + count] = True
        self.size += count

    def check(self, ids, distances, queries, what: str) -> np.ndarray:
        """Answers must be the exact top-k of the live set; returns true ids."""
        check_answers(ids, distances, queries, self.vectors, valid=self.alive, what=what)
        true_ids, true_distances = exact_topk(queries, self.vectors, valid=self.alive)
        check_exact(distances, true_distances, what=what)
        return true_ids


class Steps:
    """Per-step timings and counters of one stretch of the mixed loop."""

    def __init__(self) -> None:
        self.write: List[float] = []
        self.remove: List[float] = []
        self.read: List[float] = []
        self.step: List[float] = []
        self.pending: List[int] = []
        self.tombstones: List[int] = []
        self.traced: List[bool] = []
        self.wal_bytes = 0
        self.user_bytes = 0


def _setup(ctx: Context, base: np.ndarray, name: str):
    start = time.perf_counter()
    index = make_index("sharded-bruteforce", n_shards=4, compact_threshold=None)
    collection = Collection.create(ctx.work / name, index.build(base), sync="always")
    return collection, time.perf_counter() - start


def _run_steps(collection, service, maintenance, live, mixture, rng, n_steps, spans=None):
    """``n_steps`` steps of the mixed loop; every read is checked.

    With ``spans``, every other step is traced, so traced and untraced
    steps see the same collection states.
    """
    steps = Steps()
    for i in range(n_steps):
        in_span = spans is not None and i % 2 == 1
        timed = spans.span if in_span else (lambda name: nullcontext())
        vectors = mixture.draw(ADDS)
        doomed = rng.choice(np.flatnonzero(live.alive), REMOVES, replace=False)
        queries = mixture.draw(READS)
        wal_before = collection.wal_bytes
        with timed("ingest.step"):
            t0 = time.perf_counter()
            with timed("service.add"):
                ids = service.add(vectors)
            t1 = time.perf_counter()
            with timed("service.remove"):
                service.remove(doomed)
            t2 = time.perf_counter()
            steps.pending.append(int(collection.index.n_pending))
            steps.tombstones.append(int(collection.index.n_tombstones))
            with timed("service.search_batch"):
                result = service.search_batch(queries, k=K)
            t3 = time.perf_counter()
            steps.wal_bytes += collection.wal_bytes - wal_before
            with timed("store.maintenance"):
                maintenance.run_once()
            t4 = time.perf_counter()
        steps.write.append(t1 - t0)
        steps.remove.append(t2 - t1)
        steps.read.append(t3 - t2)
        steps.step.append(t4 - t0)
        steps.traced.append(in_span)
        steps.user_bytes += vectors.nbytes + doomed.nbytes
        live.add(np.asarray(ids, dtype=np.int64), vectors)
        live.alive[doomed] = False
        live.check(result.ids, result.distances, queries, "ingest search_batch")
    return steps


def _traced_method(obj, name: str, spans, span_name: str) -> None:
    """Time every call of ``obj.name`` as a span (instance attribute only)."""
    inner = getattr(obj, name)

    def traced(*args, **kwargs):
        with spans.span(span_name):
            return inner(*args, **kwargs)

    setattr(obj, name, traced)


def _episode(ctx: Context, base: np.ndarray, name: str, n_steps: int, spans=None):
    """One replay of the step sequence on a fresh collection.

    The mixture and the removal draws restart from ``--seed``, so every
    episode of a run performs the same operations on the same states.
    Returns the still-open collection and what the episode did.
    """
    mixture = Mixture(ctx.seed)
    rng = np.random.default_rng(ctx.seed + 1)
    collection, setup_s = _setup(ctx, base, name)
    live = LiveSet(base)
    service = SearchService(collection, cache_size=0)
    maintenance = MaintenanceLoop(collection, checkpoint_ops=256, compact_pressure=0.1)
    if spans is not None:
        _traced_method(collection, "checkpoint", spans, "store.checkpoint")
        _traced_method(collection, "compact", spans, "store.compact")
        with spans.span("ingest.traced"):
            steps = _run_steps(collection, service, maintenance, live, mixture, rng, n_steps, spans)
    else:
        steps = _run_steps(collection, service, maintenance, live, mixture, rng, n_steps)
    service.close()
    return collection, live, mixture, maintenance, steps, setup_s


def _recover(collection, live: LiveSet, mixture: Mixture):
    """Close, reopen and check a sample of answers; returns the figures."""
    collection.close()
    start = time.perf_counter()
    recovered = Collection.open(collection.path)
    recover_s = time.perf_counter() - start
    queries = mixture.draw(RECOVERY_QUERIES)
    ids, distances = recovered.batch_query(queries, K)
    true_ids = live.check(ids, distances, queries, "recovered collection")
    if recovered.index.n_points != int(live.alive.sum()):
        raise WrongAnswer("recovered collection holds a different live count")
    replayed = recovered.wal_ops
    recovered.close()
    disk = dir_bytes(collection.path) / (live.alive.sum() * DIM * 4.0)
    return recover_s, replayed, recall(ids, true_ids), disk


def _store_counts(steps: Steps, checkpoints: int, compactions: int, recovery) -> dict:
    """The store and shard figures of one episode and the run's maintenance."""
    recover_s, replayed, _, disk = recovery
    if min(checkpoints, compactions) < MIN_MAINTENANCE:
        raise RuntimeError(
            f"only {checkpoints} checkpoints and {compactions} compactions; "
            f"expected {MIN_MAINTENANCE} each"
        )
    return {
        "store.write_p50_ms": (percentile_ms(steps.write, 50), "ms"),
        "store.write_p99_ms": (percentile_ms(steps.write, 99), "ms"),
        "store.remove_ms": (percentile_ms(steps.remove, 50), "ms"),
        "store.recover_s": (recover_s, "s"),
        "store.checkpoints": (checkpoints, "count"),
        "store.compactions": (compactions, "count"),
        "store.replayed_ops": (replayed, "count"),
        "store.wal_bytes_per_user_byte": (steps.wal_bytes / steps.user_bytes, "ratio"),
        "store.disk_bytes_per_user_byte": (disk, "ratio"),
        "shard.n_pending": (float(np.mean(steps.pending)), "count"),
        "shard.n_tombstones": (float(np.mean(steps.tombstones)), "count"),
    }


def measure(ctx: Context) -> Outcome:
    """Set up several times, then replay one step sequence several times.

    Each figure is taken per step position as the best of the episodes
    (the fastest replay of that step), then summarised over positions.  A
    slow spell of the host that spans part of the run slows a stretch of
    one or two episodes, and the other episodes' replays of the same
    steps stand in for it.  Ends with recovery of the last episode.
    """
    base = Mixture(ctx.seed).base(1_600 if ctx.smoke else 16_000)
    setups = []
    for attempt in range(2 if ctx.smoke else SETUPS):
        collection, seconds = _setup(ctx, base, f"setup{attempt}")
        setups.append(seconds)
        collection.close()
        shutil.rmtree(collection.path)
    n_steps = EPISODE_STEPS
    n_episodes = max(MIN_EPISODES, round(ctx.seconds / SECONDS_PER_EPISODE))
    episodes, checkpoints, compactions = [], 0, 0
    for episode in range(n_episodes):
        if episodes:  # only the last episode's collection is recovered
            collection.close()
            shutil.rmtree(collection.path)
        collection, live, mixture, maintenance, steps, seconds = _episode(
            ctx, base, f"ingest{episode}", n_steps
        )
        setups.append(seconds)
        episodes.append(steps)
        checkpoints += maintenance.checkpoints
        compactions += maintenance.compactions
    recovery = _recover(collection, live, mixture)
    counts = _store_counts(episodes[-1], checkpoints, compactions, recovery)

    def best(field: str) -> np.ndarray:
        return np.min([getattr(steps, field) for steps in episodes], axis=0)

    out = Outcome()
    out.tally.attempted = n_episodes * n_steps * 3 + RECOVERY_QUERIES
    out.metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": n_steps / best("step").sum(),
        "p50_ms": percentile_ms(best("read"), 50),
        "p90_ms": percentile_ms(best("read"), 90),
        "recall_at_10": recovery[2],
    }
    out.report = {
        "write_p50_ms": (percentile_ms(best("write"), 50), "ms"),
        "write_p99_ms": (percentile_ms(best("write"), 99), "ms"),
        "read_p50_ms": (out.metrics["p50_ms"], "ms"),
        "read_p90_ms": (out.metrics["p90_ms"], "ms"),
        "read_p99_ms": (percentile_ms(best("read"), 99), "ms"),
        "mixed_ops_s": (out.metrics["ops_per_s"], "1/s"),
        "recover_s": counts["store.recover_s"],
        "steps": (n_steps, "count"),
        "episodes": (n_episodes, "count"),
        "checkpoints": counts["store.checkpoints"],
        "compactions": counts["store.compactions"],
    }
    return out


def trace(ctx: Context) -> Outcome:
    """Per-layer ledger: one episode with every other step traced."""
    spans = ctx.spans
    base = Mixture(ctx.seed).base(1_600 if ctx.smoke else 16_000)
    collection, live, mixture, maintenance, steps, _ = _episode(
        ctx, base, "ingest-traced", TRACE_STEPS, spans
    )
    recovery = _recover(collection, live, mixture)
    out = Outcome()
    out.tally.attempted = TRACE_STEPS * 3 + RECOVERY_QUERIES
    out.report = {
        **_store_counts(steps, maintenance.checkpoints, maintenance.compactions, recovery),
        "store.checkpoint_ms": (1e3 * median(spans.durations("store.checkpoint")), "ms"),
        "store.compact_ms": (1e3 * median(spans.durations("store.compact")), "ms"),
        "distances.pairwise_topk_us": (_pairwise_topk_us(live, mixture), "us"),
        "trace.overhead_ingest_mixed": (
            median(np.compress(steps.traced, steps.step))
            / median(np.compress(np.logical_not(steps.traced), steps.step))
            - 1.0,
            "ratio",
        ),
    }
    return out


def _pairwise_topk_us(live: LiveSet, mixture: Mixture) -> float:
    """The exact kernel on this workload's shapes: 16 queries x the live set."""
    points = live.vectors[live.alive]
    times = []
    for _ in range(20):
        queries = mixture.draw(READS)
        start = time.perf_counter()
        pairwise_topk(queries, points, K)
        times.append(time.perf_counter() - start)
    return median(times) * 1e6 / READS
